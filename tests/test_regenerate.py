"""scripts/regenerate_experiments.py: it rewrites EXPERIMENTS.md's tables only."""

import runpy
import sys
from pathlib import Path

import repro.experiments.runner as runner_mod

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "regenerate_experiments.py"


def test_shipped_cache_regenerates_the_committed_file(tmp_path, monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a point the shipped cache holds")

    monkeypatch.setattr(runner_mod, "simulate", no_simulation)
    monkeypatch.setattr(runner_mod, "_simulate_point", no_simulation)
    out = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--output", str(out)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert "| 0 points simulated |" in capsys.readouterr().out

    # every line is the committed file's: the prose, headings and
    # hand-written sections survive, the tables match, and a run that took
    # its points from the cache leaves the regeneration time alone.
    assert out.read_text().splitlines() == (ROOT / "EXPERIMENTS.md").read_text().splitlines()


def test_fast_window_is_described_in_the_header():
    describe_run = runpy.run_path(str(SCRIPT))["describe_run"]
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    text = describe_run(committed, 3000, 6000, None)
    assert "measuring a 3,000-cycle window after a 6,000-cycle cache warmup." in text
    assert "measuring a 10,000-cycle window" not in text
    # nothing else changes, the regeneration time included.
    assert len(text.splitlines()) == len(committed.splitlines())
    assert describe_run(text, 10_000, 30_000, None) == committed
