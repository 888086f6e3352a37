"""scripts/regenerate_experiments.py: it rewrites EXPERIMENTS.md's tables only."""

import runpy
import sys
from pathlib import Path

import repro.experiments.runner as runner_mod

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "regenerate_experiments.py"
TOTAL_LINE = "Total regeneration time: "


def test_shipped_cache_regenerates_the_committed_file(tmp_path, monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a point the shipped cache holds")

    monkeypatch.setattr(runner_mod, "simulate", no_simulation)
    monkeypatch.setattr(runner_mod, "_simulate_point", no_simulation)
    out = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--output", str(out)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert "| 0 points simulated |" in capsys.readouterr().out

    def lines(path):
        return path.read_text().splitlines()

    regenerated, committed = lines(out), lines(ROOT / "EXPERIMENTS.md")
    # every line but the regeneration time is the committed file's: the
    # prose, headings and hand-written sections survive, the tables match.
    assert [n for n, line in enumerate(regenerated) if line.startswith(TOTAL_LINE)] == [
        n for n, line in enumerate(committed) if line.startswith(TOTAL_LINE)
    ]
    assert [line for line in regenerated if not line.startswith(TOTAL_LINE)] == [
        line for line in committed if not line.startswith(TOTAL_LINE)
    ]
