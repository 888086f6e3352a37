"""Tests of the benchmark itself: run with ``pytest bench/tests``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from common import SPEC  # noqa: E402
from layers import LAYERS, RULES, LayerSampler, layer_of  # noqa: E402

PACKAGE = ROOT / "src" / "repro"

#: the BENCHMARK.json format: exactly these keys, at the top and per entry.
SCHEMA = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
ENTRY_KEYS = {
    "workloads": {"name", "why"},
    "end_to_end": {"name", "unit", "better", "bound"},
    "per_layer": {"name", "unit", "better"},
}


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == SCHEMA
    for section, keys in ENTRY_KEYS.items():
        assert all(set(entry) == keys for entry in SPEC[section]), section
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_module_maps_to_a_named_layer():
    unmapped = [
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if layer_of(path.relative_to(PACKAGE).as_posix()) is None
    ]
    assert unmapped == [], "place these modules in bench/layers.py RULES"
    assert set(RULES.values()) <= set(LAYERS)


def test_metric_names_are_well_formed_and_cover_every_layer():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    for layer in LAYERS:
        assert f"{layer}.self_s" in names and f"{layer}.self_pct" in names


def test_sampler_shares_sum_to_100():
    from repro.experiments.designs import build_named_gpu
    from repro.sim.gpu import simulate
    from repro.workloads.suite import get_benchmark

    config, spec = build_named_gpu("secureMem_mshr64", 2), get_benchmark("bfs")
    with LayerSampler(PACKAGE) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            simulate(config, spec, 1_000, 500)
    assert sampler.samples > 0
    assert abs(sum(sampler.shares_pct().values()) - 100.0) < 1e-6
    assert sampler.seconds["event"] > 0 and sampler.seconds["secure"] > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_listed_metric(workload, trace):
    report = run.measure(workload, run.HELD_OUT_SEED, trace, tiny=True)
    line = run.result_line(report, SPEC, trace)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert len(report["results_digest"]) == 64


def test_same_seed_gives_the_same_results():
    first = run.measure("sim_secure", 7, False, tiny=True)
    second = run.measure("sim_secure", 7, False, tiny=True)
    other = run.measure("sim_secure", 8, False, tiny=True)
    assert first["results_digest"] == second["results_digest"] != other["results_digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_insecure", "--seed", "1",
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "no repro package" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_run_length_is_fixed_by_benchmark_json():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "sim_insecure", "--seconds", str(SPEC["run_seconds"] + 1)])
    assert exc.value.code == 2


def _runs(values):
    return [float(v) for v in values]


def test_compare_reports_a_consistent_win_as_improved():
    parent = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    change = _runs([110, 111, 109, 110, 112, 108, 110, 111, 109, 110])
    assert compare.verdict(parent, change, "higher", 0.1) == "improved"
    assert compare.verdict(change, parent, "higher", 0.1) == "unchanged"
    assert compare.verdict(parent, change, "lower", 0.05) == "worse"


def test_compare_reports_a_tie_as_unchanged():
    values = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    assert compare.verdict(values, list(values), "higher", 0.1) == "unchanged"


def test_compare_needs_ten_pairs_and_a_gap_beyond_the_spread():
    parent = _runs([100, 101, 99, 100, 102])
    change = _runs([110, 111, 109, 110, 112])
    assert compare.verdict(parent, change, "higher", 0.1) == "unchanged"
    parent = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    assert compare.verdict(parent, [v + 0.5 for v in parent], "higher", 0.1) == "unchanged"
    assert compare.verdict(parent, parent, "higher", 0.1, more_failures=True) == "unchanged"


def test_compare_reports_a_spread_wider_than_the_bound_as_unresolved():
    parent = _runs([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
    change = _runs([v + 5 for v in parent])
    assert compare.verdict(parent, change, "higher", 0.1) == "unresolved"
    # unless every change run beats every parent run
    assert compare.verdict(parent, [v + 100 for v in parent], "higher", 0.1) == "improved"


def test_compare_end_to_end(tmp_path):
    def lines(scale):
        runs = [
            {
                "workload": "sim_insecure", "seed": i, "trace": 0, "failed": 0,
                "results_digest": f"d{i}",
                "metrics": {
                    m["name"]: {"value": (100.0 + i % 3) * scale, "unit": m["unit"]}
                    for m in SPEC["end_to_end"]
                },
            }
            for i in range(10)
        ]
        return "".join(json.dumps(r) + "\n" for r in runs)

    (tmp_path / "p.jsonl").write_text(lines(1.0))
    (tmp_path / "c.jsonl").write_text(lines(1.0))
    assert compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")]) == 0
    (tmp_path / "c.jsonl").write_text(lines(2.0))  # every "lower" metric doubles
    assert compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")]) == 1
