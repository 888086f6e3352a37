"""Bit-identity contracts for the simulation core.

Grouped crossbar delivery, memoized trace generation, the object pools
(MSHR entries, in-flight records, event tuples), the inlined partition
access path (one path for telemetry on and off, with closure-free
replies) and the deferred telemetry fold are *mechanical*
optimizations: they may never change a simulated statistic, latency
histogram, run-ledger record or event count.  These tests pin those
outputs with golden dumps of secure + partitioned configurations — a
stencil sweep (``fdtd2d``) and a pointer chase (``bfs``), together
exercising all four protected classes (DATA, COUNTER, MAC, TREE) under
both streaming and irregular reuse, telemetry on — and with a
design-matrix golden: every registry design on write-back-heavy and
pointer-chasing points, plus the model shapes no design selects.  Any
change to the core that moves a number fails here.

Regenerate the goldens (only after an intentional model change) with::

    PYTHONPATH=src python tests/test_fastpath_identity.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.experiments.runner import Runner, result_to_dict
from repro.obsv.ledger import canonical_points, read_ledger
from repro.sim.gpu import Gpu, simulate
from repro.workloads.suite import get_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden-pinned workloads: a regular stencil and a pointer chase.
WORKLOADS = ["fdtd2d", "bfs"]
PARTITIONS = 2
HORIZON = 4_000.0
WARMUP = 2_000.0


def _golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}-secure-telemetry.json"


def _config():
    """Full protection (counters + MAC + BMT) over 2 partitions, telemetry on."""
    config = designs.build_gpu(designs.secure_mem(64), PARTITIONS)
    return dataclasses.replace(
        config, telemetry=TelemetryConfig(enabled=True, sample_every=500.0)
    )


def _dump(workload: str) -> dict:
    """One run's stats + latency export, in golden-file shape."""
    result = simulate(
        _config(), get_benchmark(workload), horizon=HORIZON, warmup=WARMUP
    )
    return {
        "result": result_to_dict(result),
        "stats": result.stats.to_dict(),
        "latency": result.telemetry["latency"],
    }


def _ledger_records(tmp_path: Path, workload: str) -> list:
    """Canonical ledger records from one Runner-driven run of the point."""
    ledger_path = tmp_path / "ledger.jsonl"
    runner = Runner(
        horizon=HORIZON,
        warmup=WARMUP,
        benchmarks=[workload],
        ledger_path=ledger_path,
    )
    runner.run(workload, _config())
    return canonical_points(read_ledger(ledger_path))


def _golden(workload: str) -> dict:
    return json.loads(_golden_path(workload).read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_matches_golden(workload: str) -> None:
    """A fresh run reproduces the committed dumps exactly."""
    golden = _golden(workload)
    dump = _dump(workload)
    assert dump["result"] == golden["result"], workload
    assert dump["stats"] == golden["stats"], workload
    assert dump["latency"] == golden["latency"], workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_exercises_all_protected_classes(workload: str) -> None:
    """The pinned points really do carry DATA, COUNTER, MAC and TREE traffic."""
    golden = _golden(workload)
    dram_classes = set()
    for hop_classes in golden["latency"]["hops"].values():
        dram_classes.update(hop_classes)
    assert {"DATA", "COUNTER", "MAC", "TREE"} <= dram_classes
    txn = golden["result"]["dram_txn"]
    assert txn["ctr"] > 0 and txn["mac"] > 0 and txn["bmt"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_records_match_golden(tmp_path: Path, workload: str) -> None:
    """A Runner-driven run writes record-equivalent run ledgers."""
    assert _ledger_records(tmp_path, workload) == _golden(workload)["ledger"]


#: the design-matrix golden: every registry design on two single-partition
#: stencils whose L2 write-backs reach the secure engine (write path,
#: counter increments, dirty metadata evictions, lazy and eager tree
#: updates) and on a two-partition pointer chase, plus the model shapes no
#: registry design selects.
DESIGN_GOLDEN = GOLDEN_DIR / "design-points.json"
DESIGN_WORKLOADS = (("fdtd2d", 1), ("srad_v2", 1), ("bfs", 2))


def _shape_points() -> dict:
    """Point id -> (config, workload, metadata_trace) for the extra shapes."""
    secure64 = designs.secure_mem(64)
    mshr64_p1 = designs.build_gpu(secure64, 1)
    return {
        "non_sectored/baseline/fdtd2d/p1": (
            designs.non_sectored_gpu(None, 1), "fdtd2d", False,
        ),
        "non_sectored/secureMem_mshr64/fdtd2d/p1": (
            designs.non_sectored_gpu(secure64, 1), "fdtd2d", False,
        ),
        "banked_dram/secureMem_mshr64/fdtd2d/p1": (
            dataclasses.replace(
                mshr64_p1, dram=dataclasses.replace(mshr64_p1.dram, model="banked")
            ),
            "fdtd2d",
            False,
        ),
        "interleave384/secureMem_mshr64/bfs/p2": (
            dataclasses.replace(
                designs.build_gpu(secure64, 2), partition_interleave_bytes=384
            ),
            "bfs",
            False,
        ),
        "metadata_trace/secureMem_mshr64/fdtd2d/p1": (mshr64_p1, "fdtd2d", True),
    }


def _design_point_ids() -> list:
    ids = [
        f"{name}/{workload}/p{partitions}"
        for name in designs.DESIGNS
        for workload, partitions in DESIGN_WORKLOADS
    ]
    return ids + list(_shape_points())


def _design_point(point_id: str) -> dict:
    """One design-matrix point in golden shape: results, a digest of the
    full stats dump, the event count and, for the trace point, the
    metadata access trace's length and digest."""
    shapes = _shape_points()
    if point_id in shapes:
        config, workload, metadata_trace = shapes[point_id]
    else:
        name, workload, partitions = point_id.split("/")
        config = designs.build_named_gpu(name, int(partitions[1:]))
        metadata_trace = False
    out = simulate(
        config,
        get_benchmark(workload),
        horizon=HORIZON,
        warmup=WARMUP,
        metadata_trace=metadata_trace,
    )
    point = {}
    if metadata_trace:
        out, trace = out
        text = json.dumps([[kind.value, addr] for kind, addr in trace])
        point["metadata_trace"] = {
            "length": len(trace),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    stats = json.dumps(out.stats.to_dict(), sort_keys=True)
    point["result"] = result_to_dict(out)
    point["stats_sha256"] = hashlib.sha256(stats.encode()).hexdigest()
    point["events"] = out.events_processed
    return point


@pytest.fixture(scope="module")
def design_golden() -> dict:
    return json.loads(DESIGN_GOLDEN.read_text())


@pytest.mark.parametrize("point_id", _design_point_ids())
def test_design_point_matches_golden(design_golden: dict, point_id: str) -> None:
    """Every design and model shape reproduces its committed point exactly."""
    assert _design_point(point_id) == design_golden[point_id]


@pytest.mark.parametrize("point_id", ["baseline/bfs/p2", "secureMem_mshr64/bfs/p2"])
def test_mshr_ready_heaps_bounded_after_run(design_golden: dict, point_id: str) -> None:
    """A finished point's MSHR ready heaps hold live state, not history:
    each is no longer than its table's capacity (one item per released
    fill would be several times the capacity by the window's end)."""
    name, workload, partitions = point_id.split("/")
    gpu = Gpu(designs.build_named_gpu(name, int(partitions[1:])), get_benchmark(workload))
    out = gpu.run(HORIZON, warmup=WARMUP)
    assert result_to_dict(out) == design_golden[point_id]["result"]
    assert out.events_processed == design_golden[point_id]["events"]
    tables = [p.l2_mshr for p in gpu.partitions]
    tables += [table for p in gpu.partitions for table in p.engine._mshrs.values()]
    over = {t.name: len(t._ready_heap) for t in tables if len(t._ready_heap) > t.num_entries}
    assert over == {}
    gpu.teardown()


def test_design_golden_reaches_the_write_path(design_golden: dict) -> None:
    """The matrix really pins secure write-backs and dirty metadata."""
    point = design_golden["separate/srad_v2/p1"]["result"]
    assert point["dram_txn"]["data_write"] > 0 and point["dram_txn"]["wb"] > 0
    eager = design_golden["eager_update/fdtd2d/p1"]["result"]
    assert eager != design_golden["separate/fdtd2d/p1"]["result"]


def _regenerate() -> None:
    import tempfile

    for workload in WORKLOADS:
        dump = _dump(workload)
        with tempfile.TemporaryDirectory() as tmp:
            dump["ledger"] = _ledger_records(Path(tmp), workload)
        path = _golden_path(workload)
        path.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    points = {point_id: _design_point(point_id) for point_id in _design_point_ids()}
    DESIGN_GOLDEN.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DESIGN_GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
