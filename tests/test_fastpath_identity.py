"""Bit-identity contracts for the simulation core.

Grouped crossbar delivery, memoized trace generation, the object pools
(MSHR entries, in-flight records, event tuples), the columnar delivery
lane (regular delivery groups routed around the per-access event/closure
machinery) and the deferred telemetry fold are *mechanical*
optimizations: they may never change a simulated statistic, latency
histogram, or run-ledger record.  These tests pin every one of those
outputs with golden dumps of secure + partitioned configurations — a
stencil sweep (``fdtd2d``) and a pointer chase (``bfs``), together
exercising all four protected classes (DATA, COUNTER, MAC, TREE) under
both streaming and irregular reuse — so any change to the core that
moves a number fails here.

Regenerate the goldens (only after an intentional model change) with::

    PYTHONPATH=src python tests/test_fastpath_identity.py --regen
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.experiments.runner import Runner, result_to_dict
from repro.obsv.ledger import canonical_points, read_ledger
from repro.sim.gpu import simulate
from repro.workloads.suite import get_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden-pinned workloads: a regular stencil and a pointer chase (the
#: latter drives the columnar lane's irregular/fallback boundaries).
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


def test_columnar_contract_attributes_resolve() -> None:
    """Every attribute the columnar lane binds exists on a live model.

    The lane (:mod:`repro.sim.columnar`) flattens private state of the
    partition, L2 MSHR, DRAM channel and secure engine into slot views at
    construction.  Each owning module declares that surface in a
    ``COLUMNAR_CONTRACT`` tuple next to the class; this test resolves
    every name against freshly built instances so a rename in one layer
    fails here with the contract's name, not as an ``AttributeError``
    mid-simulation (or worse, a silently disengaged lane).
    """
    from repro.secure import engine as engine_mod
    from repro.sim import dram as dram_mod
    from repro.sim import mshr as mshr_mod
    from repro.sim import partition as partition_mod
    from repro.sim.gpu import Gpu

    gpu = Gpu(_config(), get_benchmark(WORKLOADS[0]))
    part = gpu.partitions[0]
    for owner, contract in [
        (part, partition_mod.COLUMNAR_CONTRACT),
        (part.l2_mshr, mshr_mod.COLUMNAR_CONTRACT),
        (part.dram, dram_mod.COLUMNAR_CONTRACT),
        (part.engine, engine_mod.COLUMNAR_CONTRACT),
    ]:
        for name in contract:
            assert hasattr(owner, name), (type(owner).__name__, name)


def _regenerate() -> None:
    import tempfile

    for workload in WORKLOADS:
        dump = _dump(workload)
        with tempfile.TemporaryDirectory() as tmp:
            dump["ledger"] = _ledger_records(Path(tmp), workload)
        path = _golden_path(workload)
        path.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
