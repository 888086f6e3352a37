"""Shared fixtures for the paper-regeneration benchmark harness.

Every ``bench_*.py`` regenerates one table or figure of the paper at the
benchmark scale (2 partitions, 5k-cycle measured window after a 6k-cycle
warmup, all 14 workloads) and prints the same rows/series the paper
reports.  Results land in a sharded, crash-safe cache on disk, so repeated
invocations and figures sharing design points (e.g. the baseline) only
simulate once.  The session runner is a
:class:`~repro.experiments.runner.Runner`: set ``REPRO_JOBS`` to fan
independent points out over that many worker processes (default 0: one
per core; 1 simulates in process).

Run with::

    REPRO_JOBS=4 pytest benchmarks/ --benchmark-only -s
"""

import os
from pathlib import Path

import pytest

from repro.experiments.runner import Runner

#: benchmark-harness scale; EXPERIMENTS.md is regenerated at a larger one.
PARTITIONS = 2
HORIZON = 8_000
WARMUP = 20_000

JOBS = int(os.environ.get("REPRO_JOBS", "0"))  # 0 = one per core


@pytest.fixture(scope="session")
def paper_runner():
    # a legacy single-file cache at the .json path is imported read-only;
    # the sharded cache lives in the ``.json.d/`` directory next to it.
    legacy = Path(__file__).parent / "_cache" / f"results_p{PARTITIONS}_h{HORIZON}.json"
    cache = legacy if legacy.is_file() else legacy.with_name(legacy.name + ".d")
    runner = Runner(
        horizon=HORIZON, warmup=WARMUP, cache_path=cache, jobs=JOBS
    )
    yield runner
    runner.close()


def emit(title: str, text: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")
