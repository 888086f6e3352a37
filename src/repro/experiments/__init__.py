"""Experiment drivers: one function per paper table/figure.

:class:`Runner` resolves the (workload, config) points they need, in
process or over a process pool, through one sharded result cache.
"""

from repro.experiments import designs, figures
from repro.experiments.runner import Runner, RunnerStats, ShardedResultCache

__all__ = [
    "Runner",
    "RunnerStats",
    "ShardedResultCache",
    "designs",
    "figures",
]
