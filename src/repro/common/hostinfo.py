"""Host provenance metadata shared by benchmarks and the run ledger.

A throughput number or a sweep record only means something when the
machine (and its load) that produced it is known; every durable artifact
that carries performance data embeds this dict alongside the numbers.
"""

from __future__ import annotations

import os
import platform
import resource


def host_metadata() -> dict:
    """What machine produced an artifact — for judging comparability.

    A points/s delta between two benchmark files (or two sweep ledgers)
    only means something when the host and its load were comparable;
    record both alongside the numbers.
    """
    meta = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if hasattr(os, "getloadavg"):
        try:
            meta["loadavg"] = [round(x, 2) for x in os.getloadavg()]
        except OSError:
            pass
    return meta


def peak_rss_mb() -> float:
    """Peak resident set, in MiB, of the largest process so far: this one
    or any child it has waited for (a sweep's pool workers).

    ``ru_maxrss`` is in KiB on Linux, the platform the simulator's
    numbers are recorded on.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024
