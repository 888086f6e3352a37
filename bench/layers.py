"""Host-time attribution: repro modules -> benchmark layers, and a sampler.

The sampler is a daemon thread that wakes at the interpreter's switch
interval, reads the measured thread's current frame, and credits the
wall time since its previous wake to the layer of the innermost frame
that lives under ``src/repro``.  It is sampling rather than cProfile on
purpose: cProfile charges a cost to every Python call, which runs the
simulator several times slower and inflates call-heavy layers (trace
generation, the event loop) against the others.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional

#: every layer a sample can land in, in reporting order.  Layer names are
#: module names; ``gpu`` is the model assembly (sim/gpu.py + fastpath.py),
#: ``common`` every other repro module, ``external`` time with no repro
#: frame on the stack (the benchmark's own code and the stdlib it calls).
LAYERS = (
    "event", "sm", "workloads", "interconnect", "cache", "mshr", "partition",
    "columnar", "secure", "dram", "resource", "telemetry", "gpu", "common",
    "external",
)

#: path under src/repro -> layer.  A key ending in "/" covers a package.
#: Every module must match a rule (bench/tests checks it), so a new
#: module has to be placed on purpose rather than falling into "common".
RULES: Dict[str, str] = {
    "sim/event.py": "event",
    "sim/sm.py": "sm",
    "workloads/": "workloads",
    "sim/interconnect.py": "interconnect",
    "sim/cache.py": "cache",
    "sim/mshr.py": "mshr",
    "sim/partition.py": "partition",
    "sim/columnar.py": "columnar",
    "secure/": "secure",
    "sim/dram.py": "dram",
    "sim/resource.py": "resource",
    "telemetry/": "telemetry",
    "sim/gpu.py": "gpu",
    "sim/fastpath.py": "gpu",
    "sim/__init__.py": "common",
    "__init__.py": "common",
    "__main__.py": "common",
    "cli.py": "common",
    "analysis/": "common",
    "common/": "common",
    "experiments/": "common",
    "jobs/": "common",
    "obsv/": "common",
}


def layer_of(relpath: str) -> Optional[str]:
    """The layer of a module path relative to src/repro, or None."""
    if relpath in RULES:
        return RULES[relpath]
    package, sep, _ = relpath.partition("/")
    return RULES.get(package + "/") if sep else None


class LayerSampler:
    """Context manager crediting the calling thread's wall time to layers.

    ``seconds[layer]`` sums the intervals between wakes; ``samples``
    counts the wakes.  Shares are exact fractions of the sampled wall
    time, so they sum to 100%.  Entering again resumes accumulating.
    """

    def __init__(self, package_dir: Path) -> None:
        self._prefix = str(Path(package_dir).resolve()) + "/"
        self.interval_s = sys.getswitchinterval()
        self.seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.samples = 0
        self._code_layer: Dict[object, Optional[str]] = {}
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._target = 0

    def _frame_layer(self, code) -> Optional[str]:
        try:
            return self._code_layer[code]
        except KeyError:
            filename = code.co_filename
            layer = None
            if filename.startswith(self._prefix):
                layer = layer_of(filename[len(self._prefix):]) or "common"
            self._code_layer[code] = layer
            return layer

    def _run(self, stop: threading.Event) -> None:
        last = time.perf_counter()
        while not stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target)
            now = time.perf_counter()
            layer = None
            while frame is not None and layer is None:
                layer = self._frame_layer(frame.f_code)
                frame = frame.f_back
            self.seconds[layer or "external"] += now - last
            self.samples += 1
            last = now

    def __enter__(self) -> "LayerSampler":
        self._target = threading.get_ident()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(self._stop,), name="layer-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def shares_pct(self) -> Dict[str, float]:
        total = sum(self.seconds.values())
        return {
            layer: (100.0 * secs / total if total else 0.0)
            for layer, secs in self.seconds.items()
        }
