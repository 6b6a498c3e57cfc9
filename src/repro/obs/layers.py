"""Host time by layer: a ``SIGPROF`` sampler over the ``repro`` modules.

Every :data:`INTERVAL_S` of process CPU time the handler charges one
sample to the layer of the innermost ``repro.*`` frame on the main
thread's stack (``other`` when there is none).  Counts are not
deterministic, so nothing gates on them.
"""

from __future__ import annotations

import functools
import signal
import threading
import time
from typing import Dict, Optional

INTERVAL_S = 0.005

#: Module prefix -> layer, first match wins.
LAYERS = (
    ("repro.workloads", "workloads"),
    ("repro.memory", "memory"),
    ("repro.prefetchers", "prefetchers"),
    ("repro.core.triage", "core.triage"),
    ("repro.core.metadata_store", "core.metadata_store"),
    ("repro.core.training_unit", "core.training_unit"),
    ("repro.core.partition", "core.partition"),
    ("repro.core.utility_partition", "core.partition"),
    ("repro.replacement", "replacement"),
    ("repro.sim.timing", "sim.timing"),
    ("repro.sim.parallel", "sim.parallel"),
    ("repro.resilience", "sim.parallel"),
    ("repro.sim", "sim.driver"),
    ("repro.experiments", "experiments"),
    ("repro.cache", "cache"),
    ("repro.obs", "obs"),
)


@functools.lru_cache(maxsize=None)
def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer of a module name; ``None`` outside ``repro``."""
    if module != "repro" and not (module or "").startswith("repro."):
        return None
    return next((layer for prefix, layer in LAYERS
                 if module == prefix or module.startswith(prefix + ".")), "other")


def summary(counts: Dict[str, int], wall_s: float, note: Optional[str] = None) -> dict:
    """Samples, share and seconds (share x ``wall_s``) per layer."""
    total = sum(counts.values())
    layers = {layer: {"samples": n, "share": round(n / total, 4),
                      "seconds": round(n / total * wall_s, 4)}
              for layer, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))}
    out = {"interval_s": INTERVAL_S, "samples": total, "wall_s": round(wall_s, 4),
           "layers": layers}
    return dict(out, note=note) if note else out


class LayerSampler:
    """Sample counts per layer, taken between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self.wall_s = 0.0
        self.note: Optional[str] = None  # why nothing was sampled
        self._started: Optional[float] = None
        self._previous = None  # (handler, (delay, interval))

    @property
    def running(self) -> bool:
        return self._started is not None

    def start(self) -> bool:
        """Install the handler and timer; False when already running or
        when this thread cannot (``note`` says why)."""
        if self.running:
            return False
        if not hasattr(signal, "setitimer"):
            self.note = "not sampled: no SIGPROF interval timer on this platform"
            return False
        if threading.current_thread() is not threading.main_thread():
            self.note = "not sampled: SIGPROF sampling runs only on the main thread"
            return False
        handler = signal.signal(signal.SIGPROF, self._sample)
        timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._previous = (handler, timer)
        self._started = time.perf_counter()
        return True

    def stop(self) -> None:
        """Restore the previous timer and handler."""
        if self.running:
            handler, timer = self._previous
            signal.setitimer(signal.ITIMER_PROF, *timer)
            signal.signal(signal.SIGPROF, handler or signal.SIG_DFL)
            self.wall_s += time.perf_counter() - self._started
            self._started = None

    def _sample(self, signum, frame) -> None:
        layer = None
        while frame is not None and layer is None:
            layer = layer_of(frame.f_globals.get("__name__"))
            frame = frame.f_back
        layer = layer or "other"
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def merge(self, counts: Dict[str, int]) -> None:
        """Add another process's counts (a sweep worker's)."""
        for layer, n in counts.items():
            self.counts[layer] = self.counts.get(layer, 0) + n

    def to_dict(self) -> dict:
        """:func:`summary` over the wall time sampled so far."""
        running = time.perf_counter() - self._started if self.running else 0.0
        return summary(self.counts, self.wall_s + running, self.note)
