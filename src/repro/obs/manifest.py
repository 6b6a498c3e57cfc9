"""Run manifests: the provenance record of one simulation.

Every simulation engine builds a :class:`RunManifest` for every run --
observability on or off -- capturing what would be needed to reproduce
or audit the run: the machine config as a dict, workload names and
seeds, trace length and warmup, instruction/cycle totals, wall time and
the package version.  With observability on, the session's metric dump
rides along.

Manifests are attached to ``SimulationResult.manifest`` /
``MultiCoreResult.manifest`` and also appended to a small process-wide
ring (:data:`RUN_LOG`) that the benchmark harness drains to persist
provenance next to ``results/<bench>.txt``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Manifest format version, bumped on breaking schema changes.
SCHEMA_VERSION = 1


def _package_version() -> str:
    # Lazy: repro/__init__ is mid-import when this module first loads.
    module = sys.modules.get("repro")
    return getattr(module, "__version__", "unknown")


#: Cached fingerprint: the answer cannot change within one process, and
#: caching makes the stamp deterministic even if the platform module
#: were to wobble (the bench tests pin this down).
_FINGERPRINT: Optional[Dict[str, object]] = None


def machine_fingerprint() -> Dict[str, object]:
    """Identity of the machine/interpreter producing a run.

    Stamped into every run manifest (``host``) and every benchmark
    trajectory record (:mod:`repro.obs.bench`), so a KPI or timing delta
    can always be traced to a hardware or interpreter change.  Stable
    across calls within one process.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import os
        import platform

        _FINGERPRINT = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
            "package_version": _package_version(),
        }
    return dict(_FINGERPRINT)


@dataclass
class RunManifest:
    """Everything needed to identify and re-run one simulation."""

    kind: str  # "single" | "multi" | "queued"
    workloads: List[str]
    prefetcher: str
    config: Dict[str, object]
    seeds: List[Optional[int]] = field(default_factory=list)
    trace_length: int = 0
    warmup: int = 0
    instructions: float = 0.0
    cycles: float = 0.0
    wall_time_s: float = 0.0
    package_version: str = ""
    schema: int = SCHEMA_VERSION
    created_unix: float = 0.0
    #: Machine/interpreter fingerprint (see :func:`machine_fingerprint`).
    host: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        unknown = {k: v for k, v in data.items() if k not in known}
        manifest = cls(**kwargs)
        if unknown:  # forward compatibility: newer writers, older readers
            manifest.extra.update(unknown)
        return manifest

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def read(cls, path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_manifest(
    kind: str,
    workloads: List[str],
    prefetcher: str,
    config,
    seeds: List[Optional[int]],
    trace_length: int,
    warmup: int,
    instructions: float,
    cycles: float,
    wall_time_s: float,
    extra: Optional[Dict[str, object]] = None,
) -> RunManifest:
    """Assemble a manifest from a finished run and log it process-wide."""
    manifest = RunManifest(
        kind=kind,
        workloads=list(workloads),
        prefetcher=prefetcher,
        config=dataclasses.asdict(config) if dataclasses.is_dataclass(config) else dict(config),
        seeds=list(seeds),
        trace_length=trace_length,
        warmup=warmup,
        instructions=instructions,
        cycles=cycles,
        wall_time_s=wall_time_s,
        package_version=_package_version(),
        created_unix=time.time(),
        host=machine_fingerprint(),
        extra=dict(extra or {}),
    )
    RUN_LOG.append(manifest)
    return manifest


def log_cached_manifest(result) -> None:
    """File a cache-served result's producing manifest with this process.

    Simulation registers manifests through the run observer; a result
    served from the persistent cache skips simulation entirely, so the cache-hit paths call this to keep both
    the process-wide :data:`RUN_LOG` and any active obs session carrying
    the producing run's provenance.  Without it a fully cache-served
    sweep flushes an empty ``manifests.jsonl`` and its report has no
    runs to describe.
    """
    manifest = getattr(result, "manifest", None)
    if manifest is None:
        return
    RUN_LOG.append(manifest)
    from repro import obs  # lazy: repro.obs imports this module

    session = obs.get_session()
    if session is not None:
        session.manifests.append(manifest)


#: Always-on bounded log of recent manifests (newest last).  Bounded so
#: a long-lived process (the full figure suite) cannot grow it without
#: limit; 512 comfortably covers any single experiment's run count.
RUN_LOG: deque = deque(maxlen=512)


def drain_run_log() -> List[RunManifest]:
    """Remove and return every logged manifest (oldest first)."""
    drained = list(RUN_LOG)
    RUN_LOG.clear()
    return drained
