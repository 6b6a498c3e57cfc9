"""Stable content-addressed cache keys.

A cache key is the SHA-256 of a *canonical JSON* rendering of everything
that determines a simulation's output: the workload spec (suite, name,
length, seed, scale), the prefetcher configuration, the
:class:`~repro.sim.config.MachineConfig`, run parameters (degree,
warmup, metadata charging), plus the package version and the key-schema
version.  Any field perturbation therefore produces a different key, and
bumping :data:`KEY_SCHEMA_VERSION` or the package version invalidates
every existing entry by construction (old entries simply stop being
addressed; ``python -m repro cache clear`` reclaims the space).

A prefetcher name means the same thing everywhere (one row of
:data:`repro.sim.factory.TABLE`), but call sites build it at different
machine scales: ``sim.factory.make_prefetcher`` (sweeps) at scale 1, the
paper's full-size configurations, and ``experiments.common.make_spec``
at the experiments' ``SCALE``.  Keys are namespaced (``"sweep"`` vs
``"experiments.run_single"``) so the namespaces separate scales, not
meanings; a shared key would serve one scale's result to the other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

#: Bumped on any change to how keys or cached payloads are laid out, or
#: to what a fingerprinted name builds (2: the dynamic Triage/Triangel
#: names built at scale 1 switched to the experiments' controller wiring).
KEY_SCHEMA_VERSION = 2


class UncacheableSpec(TypeError):
    """Raised for prefetcher specs with no stable fingerprint.

    Already-built prefetcher instances carry mutable training state and
    zero-argument factories close over arbitrary objects; neither can be
    hashed into a key that identifies the simulation's output, so runs
    using them bypass the cache (and parallel fan-out) entirely.
    """


def _package_version() -> str:
    import repro

    return getattr(repro, "__version__", "unknown")


def canonicalize(obj):
    """Recursively convert ``obj`` into canonical-JSON-friendly values.

    Dataclasses become ``{"__dataclass__": name, ...fields}``, tuples
    become lists, paths become strings.  Unsupported types raise
    :class:`UncacheableSpec` rather than falling back to ``repr`` --
    a key that depends on object identity would never hit.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        fields["__dataclass__"] = type(obj).__name__
        return fields
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, Path):
        return str(obj)
    raise UncacheableSpec(f"cannot build a stable cache key from {type(obj).__name__}")


def stable_hash(payload) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``payload``."""
    rendered = json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def spec_fingerprint(spec) -> Dict[str, object]:
    """A canonical dict identifying a prefetcher spec, for key building.

    Accepts the cache-friendly subset of
    :data:`~repro.sim.factory.PrefetcherSpec`: ``None``, a *registered*
    name string, or a ``TriageConfig`` (including subclasses such as
    ``TriangelConfig`` -- :func:`canonicalize` folds the concrete class
    name into the fingerprint, so a Triangel config never collides with
    the Triage config sharing its fields).

    Name strings are validated with ``sim.factory.is_registered``, the
    same parser every builder uses: an unknown name raises
    :class:`UncacheableSpec` instead of silently hashing -- a typo like
    ``"traige_1mb"`` would otherwise mint its own cache namespace and
    every run under it would miss forever while looking healthy.
    Instances and factories also raise :class:`UncacheableSpec`.
    """
    from repro.core.triage import TriageConfig
    from repro.sim import factory

    if spec is None:
        fingerprint: Dict[str, object] = {"kind": "none"}
    elif isinstance(spec, str):
        if not factory.is_registered(spec):
            raise UncacheableSpec(
                f"unknown prefetcher name {spec!r}: sim.factory cannot "
                "build it (refusing to hash a name no builder can construct)"
            )
        fingerprint = {"kind": "name", "name": spec.lower().strip()}
    elif isinstance(spec, TriageConfig):
        fingerprint = {"kind": "triage_config", "config": canonicalize(spec)}
    else:
        raise UncacheableSpec(
            f"prefetcher spec of type {type(spec).__name__} has no stable "
            "fingerprint"
        )
    return fingerprint


def run_key(
    namespace: str,
    workload: Dict[str, object],
    prefetcher: Dict[str, object],
    machine,
    degree: int = 1,
    warmup: int = 0,
    charge_metadata_to_llc: bool = True,
    extra: Optional[Dict[str, object]] = None,
) -> str:
    """Key for one simulation result.

    ``workload`` is a dict like ``{"suite": "spec", "bench": "mcf",
    "n_accesses": 60000, "seed": 1, "scale": 4}``; ``prefetcher`` is a
    :func:`spec_fingerprint`; ``machine`` a :class:`MachineConfig`.
    """
    return stable_hash(
        {
            "schema": KEY_SCHEMA_VERSION,
            "package_version": _package_version(),
            "kind": "run",
            "namespace": namespace,
            "workload": workload,
            "prefetcher": prefetcher,
            "machine": machine,
            "degree": degree,
            "warmup": warmup,
            "charge_metadata_to_llc": charge_metadata_to_llc,
            "extra": extra or {},
        }
    )


def generic_key(namespace: str, payload) -> str:
    """Key for anything else (e.g. multi-core mix runs).

    ``payload`` must canonicalize (:func:`canonicalize`); schema and
    package version are folded in like every other key kind.
    """
    return stable_hash(
        {
            "schema": KEY_SCHEMA_VERSION,
            "package_version": _package_version(),
            "kind": "generic",
            "namespace": namespace,
            "payload": payload,
        }
    )


def trace_key(
    suite: str,
    bench: str,
    n_accesses: int,
    seed: int,
    scale,
    extra: Optional[Dict[str, object]] = None,
) -> str:
    """Key for one generated workload trace."""
    return stable_hash(
        {
            "schema": KEY_SCHEMA_VERSION,
            "package_version": _package_version(),
            "kind": "trace",
            "suite": suite,
            "bench": bench,
            "n_accesses": n_accesses,
            "seed": seed,
            "scale": scale,
            "extra": extra or {},
        }
    )
