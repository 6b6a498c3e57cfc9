"""Prefetcher names: one table from name to label and builder.

Every prefetcher name is a row of :data:`TABLE`: ``(name, label,
build(degree, scale))``.  ``scale`` is the machine's scale-down factor
(``MachineConfig.scaled``): metadata stores, MISB's on-chip budget and
the dynamic controller's candidates shrink with it, so scale 1 builds
the paper's full-size configurations.  :func:`make_prefetcher` builds at
scale 1; ``experiments.common.make_spec`` builds at the experiments'
:data:`SCALE` (or ``MULTI_SCALE`` for multi-core runs).

Two grammars extend the rows::

    "a+b"                             hybrid of a and b; "none" parts drop
    "triage@<bytes>[:repl[:tagbits]]" Triage-Static with an explicit store
                                      size, replacement (hawkeye, lru or
                                      reuse) and compressed-tag width

Names are read in exactly one place, :func:`parse`; :func:`build`,
:func:`is_registered`, :func:`label` and
:func:`repro.cache.keys.spec_fingerprint` all go through it, so a name
is valid everywhere or nowhere.

:func:`make_prefetcher` also accepts a
:class:`~repro.core.triage.TriageConfig` (including its
:class:`~repro.prefetchers.triangel.TriangelConfig` subclass), an
already-built :class:`~repro.prefetchers.base.BasePrefetcher`, or a
zero-argument callable returning one (used by multi-core runs to build a
fresh instance per core).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.prefetchers import (
    BasePrefetcher,
    BestOffsetPrefetcher,
    DominoPrefetcher,
    HybridPrefetcher,
    IsbPrefetcher,
    MisbPrefetcher,
    SmsPrefetcher,
    StmsPrefetcher,
    StridePrefetcher,
)
from repro.prefetchers.triangel import TriangelConfig, TriangelPrefetcher

KB = 1024
MB = 1024 * KB

#: The experiments' machine scale: :func:`triage_config` and
#: :func:`triangel_config` default to it, and ``experiments.common``
#: re-exports it.
SCALE = 4

#: Partition re-evaluation epoch, scaled from the paper's 50 K metadata
#: accesses to our ~SimPoint/100 trace lengths.
EPOCH_ACCESSES = 3_000

PrefetcherSpec = Union[
    None, str, TriageConfig, BasePrefetcher, Callable[[], Optional[BasePrefetcher]]
]

#: ``build(degree, scale)``: a fresh prefetcher, or None for no prefetching.
Builder = Callable[[int, int], Optional[BasePrefetcher]]


def capacities_for_scale(scale: int) -> tuple:
    """The paper's {0, 512 KB, 1 MB} store candidates at a given scale."""
    return (0, (512 * KB) // scale, (1 * MB) // scale)


def _wired(cls, capacity, dynamic, replacement, degree, epoch_accesses, scale, overrides):
    return cls(
        degree=degree,
        metadata_capacity=capacity,
        dynamic=dynamic,
        capacities=capacities_for_scale(scale),
        replacement=replacement,
        epoch_accesses=epoch_accesses,
        # Our traces start from a cold heap (the paper's SimPoints resume
        # mid-execution), so the controller holds its allocation through
        # the compulsory ramp, which warmup excludes from measurement.
        partition_warmup_epochs=8,
        **overrides,
    )


def triage_config(
    capacity: Optional[int] = (1 * MB) // SCALE,
    dynamic: bool = False,
    replacement: str = "hawkeye",
    degree: int = 1,
    epoch_accesses: int = EPOCH_ACCESSES,
    scale: int = SCALE,
    **overrides,
) -> TriageConfig:
    """A TriageConfig wired for a machine at the given scale."""
    return _wired(
        TriageConfig, capacity, dynamic, replacement, degree, epoch_accesses,
        scale, overrides,
    )


def triangel_config(
    capacity: Optional[int] = (1 * MB) // SCALE,
    dynamic: bool = False,
    replacement: str = "reuse",
    degree: int = 1,
    epoch_accesses: int = EPOCH_ACCESSES,
    scale: int = SCALE,
    **overrides,
) -> TriangelConfig:
    """A TriangelConfig wired for a machine at the given scale.

    Same scaling as :func:`triage_config`; only the defaults differ
    (reuse-aware replacement, lookahead 2, sampling on -- the family's
    own knobs come from :class:`TriangelConfig`).
    """
    return _wired(
        TriangelConfig, capacity, dynamic, replacement, degree, epoch_accesses,
        scale, overrides,
    )


def _family(cls, configure, store: Optional[int], fields) -> Builder:
    """Builder of a Triage-family row with a ``store``-byte (at scale 1)
    metadata store.  None is unbounded; a dynamic row's store is sized by
    its partition controller, so it keeps ``configure``'s default."""

    def build(degree: int, scale: int) -> BasePrefetcher:
        sized = {}
        if not fields.get("dynamic"):
            sized["capacity"] = None if store is None else store // scale
        return cls(configure(degree=degree, scale=scale, **sized, **fields))

    return build


def _triage(store: Optional[int] = 1 * MB, **fields) -> Builder:
    return _family(TriagePrefetcher, triage_config, store, fields)


def _triangel(store: Optional[int] = 1 * MB, **fields) -> Builder:
    return _family(TriangelPrefetcher, triangel_config, store, fields)


def _triage_utility(degree: int, scale: int) -> TriagePrefetcher:
    return TriagePrefetcher(
        triage_config(
            dynamic=True, degree=degree, scale=scale,
            partition_policy="utility", llc_data_bytes=(2 * MB) // scale,
        )
    )


class Row(NamedTuple):
    name: str
    label: str
    build: Builder


#: Every prefetcher name, its paper-facing label and its builder.
TABLE: Dict[str, Row] = {
    row.name: row
    for row in (
        Row("none", "NoL2PF", lambda degree, scale: None),
        Row("bo", "BO", lambda degree, scale: BestOffsetPrefetcher(degree=degree)),
        Row("sms", "SMS", lambda degree, scale: SmsPrefetcher(degree=degree)),
        Row("stride", "Stride", lambda degree, scale: StridePrefetcher(degree=degree)),
        Row("stms", "STMS", lambda degree, scale: StmsPrefetcher(degree=degree)),
        Row("domino", "Domino", lambda degree, scale: DominoPrefetcher(degree=degree)),
        Row("isb", "Ideal-PC-Temporal",
            lambda degree, scale: IsbPrefetcher(degree=degree)),
        Row("misb", "MISB_48KB", lambda degree, scale: MisbPrefetcher(
            degree=degree, onchip_bytes=(48 * KB) // scale)),
        Row("triage", "Triage_1MB", _triage()),
        Row("triage_1mb", "Triage_1MB", _triage()),
        Row("triage_512kb", "Triage_512KB", _triage(512 * KB)),
        Row("triage_dynamic", "Triage_Dynamic", _triage(dynamic=True)),
        Row("triage_utility", "Triage_Utility", _triage_utility),
        Row("triage_lru", "Triage_LRU", _triage(replacement="lru")),
        Row("triage_ideal", "Triage_Unbounded", _triage(None)),
        Row("triage_noconf", "Triage_NoConf", _triage(use_confidence=False)),
        Row("triage_global", "Triage_Global", _triage(pc_localized=False)),
        Row("triangel", "Triangel", _triangel()),
        Row("triangel_1mb", "Triangel_1MB", _triangel()),
        Row("triangel_512kb", "Triangel_512KB", _triangel(512 * KB)),
        Row("triangel_dynamic", "Triangel_Dynamic", _triangel(dynamic=True)),
        # Degenerate config: sampling off, lookahead 1, Hawkeye
        # replacement -- issues Triage's exact stream (differential anchor).
        Row("triangel_nosample", "Triangel_NoSample", _triangel(
            sampling=False, lookahead=1, replacement="hawkeye")),
        Row("triangel_nonuniform", "Triangel_NonUniform",
            _triangel(index_mode="nonuniform")),
    )
}

#: Paper legends of hybrids that are not their parts' labels joined by "+".
HYBRID_LABELS = {
    "bo+triage_dynamic": "BO+Triage-Dyn",
    "bo+triage_1mb": "BO+Triage-Static",
}


def _sized_triage(name: str) -> Row:
    """The row of ``triage@<bytes>[:repl[:tagbits]]`` (ValueError if malformed)."""
    fields = name.split("@", 1)[1].split(":")
    if len(fields) > 3:
        raise ValueError(f"too many fields in {name!r}")
    capacity = int(fields[0])
    replacement = fields[1] if len(fields) > 1 else "hawkeye"
    tag_bits = int(fields[2]) if len(fields) > 2 else 10
    if capacity < 0 or tag_bits < 1 or replacement not in ("hawkeye", "lru", "reuse"):
        raise ValueError(f"bad metadata store in {name!r}")
    # The store size is in absolute bytes, so the row ignores ``scale``.
    return Row(name, name, lambda degree, scale: TriagePrefetcher(
        triage_config(
            capacity=capacity, replacement=replacement, degree=degree,
            tag_bits=tag_bits,
        )
    ))


def _row(name: str) -> Row:
    if name.startswith("triage@"):
        return _sized_triage(name)
    try:
        return TABLE[name]
    except KeyError:
        raise ValueError(f"unknown prefetcher {name!r}") from None


def parse(name: str) -> List[Row]:
    """The rows ``name`` is made of, after normalising it.

    A plain name is one row (``""`` is ``"none"``); an ``a+b`` hybrid is
    one row per part other than ``none``.  Raises :class:`ValueError`
    for anything no row builds.
    """
    if not isinstance(name, str):
        raise ValueError(f"prefetcher name must be a string, not {name!r}")
    name = name.lower().strip()
    if "+" not in name:
        return [_row(name or "none")]
    rows = [_row(p.strip()) for p in name.split("+") if p.strip()]
    rows = [row for row in rows if row.name != "none"]
    if not rows:
        raise ValueError(f"hybrid {name!r} has no prefetcher in it")
    return rows


def is_registered(name) -> bool:
    """Whether :func:`build` can build ``name``."""
    try:
        parse(name)
    except ValueError:
        return False
    return True


def build(name: str, degree: int, scale: int) -> Optional[BasePrefetcher]:
    """A fresh prefetcher for ``name`` on a machine at ``scale``."""
    rows = parse(name)
    if "+" not in name:
        return rows[0].build(degree, scale)
    return HybridPrefetcher([row.build(degree, scale) for row in rows])


def label(name: str) -> str:
    """The paper-facing label of ``name`` (the name itself if unknown)."""
    try:
        rows = parse(name)
    except ValueError:
        return name
    if "+" not in name:
        return rows[0].label
    joined = "+".join(row.name for row in rows)
    return HYBRID_LABELS.get(joined, "+".join(row.label for row in rows))


def make_prefetcher(
    spec: PrefetcherSpec, degree: int = 1
) -> Optional[BasePrefetcher]:
    """Build the prefetcher described by ``spec`` (None = no prefetching).

    Names build at scale 1: the paper's full-size configurations.
    """
    if spec is None:
        return None
    if isinstance(spec, BasePrefetcher):
        return spec
    # TriangelConfig subclasses TriageConfig: check the subclass first so
    # a Triangel spec builds a Triangel, not its parent.
    if isinstance(spec, TriangelConfig):
        return TriangelPrefetcher(spec)
    if isinstance(spec, TriageConfig):
        return TriagePrefetcher(spec)
    if callable(spec) and not isinstance(spec, str):
        built = spec()
        if callable(built) and not isinstance(built, (str, BasePrefetcher)):
            raise TypeError("prefetcher factory returned another callable")
        if built is not None and not isinstance(
            built, (str, TriageConfig, BasePrefetcher)
        ):
            raise TypeError(
                f"prefetcher factory returned {type(built).__name__}, "
                "expected a prefetcher spec or None"
            )
        return make_prefetcher(built, degree)
    if not isinstance(spec, str):
        raise TypeError(f"unsupported prefetcher spec {spec!r}")
    return build(spec, degree, 1)
