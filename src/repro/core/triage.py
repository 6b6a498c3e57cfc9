"""The Triage prefetcher (paper Section 3).

Triage is a PC-localized temporal prefetcher whose metadata lives
entirely on chip, in a way-partitioned slice of the LLC:

* the :class:`~repro.core.training_unit.TrainingUnit` pairs consecutive
  accesses by the same PC into correlations;
* the :class:`~repro.core.metadata_store.MetadataStore` holds those
  correlations in compressed 4-byte entries, managed by a modified
  Hawkeye policy that is trained positively only by non-redundant
  prefetches;
* the :class:`~repro.core.partition.PartitionController` (dynamic
  configurations only) re-evaluates the LLC split every 50 K metadata
  accesses using two OPTgen sandboxes.

Degree-``d`` prefetching walks the table ``d`` times (each hop is another
LLC metadata access, which is why Triage's energy doubles by degree 8 --
paper Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.metadata_store import MetadataStore
from repro.core.partition import PartitionController
from repro.core.training_unit import TrainingUnit
from repro.core.utility_partition import UtilityPartitionController
from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate

KB = 1024
MB = 1024 * KB


@dataclass
class TriageConfig:
    """Configuration for one Triage instance.

    The paper's three headline configurations map to:

    * ``Triage_512KB``  -- ``TriageConfig(metadata_capacity=512*KB)``
    * ``Triage_1MB``    -- ``TriageConfig(metadata_capacity=1*MB)``
    * ``Triage_Dynamic``-- ``TriageConfig(dynamic=True)``

    ``metadata_capacity=None`` gives the idealized unbounded-metadata
    prefetcher used as the 100% reference in Figure 9 (tag compression is
    disabled there, since an infinite store implies no 4-byte packing).
    """

    degree: int = 1
    metadata_capacity: Optional[int] = 1 * MB
    dynamic: bool = False
    capacities: Tuple[int, int, int] = (0, 512 * KB, 1 * MB)
    replacement: str = "hawkeye"  # or "lru" (Figure 9 ablation)
    epoch_accesses: int = 50_000
    #: Which of ``capacities`` the dynamic controller starts at.  The
    #: default is the largest: metadata-hungry phases keep their store
    #: from the first epoch, and workloads with no metadata reuse shrink
    #: away within a couple of epochs (typically still inside warmup).
    partition_start: int = 2
    #: Epochs during which the controller trains its sandboxes but holds
    #: the allocation (cold caches make early OPT rates meaningless).
    partition_warmup_epochs: int = 1
    #: "optgen" is the paper's metadata-only scheme; "utility" is the
    #: future-work extension that also models the displaced data's value
    #: (see :mod:`repro.core.utility_partition`).
    partition_policy: str = "optgen"
    #: LLC data capacity the utility controller assumes (bytes).
    llc_data_bytes: int = 2 * MB
    use_compressed_tags: bool = True
    tag_bits: int = 10
    #: Metadata index geometry: "uniform" is the paper's single
    #: set-associative array; "nonuniform" adds a Trimma-style near
    #: index level in front of it (arXiv 2402.16343 ablation -- see
    #: :class:`repro.core.metadata_store.MetadataStore`).
    index_mode: str = "uniform"
    training_pcs: int = 1024
    threshold: float = 0.05
    pc_localized: bool = True  # ablation: False degrades to a global stream
    use_confidence: bool = True  # ablation: False always overwrites
    track_reuse: bool = False  # Figure 1 instrumentation


class TriagePrefetcher(BasePrefetcher):
    """Temporal prefetching without the off-chip metadata."""

    name = "triage"

    def __init__(
        self,
        config: Optional[TriageConfig] = None,
        on_partition_change: Optional[Callable[[int], None]] = None,
    ):
        config = config or TriageConfig()
        super().__init__(config.degree)
        self.config = config
        self.training_unit = TrainingUnit(config.training_pcs)
        if config.dynamic:
            if config.partition_policy == "utility":
                self.controller = UtilityPartitionController(
                    capacities=config.capacities,
                    llc_data_bytes=config.llc_data_bytes,
                    epoch_accesses=config.epoch_accesses,
                    start_index=config.partition_start,
                    warmup_epochs=config.partition_warmup_epochs,
                )
            elif config.partition_policy == "optgen":
                self.controller = PartitionController(
                    capacities=config.capacities,
                    epoch_accesses=config.epoch_accesses,
                    threshold=config.threshold,
                    start_index=config.partition_start,
                    warmup_epochs=config.partition_warmup_epochs,
                )
            else:
                raise ValueError(
                    f"unknown partition policy {config.partition_policy!r}"
                )
            initial_capacity: Optional[int] = self.controller.capacity_bytes
        else:
            self.controller = None
            initial_capacity = config.metadata_capacity
        unbounded = initial_capacity is None
        self.store = MetadataStore(
            capacity_bytes=initial_capacity,
            policy=config.replacement,
            use_compressed_tags=config.use_compressed_tags and not unbounded,
            tag_bits=config.tag_bits,
            track_reuse=config.track_reuse,
            index_mode=config.index_mode,
        )
        #: Called with the new metadata capacity (bytes) whenever the
        #: dynamic controller re-partitions; the simulation engine uses it
        #: to resize the LLC's data ways.
        self.on_partition_change = on_partition_change
        self._pending_capacity: Optional[int] = None
        #: Optional observability sink (``.emit(category, severity, **f)``),
        #: attached by the simulation engine when observability is on; it
        #: receives one ``partition.apply`` event per resize.
        self.events = None
        # Resolved once, since ``observe`` runs on every L2 miss: PC
        # localisation, the controller when it also watches the data side,
        # and the store's training call (the ablation's always-overwrite
        # when confidence is off).
        self._pc_localized = config.pc_localized
        self._utility = (
            self.controller
            if isinstance(self.controller, UtilityPartitionController)
            else None
        )
        self._learn = (
            self.store.update if config.use_confidence else self.store.overwrite
        )

    # -- prefetcher interface -------------------------------------------------

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        stream_pc = pc if self._pc_localized else 0

        # The utility controller also watches the data side: this very
        # event *is* an LLC data access (the L2 miss stream).  Its
        # usefulness weight tracks measured pair stability, so metadata
        # reuse without repeatable successors (the bzip2 case) earns no
        # LLC ways.
        utility = self._utility
        if utility is not None:
            utility.note_data_access(line)
            utility.usefulness = self.store.pair_stability()

        # Prediction: walk the successor chain up to `degree` hops.  Each
        # hop is a metadata lookup (an LLC access in hardware).
        store = self.store
        controller = self.controller
        candidates: List[PrefetchCandidate] = []
        trigger = line
        for _ in range(self.degree):
            if controller is not None:
                self._note_controller_access(trigger)
            successor = store.lookup(trigger, stream_pc)
            if successor is None:
                break
            candidates.append(PrefetchCandidate(successor, (trigger, stream_pc), self))
            trigger = successor

        # Training: correlate with this PC's previous access.
        prev = self.training_unit.observe(stream_pc, line)
        if prev is not None and prev != line:
            self._learn(prev, line, stream_pc)

        if self._pending_capacity is not None:
            self._apply_pending_partition()
        return candidates

    def feedback(self, candidate: PrefetchCandidate, source: str) -> None:
        # Only a non-redundant prefetch trains the store's sampler: a
        # redundant one was already cached, so its metadata access earned
        # nothing (paper Section 3).
        if source != "redundant":
            self.store.observe_access(*candidate.context)

    @property
    def wants_feedback(self) -> bool:
        """Feedback only feeds the store's Hawkeye sampler."""
        return self.store.policy_name == "hawkeye"

    # -- dynamic partitioning --------------------------------------------------

    def _note_controller_access(self, trigger: int) -> None:
        """Count one metadata access toward the controller's epoch.

        Callers test for a controller first (static stores have none).
        """
        decision = self.controller.note_access(trigger)
        if decision is not None and decision.changed:
            self._pending_capacity = decision.capacity_bytes

    def _apply_pending_partition(self) -> None:
        """Resize the store to the pending capacity (callers test that
        one is pending) and tell the engine to move the LLC ways."""
        pending = self._pending_capacity
        self._pending_capacity = None
        old_bytes = self.store.capacity_bytes
        self.store.resize(pending)
        if self.on_partition_change is not None:
            self.on_partition_change(pending)
        if self.events is not None:
            self.events.emit(
                "partition.apply",
                "info",
                capacity_bytes=pending,
                old_bytes=old_bytes,
                survivors=self.store.occupancy(),
            )

    @property
    def metadata_capacity_bytes(self) -> int:
        """Current metadata allocation (0 for an inactive store)."""
        if self.store.unbounded:
            raise ValueError("unbounded store has no capacity")
        return self.store.capacity_bytes
