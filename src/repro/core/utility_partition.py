"""Utility-aware LLC partitioning (the paper's future-work extension).

Figure 8's discussion notes that Triage's OPTgen-only scheme can hurt
workloads like bzip2, because it measures *metadata* reuse without
asking what the displaced *data* would have contributed: "more
sophisticated partitioning schemes that account for cache utility more
accurately could help improve Triage in these scenarios."

This controller implements that scheme.  Alongside the paper's two
metadata sandboxes it keeps three *data-side* OPTgen sandboxes modeling
the LLC's hit rate at full capacity and at each reduced (partitioned)
capacity, fed by the same L2-miss stream the metadata sees.  Each epoch
it picks the allocation maximizing

    expected_useful_prefetches(alloc) - data_hits_lost(alloc)

i.e. DRAM accesses saved by prefetching minus DRAM accesses created by
shrinking the data array -- both measured by OPT, both in the same
units.  ``usefulness`` discounts metadata hits that would not become
useful prefetches (the owner can wire it to Triage's measured accuracy).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.metadata_store import ENTRY_BYTES
from repro.core.partition import PartitionDecision
from repro.memory.address import LINE_SIZE
from repro.replacement.optgen import OptGen


class UtilityPartitionController:
    """Pick the metadata allocation by net DRAM-accesses saved."""

    def __init__(
        self,
        capacities: Sequence[int] = (0, 512 * 1024, 1024 * 1024),
        llc_data_bytes: int = 2 * 1024 * 1024,
        epoch_accesses: int = 50_000,
        sample_shift: int = 4,
        start_index: int = 1,
        history_mult: int = 8,
        warmup_epochs: int = 1,
        usefulness: float = 0.8,
    ):
        if len(capacities) != 3 or sorted(capacities) != list(capacities):
            raise ValueError("capacities must be three ascending sizes")
        if capacities[-1] >= llc_data_bytes:
            raise ValueError("largest metadata allocation must leave data room")
        self.capacities: Tuple[int, int, int] = tuple(capacities)
        self.epoch_accesses = epoch_accesses
        self.sample_shift = sample_shift
        self._sample_mask = (1 << sample_shift) - 1
        self.index = start_index
        self.warmup_epochs = warmup_epochs
        self.usefulness = usefulness

        def scaled_entries(nbytes: int) -> int:
            return max(1, (nbytes // ENTRY_BYTES) >> sample_shift)

        def scaled_lines(nbytes: int) -> int:
            return max(1, (nbytes // LINE_SIZE) >> sample_shift)

        self.meta_sandboxes = [
            None,  # capacity 0 has hit rate 0 by definition
            OptGen(scaled_entries(capacities[1]), history_mult),
            OptGen(scaled_entries(capacities[2]), history_mult),
        ]
        self.data_sandboxes = [
            OptGen(scaled_lines(llc_data_bytes - cap), history_mult)
            for cap in self.capacities
        ]
        self._epochs_seen = 0
        self._accesses_this_epoch = 0
        self._meta_snaps = [0, 0, 0]
        self._data_snaps = [0, 0, 0]
        self.decisions = []

    @property
    def capacity_bytes(self) -> int:
        return self.capacities[self.index]

    def _sampled(self, key: int) -> bool:
        return ((key * 2654435761) >> 12) & self._sample_mask == 0

    def note_data_access(self, line: int) -> None:
        """Feed one LLC (L2-miss) data access to the data sandboxes."""
        if self._sampled(line):
            for sandbox in self.data_sandboxes:
                sandbox.access(line)

    def note_access(self, trigger: int) -> Optional[PartitionDecision]:
        """Feed one metadata access; returns a decision at epoch ends."""
        self._accesses_this_epoch += 1
        if self._sampled(trigger):
            for sandbox in self.meta_sandboxes[1:]:
                sandbox.access(trigger)
        if self._accesses_this_epoch < self.epoch_accesses:
            return None
        return self._decide()

    def _epoch_hits(self, sandboxes, snaps) -> list:
        hits = []
        for i, sandbox in enumerate(sandboxes):
            if sandbox is None:
                hits.append(0)
                continue
            hits.append(sandbox.hits - snaps[i])
        return hits

    def _decide(self) -> PartitionDecision:
        meta_hits = self._epoch_hits(self.meta_sandboxes, self._meta_snaps)
        data_hits = self._epoch_hits(self.data_sandboxes, self._data_snaps)
        old_index = self.index
        self._epochs_seen += 1
        if self._epochs_seen > self.warmup_epochs:
            # Net benefit per allocation, in sampled DRAM accesses saved:
            # prefetch hits we would gain minus data hits we would lose.
            full_data = data_hits[0]
            net = [
                self.usefulness * meta_hits[i] - (full_data - data_hits[i])
                for i in range(3)
            ]
            self.index = max(range(3), key=lambda i: net[i])
        self._accesses_this_epoch = 0
        self._meta_snaps = [
            s.hits if s is not None else 0 for s in self.meta_sandboxes
        ]
        self._data_snaps = [s.hits for s in self.data_sandboxes]
        meta_accesses = self.meta_sandboxes[1].accesses or 1
        decision = PartitionDecision(
            capacity_bytes=self.capacities[self.index],
            changed=self.index != old_index,
            small_hit_rate=meta_hits[1] / max(1, meta_accesses),
            large_hit_rate=meta_hits[2] / max(1, meta_accesses),
        )
        self.decisions.append(decision)
        return decision
