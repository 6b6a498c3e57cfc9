"""Dynamic LLC partitioning between data and Triage metadata.

Paper Section 3: "we maintain two copies of OPTgen (each copy consumes
1KB space), and we use these copies as sandboxes to evaluate the optimal
hit rate at different metadata store sizes.  If Triage finds that an
increase in the metadata store size increases optimal metadata hit rate
by more than 5%, it increases the number of ways that are allocated to
metadata entries.  Similarly, if Triage finds that a reduction of the
metadata store size decreases the metadata hit rate by less than 5%, it
reduces the number of ways ... Triage chooses between three possible
allocations (0 MB, 512 KB and 1 MB) ... The partition sizes are
re-evaluated periodically" (every 50,000 metadata accesses).

The two sandboxes model the two non-zero candidate sizes.  Like the
hardware's 1 KB OPTgen copies, they work on a *sampled* slice of the
metadata access stream (1 in 2**sample_shift trigger addresses, selected
by hash) with the modeled capacity scaled by the same factor, which keeps
them cheap while preserving the hit-rate estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.metadata_store import ENTRY_BYTES
from repro.replacement.optgen import OptGen


@dataclass
class PartitionDecision:
    """Outcome of one epoch's re-evaluation."""

    capacity_bytes: int
    changed: bool
    small_hit_rate: float
    large_hit_rate: float


class PartitionController:
    """Chooses the metadata store size among three candidate allocations."""

    def __init__(
        self,
        capacities: Sequence[int] = (0, 512 * 1024, 1024 * 1024),
        epoch_accesses: int = 50_000,
        threshold: float = 0.05,
        sample_shift: int = 4,
        start_index: int = 1,
        history_mult: int = 8,
        warmup_epochs: int = 1,
    ):
        if len(capacities) != 3 or sorted(capacities) != list(capacities):
            raise ValueError("capacities must be three ascending sizes")
        if capacities[0] != 0:
            raise ValueError("the smallest allocation must be 0 (no metadata)")
        self.capacities: Tuple[int, int, int] = tuple(capacities)
        self.epoch_accesses = epoch_accesses
        self.threshold = threshold
        self.sample_shift = sample_shift
        self._sample_mask = (1 << sample_shift) - 1
        self.index = start_index
        small_cap = max(1, (capacities[1] // ENTRY_BYTES) >> sample_shift)
        large_cap = max(1, (capacities[2] // ENTRY_BYTES) >> sample_shift)
        self.sandbox_small = OptGen(small_cap, history_mult)
        self.sandbox_large = OptGen(large_cap, history_mult)
        self._accesses_this_epoch = 0
        self._snap_small = (0, 0)  # (hits, accesses) at epoch start
        self._snap_large = (0, 0)
        #: Epochs whose (compulsory-dominated) rates should not move the
        #: partition; the sandboxes still train during them.
        self.warmup_epochs = warmup_epochs
        self._epochs_seen = 0
        #: Exponential smoothing over epoch hit rates: short traces make a
        #: single epoch's OPT rate noisy (the paper's 50 M-instruction
        #: SimPoints do not have this problem).
        self.smoothing = 0.5
        self._ema_small: Optional[float] = None
        self._ema_large: Optional[float] = None
        self._low_epochs = 0  # consecutive epochs arguing for allocation 0
        self.decisions = []  # history of PartitionDecision, for Figure 19

    @property
    def capacity_bytes(self) -> int:
        """Currently chosen metadata allocation."""
        return self.capacities[self.index]

    def _sampled(self, trigger: int) -> bool:
        # Knuth multiplicative hash keeps sampling independent of the
        # metadata store's own set-index bits.
        return ((trigger * 2654435761) >> 12) & self._sample_mask == 0

    def note_access(self, trigger: int) -> Optional[PartitionDecision]:
        """Record one metadata access; returns a decision at epoch ends."""
        self._accesses_this_epoch += 1
        if self._sampled(trigger):
            self.sandbox_small.access(trigger)
            self.sandbox_large.access(trigger)
        if self._accesses_this_epoch < self.epoch_accesses:
            return None
        return self._decide()

    def _epoch_rate(self, sandbox: OptGen, snap: Tuple[int, int]) -> float:
        hits = sandbox.hits - snap[0]
        accesses = sandbox.accesses - snap[1]
        return hits / accesses if accesses else 0.0

    def _decide(self) -> PartitionDecision:
        epoch_small = self._epoch_rate(self.sandbox_small, self._snap_small)
        epoch_large = self._epoch_rate(self.sandbox_large, self._snap_large)
        if self._ema_small is None:
            self._ema_small, self._ema_large = epoch_small, epoch_large
        else:
            a = self.smoothing
            self._ema_small = a * epoch_small + (1 - a) * self._ema_small
            self._ema_large = a * epoch_large + (1 - a) * self._ema_large
        r_small, r_large = self._ema_small, self._ema_large

        old_index = self.index
        self._epochs_seen += 1
        wants_zero = r_small < self.threshold
        self._low_epochs = self._low_epochs + 1 if wants_zero else 0
        if self._epochs_seen <= self.warmup_epochs:
            pass  # hold the allocation while the sandboxes warm up
        elif self.index == 0:
            # Growing to 512 KB is worth it if OPT would hit >threshold
            # of metadata accesses at that size.
            if r_small > self.threshold:
                self.index = 1
        elif self.index == 1:
            if r_large - r_small > self.threshold:
                self.index = 2
            elif self._low_epochs >= 2:
                # Shrinking to 0 flushes learned metadata, so require two
                # consecutive low-value epochs before paying that price.
                self.index = 0
        else:  # index == 2
            if r_large - r_small < self.threshold:
                self.index = 1
        self._accesses_this_epoch = 0
        self._snap_small = (self.sandbox_small.hits, self.sandbox_small.accesses)
        self._snap_large = (self.sandbox_large.hits, self.sandbox_large.accesses)
        decision = PartitionDecision(
            capacity_bytes=self.capacities[self.index],
            changed=self.index != old_index,
            small_hit_rate=r_small,
            large_hit_rate=r_large,
        )
        self.decisions.append(decision)
        return decision
