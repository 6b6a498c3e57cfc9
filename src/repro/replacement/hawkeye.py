"""The Hawkeye replacement policy (Jain & Lin, ISCA 2016).

Hawkeye trains a PC-indexed predictor from OPTgen's reconstruction of the
optimal policy on a few sampled sets: loads whose lines OPT would have
kept are *cache-friendly*, others *cache-averse*.  Friendly lines insert
with the nearest re-reference prediction value (RRPV 0), averse lines with
the most distant (RRPV 7), and eviction prefers averse lines.

Triage reuses this policy for its on-chip metadata store (paper Section
3): the "addresses" become metadata-table keys and the "PC" is the load PC
that triggered the metadata access, with positive training gated by the
prefetch-usefulness filter that lives in :mod:`repro.core.triage`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.replacement.base import ReplacementPolicy
from repro.replacement.optgen import OptGen

MAX_RRPV = 7
#: Friendly-insert aging as a byte map: every RRPV below ``MAX_RRPV - 1``
#: moves one step toward eviction, the two highest stay put.
_AGE = bytes(r + 1 if r < MAX_RRPV - 1 else r for r in range(256))


class HawkeyePredictor:
    """PC-indexed table of 3-bit saturating counters.

    Counters start weakly friendly (4 of 0..7); the high bit is the
    prediction.  ``table_bits`` sets the number of entries (2**bits).
    """

    COUNTER_MAX = 7
    THRESHOLD = 4

    def __init__(self, table_bits: int = 13):
        self.mask = (1 << table_bits) - 1
        self._counters: Dict[int, int] = {}
        #: Trainings that moved a counter across the threshold, flipping
        #: its PC between cache-friendly and cache-averse.
        self.flips = 0

    def _index(self, pc: int) -> int:
        return (pc ^ (pc >> 13) ^ (pc >> 26)) & self.mask

    def train(self, pc: int, opt_hit: bool) -> None:
        """Nudge the counter for ``pc`` toward friendly (hit) or averse."""
        idx = self._index(pc)
        value = self._counters.get(idx, self.THRESHOLD)
        was_friendly = value >= self.THRESHOLD
        if opt_hit:
            value = min(self.COUNTER_MAX, value + 1)
        else:
            value = max(0, value - 1)
        self._counters[idx] = value
        if (value >= self.THRESHOLD) != was_friendly:
            self.flips += 1

    def predict(self, pc: int) -> bool:
        """Return ``True`` when loads by ``pc`` are predicted friendly."""
        return self._counters.get(self._index(pc), self.THRESHOLD) >= self.THRESHOLD


#: A PC's counter predicts cache-friendly at or above this value.
THRESHOLD = HawkeyePredictor.THRESHOLD


class HawkeyePolicy(ReplacementPolicy):
    """RRIP-style policy driven by a Hawkeye predictor and OPTgen sampler.

    A subset of sets (about 64, or all sets for small structures) feed
    OPTgen; its verdicts train the shared predictor, which then steers
    insertion priority in every set.
    """

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        target_sampled_sets: int = 64,
        history_mult: int = 8,
        predictor: Optional[HawkeyePredictor] = None,
        auto_observe: bool = True,
    ):
        super().__init__(num_sets, num_ways)
        self.predictor = predictor or HawkeyePredictor()
        #: When False, hits/fills do NOT feed the OPTgen sampler; the owner
        #: calls :meth:`observe` explicitly.  Triage uses this to ignore
        #: metadata accesses that produced redundant prefetches (paper
        #: Section 3.1).
        self.auto_observe = auto_observe
        #: RRPV and last PC per way, flat (``set_idx * num_ways + way``);
        #: RRPVs are bytes, so a set's row ages in one ``translate``.
        self._rrpv = bytearray([MAX_RRPV]) * (num_sets * num_ways)
        self._line_pc = [0] * (num_sets * num_ways)
        #: Sets ``0, stride, 2*stride, ...`` feed OPTgen, so a set is
        #: sampled exactly when ``set_idx % sample_stride == 0``.
        self.sample_stride = max(1, num_sets // target_sampled_sets)
        self._samplers: Dict[int, OptGen] = {
            s: OptGen(num_ways, history_mult)
            for s in range(0, num_sets, self.sample_stride)
        }
        # Last PC to touch each sampled key, so OPT's verdict credits the
        # load that brought the line in, not the one re-referencing it.
        self._sampler_last_pc: Dict[int, Dict[int, int]] = {
            s: {} for s in self._samplers
        }
        # Identity of the line occupying each (set, way), set by the cache
        # on fill, so the OPTgen sampler keys by line address.  Read only
        # under ``auto_observe``.
        self._line_keys: Dict[int, Dict[int, int]] = {}

    # -- sampler ---------------------------------------------------------

    def observe(self, set_idx: int, key: int, pc: int) -> None:
        """Feed one access to the OPTgen sampler (if the set is sampled)."""
        optgen = self._samplers.get(set_idx)
        if optgen is None:
            return
        last_pcs = self._sampler_last_pc[set_idx]
        verdict = optgen.access(key)
        if verdict is not None:
            trainer_pc = last_pcs.get(key, pc)
            self.predictor.train(trainer_pc, verdict)
        last_pcs[key] = pc
        if len(last_pcs) > 8 * optgen.window:
            # Bound sampler memory; dropping stale PCs only affects
            # training credit for accesses already outside OPT's window.
            last_pcs.clear()

    # -- ReplacementPolicy interface --------------------------------------
    #
    # on_hit/on_fill run on every metadata-store hit and install, so they
    # read the predictor's counter directly (HawkeyePredictor.predict
    # inlined, index hash included).

    def on_hit(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        pc = pc or 0
        if self.auto_observe and set_idx in self._samplers:
            self.observe(set_idx, self._line_key(set_idx, way), pc)
        slot = set_idx * self.num_ways + way
        self._line_pc[slot] = pc
        predictor = self.predictor
        index = (pc ^ (pc >> 13) ^ (pc >> 26)) & predictor.mask
        if predictor._counters.get(index, THRESHOLD) >= THRESHOLD:
            self._rrpv[slot] = 0
        else:
            self._rrpv[slot] = MAX_RRPV

    def on_fill(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        pc = pc or 0
        if self.auto_observe and set_idx in self._samplers:
            self.observe(set_idx, self._line_key(set_idx, way), pc)
        ways = self.num_ways
        base = set_idx * ways
        self._line_pc[base + way] = pc
        predictor = self.predictor
        rrpv = self._rrpv
        index = (pc ^ (pc >> 13) ^ (pc >> 26)) & predictor.mask
        if predictor._counters.get(index, THRESHOLD) >= THRESHOLD:
            # Friendly insertion: age everyone else so stale friendly
            # lines eventually become evictable.
            rrpv[base : base + ways] = rrpv[base : base + ways].translate(_AGE)
            rrpv[base + way] = 0
        else:
            rrpv[base + way] = MAX_RRPV

    def on_evict(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx * self.num_ways + way] = MAX_RRPV

    def victim(self, set_idx: int, pc: Optional[int] = None) -> int:
        base = set_idx * self.num_ways
        row = self._rrpv[base : base + self.num_ways]
        best = row.index(max(row))
        if row[best] < MAX_RRPV:
            # Evicting a line the predictor liked: detrain its PC.
            self.predictor.train(self._line_pc[base + best], False)
        return best

    def resize_ways(self, num_ways: int) -> None:
        self._rrpv = bytearray(self._resized(self._rrpv, num_ways, MAX_RRPV))
        self._line_pc = self._resized(self._line_pc, num_ways, 0)
        if num_ways < self.num_ways:
            for keys in self._line_keys.values():
                for way in [w for w in keys if w >= num_ways]:
                    del keys[way]
        super().resize_ways(num_ways)

    # -- helpers -----------------------------------------------------------

    def set_line_key(self, set_idx: int, way: int, key: int) -> None:
        """Record the identity of the line now living at ``(set_idx, way)``.

        The cache calls this on fill so the sampler can key OPTgen by line
        address rather than by way.
        """
        self._line_keys.setdefault(set_idx, {})[way] = key

    def _line_key(self, set_idx: int, way: int) -> int:
        keys = self._line_keys.get(set_idx)
        if keys is None:
            return set_idx * self.num_ways + way
        return keys.get(way, set_idx * self.num_ways + way)
