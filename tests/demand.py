"""Drive a :class:`CacheHierarchy` one demand access at a time, with
each core's :class:`L1D` in front of it, as the engines do."""

from repro.memory.hierarchy import L1D, L1D_HIT


class Demand:
    """``demand(core, pc, addr, is_write)`` -> the access's outcome:
    :data:`L1D_HIT`, or what :meth:`CacheHierarchy.access` returned."""

    def __init__(self, hierarchy, l1_size, l1_ways):
        self.hierarchy = hierarchy
        self.l1s = [L1D(l1_size, l1_ways) for _ in range(hierarchy.n_cores)]

    def __call__(self, core, pc, addr, is_write=False):
        line = addr >> 6
        codes = self.l1s[core].run([line], [is_write])
        outcome = codes[0]
        if outcome != L1D_HIT:
            outcome = self.hierarchy.access(core, pc, line, is_write, outcome)
        self.hierarchy.close_segment(core, codes, 0, 1)
        return outcome
