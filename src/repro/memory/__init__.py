"""Memory-system substrate: addresses, caches, DRAM and the hierarchy."""

from repro.memory.address import (
    LINE_SIZE,
    LINE_SHIFT,
    line_addr,
    line_base,
    region_id,
    region_offset,
    set_index,
    tag_bits,
)
from repro.memory.cache import AccessOutcome, Cache, CacheLine, LruCache
from repro.memory.dram import DramModel, TrafficCounter
from repro.memory.hierarchy import CacheHierarchy, trains_l2_prefetcher

__all__ = [
    "AccessOutcome",
    "Cache",
    "CacheHierarchy",
    "CacheLine",
    "DramModel",
    "LINE_SHIFT",
    "LINE_SIZE",
    "LruCache",
    "TrafficCounter",
    "line_addr",
    "line_base",
    "region_id",
    "region_offset",
    "set_index",
    "tag_bits",
    "trains_l2_prefetcher",
]
