"""Prefetchers: Triage's baselines and competitors.

Every prefetcher trains on the L2 access stream (L2 misses plus demand
hits on prefetched L2 lines) and returns candidate line addresses, mirroring
the paper's setup where "all prefetchers train on the L2 access stream,
and prefetches are inserted into the L2".
"""

from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate
from repro.prefetchers.stride import StridePrefetcher
from repro.prefetchers.best_offset import BestOffsetPrefetcher
from repro.prefetchers.sms import SmsPrefetcher
from repro.prefetchers.stms import StmsPrefetcher
from repro.prefetchers.domino import DominoPrefetcher
from repro.prefetchers.isb import IsbPrefetcher
from repro.prefetchers.misb import MisbPrefetcher
from repro.prefetchers.hybrid import HybridPrefetcher

#: Triangel builds on :mod:`repro.core.triage`, which itself imports
#: :mod:`repro.prefetchers.base` -- importing it eagerly here would close
#: an import cycle through this package's __init__.  PEP 562 lazy
#: attribute access keeps ``from repro.prefetchers import
#: TriangelPrefetcher`` working without the cycle.
_TRIANGEL_EXPORTS = ("SampleTable", "TriangelConfig", "TriangelPrefetcher")


def __getattr__(name):
    if name in _TRIANGEL_EXPORTS:
        from repro.prefetchers import triangel

        return getattr(triangel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BasePrefetcher",
    "BestOffsetPrefetcher",
    "DominoPrefetcher",
    "HybridPrefetcher",
    "IsbPrefetcher",
    "MisbPrefetcher",
    "PrefetchCandidate",
    "SampleTable",
    "SmsPrefetcher",
    "StmsPrefetcher",
    "StridePrefetcher",
    "TriangelConfig",
    "TriangelPrefetcher",
]
