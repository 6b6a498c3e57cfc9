"""Ring-buffered structured trace events with severity/category filters.

Discrete happenings that a time-series cannot capture -- a partition
re-decision, a Hawkeye prediction flip, a metadata eviction -- are
emitted as :class:`TraceEvent` records into a bounded ring buffer (old
events fall off rather than growing memory without bound on long runs).
Producers are component hooks (``store.events.emit(...)``) that the
simulation engines attach only when observability is on.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Ascending severity order; filters keep events at or above a level.
SEVERITIES = ("debug", "info", "warn", "error")
_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}

#: Ring capacity when neither the caller nor ``REPRO_OBS_EVENTS`` says
#: otherwise.  Large enough for any single experiment's event volume,
#: small enough that an abandoned session cannot hold real memory.
DEFAULT_CAPACITY = 65_536


def capacity_from_env(default: int = DEFAULT_CAPACITY) -> int:
    """Ring capacity from ``REPRO_OBS_EVENTS``, else ``default``.

    Invalid, zero or negative values warn once (stderr plus a
    ``config.invalid_env`` trace event) and fall back to ``default`` --
    the shared :func:`repro.config.positive_env` discipline also applied
    to ``REPRO_JOBS``/``REPRO_RETRIES``/``REPRO_TRACE``.
    """
    from repro.config import positive_env  # lazy: keep obs imports light

    value = positive_env("REPRO_OBS_EVENTS", int, minimum=1)
    return int(value) if value is not None else default


@dataclass(slots=True)
class TraceEvent:
    """One structured event: identity, classification, free-form fields."""

    seq: int
    category: str
    severity: str
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "category": self.category,
            "severity": self.severity,
            **self.fields,
        }


class TraceEventStream:
    """Bounded event sink with category/severity admission control.

    ``categories=None`` admits every category; otherwise only listed
    category *prefixes* pass (``"partition"`` admits
    ``"partition.decision"``).  ``min_severity`` drops anything below the
    given level.  ``emitted`` counts accepted events even after they age
    out of the ring; ``filtered`` counts rejected ones.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        min_severity: str = "debug",
        categories: Optional[Sequence[str]] = None,
    ):
        if capacity is None:
            capacity = capacity_from_env()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if min_severity not in _RANK:
            raise ValueError(f"unknown severity {min_severity!r}; want one of {SEVERITIES}")
        self.capacity = capacity
        self.min_rank = _RANK[min_severity]
        self.categories: Optional[Tuple[str, ...]] = (
            tuple(categories) if categories is not None else None
        )
        self._ring: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.filtered = 0

    def _admits(self, category: str, severity: str) -> bool:
        if _RANK.get(severity, 0) < self.min_rank:
            return False
        if self.categories is None:
            return True
        return any(
            category == c or category.startswith(c + ".") for c in self.categories
        )

    def emit(self, category: str, severity: str = "info", **fields) -> bool:
        """Record one event; returns whether it passed the filters."""
        rank = _RANK.get(severity)
        if rank is None:
            raise ValueError(f"unknown severity {severity!r}; want one of {SEVERITIES}")
        if rank < self.min_rank or (
            self.categories is not None and not self._admits(category, severity)
        ):
            self.filtered += 1
            return False
        self._ring.append(TraceEvent(self.emitted, category, severity, fields))
        self.emitted += 1
        return True

    # -- inspection ------------------------------------------------------

    def events(
        self, category: Optional[str] = None, severity: Optional[str] = None
    ) -> List[TraceEvent]:
        """Buffered events, optionally narrowed by category prefix/severity."""
        out = list(self._ring)
        if category is not None:
            out = [
                e
                for e in out
                if e.category == category or e.category.startswith(category + ".")
            ]
        if severity is not None:
            rank = _RANK[severity]
            out = [e for e in out if _RANK[e.severity] >= rank]
        return out

    def counts_by_category(self) -> Dict[str, int]:
        return dict(TallyCounter(e.category for e in self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    def tally(self) -> Dict[str, int]:
        """Accepted, kept and filtered counts; ``emitted - kept`` events
        aged out of the ring."""
        return {
            "emitted": self.emitted,
            "kept": len(self._ring),
            "filtered": self.filtered,
            "capacity": self.capacity,
        }

    # -- export ----------------------------------------------------------

    def write_jsonl(self, path) -> Path:
        """One JSON object per line, oldest first."""
        path = Path(path)
        with path.open("w") as fh:
            for event in self._ring:
                fh.write(json.dumps(event.to_dict()) + "\n")
        return path
