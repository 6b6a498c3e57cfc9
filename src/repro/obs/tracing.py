"""Causal request tracing: deterministic spans over any clock.

A **span** is one named stage of work with a start/end time, a status
and free-form attributes; spans form trees via ``parent_id`` and trees
group into **traces** via ``trace_id``.  The serving layer opens one
trace per request (admission -> queued -> breaker gate -> execute ->
session apply), the sweep engine opens one per cell, and the simulation
engines attach ``sim.run`` spans underneath whichever of those is
current.  Phase wall time lives here too, and only here: with
``ObsSession(profile=True)`` each ``sim.run`` gets ``phase.*`` children
(``phase.metadata_store`` nested under ``phase.l2_prefetcher`` in the
analytic engines), and trace generation files ``phase.trace_gen``
under the current span; :func:`repro.obs.report.phases_table` sums
them.

Determinism is the design center, mirroring the rest of the repo:

* **Ids are derived, not drawn.**  ``trace_id`` is a content hash of the
  seeded request/cell token (``"tenant-3:17"``, the cell identity
  hash); ``span_id`` is a hash of ``(trace_id, parent_id, name,
  per-parent child index)``.  Two runs of the same seeded scenario --
  or the serial and 2-job executions of the same sweep -- produce the
  *same* ids, which is what lets tests compare whole trace trees for
  equality.
* **Clocks are injected.**  The service stamps spans with the event-loop
  clock, so under :class:`repro.serve.vtime.VirtualTimeLoop` the full
  trace set -- timestamps included -- is bit-reproducible.  Engine-side
  spans default to ``time.perf_counter`` and are compared structurally
  (ids/names/status), never by duration.

Cost discipline matches the metrics registry: a disabled tracer hands
out the shared :data:`NULL_SPAN` (no allocation, every method a no-op),
and instrumented code guards with single ``is None`` / ``enabled``
checks, so the tracing-off hot path allocates zero spans.

Cross-process propagation: :meth:`Tracer.to_wire` /
:meth:`Tracer.begin_from_wire` serialize a span context into a plain
dict that rides in the worker payload; the worker reconstructs the
*identical* root span (same ids) and builds children under it, and the
parent merges the finished records back in submission order.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import config

__all__ = [
    "DEFAULT_CAPACITY",
    "NULL_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "settings_from_env",
    "trace_id_for",
]

#: Span-ring capacity when neither the caller nor ``REPRO_TRACE`` says
#: otherwise; sized like the event ring (one experiment's volume).
DEFAULT_CAPACITY = 65_536

#: Hex digits kept from the SHA-1 derivations (64-bit ids, like OTel).
_ID_HEX = 16


def settings_from_env(default_capacity: int = DEFAULT_CAPACITY):
    """``(enabled, capacity)`` from ``REPRO_TRACE`` (see :mod:`repro.config`)."""
    return config.trace_env(default_capacity)


def trace_id_for(token: str) -> str:
    """The deterministic trace id of a seeded request/cell token."""
    digest = hashlib.sha1(b"trace\x00" + str(token).encode("utf-8")).hexdigest()
    return digest[:_ID_HEX]


def _span_id(trace_id: str, parent_id: str, name: str, index: int) -> str:
    material = f"span\x00{trace_id}\x00{parent_id}\x00{name}\x00{index}"
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:_ID_HEX]


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: Dict[str, str]) -> "SpanContext":
        return cls(str(wire["trace_id"]), str(wire["span_id"]))


class Span:
    """One live span; finished spans become plain record dicts.

    Usable as a context manager: entering makes it the tracer's current
    span (so nested ``tracer.span(...)`` calls parent under it), exiting
    finishes it with status ``ok`` -- or ``error`` if an exception is
    propagating.  Explicit lifecycles (the serve layer) skip the context
    manager and call :meth:`Tracer.finish` with an explicit clock value.
    """

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id",
        "start", "end", "status", "attrs", "_children",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str,
        start: float,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self._children = 0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    # -- context manager protocol ----------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._pop(self)
        self.tracer.finish(self, status="error" if exc_type else self.status)
        return False


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer.

    Also its own (re-entrant, stateless) context manager, so
    ``with tracer.span(...)`` costs zero allocations when tracing is
    off.
    """

    __slots__ = ()
    name = "<null>"
    trace_id = span_id = parent_id = ""
    start = end = 0.0
    status = "ok"
    attrs: Dict[str, object] = {}

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    @property
    def context(self) -> SpanContext:
        return SpanContext("", "")

    def to_dict(self) -> Dict[str, object]:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory + bounded ring of finished span records.

    ``clock`` supplies default timestamps when a caller does not pass
    explicit ``t=`` values; the serve layer always passes the event-loop
    clock explicitly, which is what makes virtual-time traces
    bit-reproducible.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        enabled: Optional[bool] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        env_enabled, env_capacity = settings_from_env()
        if capacity is None:
            capacity = env_capacity
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.enabled = env_enabled if enabled is None else bool(enabled)
        self.capacity = capacity
        self.clock = clock
        self._ring: deque = deque(maxlen=capacity)
        #: (trace_id, parent_id) -> next child index, for id derivation.
        self._child_index: Dict[tuple, int] = {}
        #: Innermost-last stack of context-managed spans.
        self._stack: List[Span] = []
        self.started = 0
        self.finished = 0

    # -- span creation ----------------------------------------------------

    def _next_index(self, trace_id: str, parent_id: str, parent: Optional[Span]) -> int:
        if parent is not None:
            index = parent._children
            parent._children += 1
            return index
        key = (trace_id, parent_id)
        index = self._child_index.get(key, 0)
        self._child_index[key] = index + 1
        return index

    def start_trace(
        self, name: str, token: str, /, t: Optional[float] = None, **attrs
    ):
        """Open the root span of a new trace identified by ``token``."""
        if not self.enabled:
            return NULL_SPAN
        trace_id = trace_id_for(token)
        span_id = _span_id(trace_id, "", name, self._next_index(trace_id, "", None))
        self.started += 1
        return Span(
            self, name, trace_id, span_id, "",
            t if t is not None else self.clock(), attrs,
        )

    def start_span(
        self, name: str, /, parent=None, t: Optional[float] = None, **attrs
    ):
        """Open a child span under ``parent`` (or the current span).

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`
        (cross-process), or ``None`` to use the innermost
        context-managed span.  With no parent at all the span is
        dropped (returns :data:`NULL_SPAN`): an engine phase outside
        any trace has nothing to attach to.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                return NULL_SPAN
        parent_span = parent if isinstance(parent, Span) else None
        trace_id = parent.trace_id
        parent_id = parent.span_id
        index = self._next_index(trace_id, parent_id, parent_span)
        span_id = _span_id(trace_id, parent_id, name, index)
        self.started += 1
        return Span(
            self, name, trace_id, span_id, parent_id,
            t if t is not None else self.clock(), attrs,
        )

    def span(self, name: str, /, parent=None, **attrs):
        """Context-managed :meth:`start_span` (finishes with ok/error)."""
        return self.start_span(name, parent=parent, **attrs)

    def begin_from_wire(
        self, wire: Dict[str, str], name: str, t: Optional[float] = None, **attrs
    ):
        """Reconstruct a propagated root span with its *given* ids.

        The submitting side derives the context purely from the cell
        token (:meth:`to_wire`); the executing side -- worker process or
        the in-process serial path -- rebuilds the identical span here,
        so children derive the same ids either way.
        """
        if not self.enabled or not wire:
            return NULL_SPAN
        self.started += 1
        return Span(
            self, name, str(wire["trace_id"]), str(wire["span_id"]), "",
            t if t is not None else self.clock(), attrs,
        )

    @staticmethod
    def to_wire(token: str, name: str) -> Dict[str, str]:
        """The wire context of the root span a token's trace will own."""
        trace_id = trace_id_for(token)
        return {"trace_id": trace_id, "span_id": _span_id(trace_id, "", name, 0)}

    # -- lifecycle ---------------------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def finish(self, span, status: Optional[str] = None, t: Optional[float] = None) -> None:
        """Close ``span`` and move its record into the ring."""
        if span is NULL_SPAN or not isinstance(span, Span):
            return
        if span.end is not None:
            return  # already finished (idempotent for error paths)
        span.end = t if t is not None else self.clock()
        if status is not None:
            span.status = status
        self.finished += 1
        self._ring.append(span.to_dict())

    def event(
        self, parent, name: str, start: float, end: float, **attrs
    ) -> Optional[Span]:
        """Record an already-measured child span in one call.

        Used to file ``phase.*`` spans after the fact: the engines
        accumulate phase seconds with raw ``perf_counter`` deltas (too
        hot to wrap in live spans), then file them here.  Returns the
        finished span, so a sub-phase can be filed under it, or ``None``
        when nothing was recorded.
        """
        if not self.enabled or parent is NULL_SPAN or parent is None:
            return None
        span = self.start_span(name, parent=parent, t=start, **attrs)
        self.finish(span, t=end)
        return span

    # -- inspection / export ----------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Finished span records, oldest first."""
        return list(self._ring)

    def traces(self) -> Dict[str, List[Dict[str, object]]]:
        """Finished spans grouped by trace id (insertion order kept)."""
        out: Dict[str, List[Dict[str, object]]] = {}
        for record in self._ring:
            out.setdefault(record["trace_id"], []).append(record)
        return out

    def __len__(self) -> int:
        return len(self._ring)

    def merge(self, records: List[Dict[str, object]]) -> None:
        """Fold one worker's finished records into this ring.

        Callers merge worker dumps in submission order (like the metric
        registry), keeping the merged stream deterministic.
        """
        for record in records:
            self._ring.append(dict(record))
            self.finished += 1

    def write_jsonl(self, path) -> Path:
        """One finished span per line, oldest first."""
        path = Path(path)
        with path.open("w") as fh:
            for record in self._ring:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path
