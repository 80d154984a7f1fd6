"""Structured spans: nested, context-propagated timing records.

A :class:`Span` is a live timer opened with ``telemetry.span(name)`` and
closed by its ``with`` block; on exit it freezes into a
:class:`SpanRecord` and is handed to the active recorder.  Nesting is
ambient: the innermost open span is tracked in a :mod:`contextvars`
variable, so child spans find their parent without threading handles
through call signatures, and ``asyncio`` tasks inherit the correct
parent automatically (task creation copies the context).

When no recorder is attached (the default), spans are recycled through a
thread-local free list: the ``with telemetry.span(...)`` idiom costs two
clock reads and zero allocations in steady state, so instrumented hot
paths can stay instrumented in production.  Even disabled spans measure
``duration`` — derived statistics (``CompilationStatistics`` timings,
scenario-driver latencies) read it right after the block instead of
keeping a parallel stopwatch.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

__all__ = ["CURRENT_SPAN", "Span", "SpanRecord", "next_span_id"]

#: The innermost open span of the current thread/task context, if any.
CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_current_span", default=None
)

# Seeded with a random per-process base: JSON-lines trace files are
# opened in append mode, so traces written by different processes (or
# separate runs of the same script) must not collide on trace/span ids.
_IDS = itertools.count((int.from_bytes(os.urandom(5), "big") << 24) | 1)


def next_span_id() -> int:
    """Allocate a process-unique span identifier."""
    return next(_IDS)


@dataclass(frozen=True)
class SpanRecord:
    """An immutable, export-ready snapshot of one finished span.

    ``start`` is in the trace clock's units (``time.perf_counter`` by
    default) and is only meaningful relative to other records of the
    same trace.
    """

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    duration: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload


class Span:
    """A live (open) span.  Use as a context manager.

    Instances belong to the telemetry bundle that minted them.  With a
    recorder attached, exiting the block freezes the span into a
    :class:`SpanRecord`; without one the object goes back to a
    thread-local pool, so only ``duration`` (and ``name``) may be read
    after the block — and only before the next span opens on the thread.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attributes",
        "_telemetry",
        "_token",
    )

    def __init__(self) -> None:
        self.name = ""
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration = 0.0
        self.attributes: Optional[Dict[str, Any]] = None
        self._telemetry = None
        self._token = None

    def annotate(self, **attributes: Any) -> "Span":
        """Attach key/value attributes; no-op when tracing is disabled."""
        if self._telemetry is None or self._telemetry.recorder is None:
            return self
        if self.attributes is None:
            self.attributes = {}
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        if self._telemetry.recorder is not None:
            self._token = CURRENT_SPAN.set(self)
        self.start = self._telemetry.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        telemetry = self._telemetry
        self.duration = telemetry.clock() - self.start
        recorder = telemetry.recorder
        if recorder is None:
            pool = _pool()
            if len(pool) < _POOL_LIMIT:
                pool.append(self)
            return False
        if self._token is not None:
            CURRENT_SPAN.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.annotate(error=exc_type.__name__)
        recorder.record(
            SpanRecord(
                name=self.name,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self.start,
                duration=self.duration,
                attributes=dict(self.attributes or {}),
            )
        )
        return False


_POOL_LIMIT = 64
_LOCAL = threading.local()


def _pool() -> list:
    pool = getattr(_LOCAL, "spans", None)
    if pool is None:
        pool = _LOCAL.spans = []
    return pool


def acquire_span(telemetry, name: str) -> Span:
    """Fetch a recycled span for the disabled path (no recorder)."""
    pool = _pool()
    span = pool.pop() if pool else Span()
    span.name = name
    span.trace_id = 0
    span.span_id = 0
    span.parent_id = None
    span.duration = 0.0
    span.attributes = None
    span._telemetry = telemetry
    span._token = None
    return span
