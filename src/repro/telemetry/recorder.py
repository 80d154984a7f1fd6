"""Span recorders: where finished spans go.

A recorder is anything with ``record(span_record)``; the two shipped
implementations cover the common cases — an in-memory list for tests and
console summaries, and an append-only JSON-lines file for offline trace
analysis.  ``None`` (no recorder) is the default and keeps the span path
allocation-free; see :mod:`repro.telemetry.spans`.
"""

from __future__ import annotations

import json
import threading
from typing import IO, List, Protocol, Union

from .spans import SpanRecord

__all__ = [
    "InMemoryRecorder",
    "JsonLinesRecorder",
    "SpanRecorder",
]


class SpanRecorder(Protocol):
    """Structural protocol: any ``record(SpanRecord)`` callable target."""

    def record(self, span: SpanRecord) -> None:  # pragma: no cover
        ...


class InMemoryRecorder:
    """Collects finished spans in order; the test/debug workhorse."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: List[SpanRecord] = []

    def record(self, span: SpanRecord) -> None:
        with self._lock:
            self.spans.append(span)

    def by_name(self, name: str) -> List[SpanRecord]:
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def roots(self) -> List[SpanRecord]:
        with self._lock:
            return [span for span in self.spans if span.parent_id is None]

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()


class JsonLinesRecorder:
    """Appends one JSON object per finished span to a file or stream.

    Spans are written in completion order (children before parents, as
    in any tracing system), each a :meth:`SpanRecord.to_dict` payload.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "a", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def record(self, span: SpanRecord) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()

    def __enter__(self) -> "JsonLinesRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
