"""The ambient telemetry runtime.

A :class:`Telemetry` bundles the three injectable pieces — a span
recorder, a metrics registry, and a clock — and a :mod:`contextvars`
variable holds the *active* bundle, so instrumentation sites call the
module-level helpers (``span``, ``counter``, ``observe``, ``clock``)
without any handle plumbing.  The default bundle is :data:`DISABLED`:
no recorder, no metrics, ``time.perf_counter`` for the clock.  On that
path ``span()`` recycles pooled objects and the metric helpers return
immediately, so leaving instrumentation in hot loops is free (guarded by
``make bench-telemetry``).

Activation is scoped, not global::

    telemetry = Telemetry.recording()
    with telemetry.use():
        MerlinCompiler(topology=topology).compile(policy)
    print(render_trace(telemetry.recorder.spans))

``asyncio`` tasks and ``asyncio.to_thread`` copy the context, so spans
opened inside them nest under the caller's span automatically.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Optional

from .metrics import MetricsRegistry, MetricsSnapshot
from .recorder import InMemoryRecorder, JsonLinesRecorder, SpanRecorder
from .spans import CURRENT_SPAN, Span, acquire_span, next_span_id

__all__ = [
    "DISABLED",
    "Telemetry",
    "active",
    "clock",
    "counter",
    "current_span",
    "gauge",
    "observe",
    "snapshot",
    "span",
    "use",
]


class Telemetry:
    """One bundle of recorder + metrics + clock.

    Any piece may be absent: metrics-only telemetry (the control plane's
    default) skips span recording entirely; a pinned ``clock`` makes
    span durations and latency histograms deterministic in replay tests,
    the same injection seam ``AdmissionPolicy`` uses for rate windows.
    """

    __slots__ = ("recorder", "metrics", "clock")

    def __init__(
        self,
        recorder: Optional[SpanRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.recorder = recorder
        self.metrics = metrics
        self.clock = clock

    @classmethod
    def recording(
        cls,
        trace_path: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "Telemetry":
        """A fully-enabled bundle: metrics plus an in-memory recorder, or
        a JSON-lines recorder when ``trace_path`` is given."""
        recorder: SpanRecorder
        if trace_path is None:
            recorder = InMemoryRecorder()
        else:
            recorder = JsonLinesRecorder(trace_path)
        return cls(recorder=recorder, metrics=MetricsRegistry(), clock=clock)

    @contextmanager
    def use(self):
        """Make this bundle the active one for the dynamic extent."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def span(self, name: str, **attributes: Any) -> Span:
        if self.recorder is None:
            return acquire_span(self, name)
        parent = CURRENT_SPAN.get()
        span = Span()
        span.name = name
        span.span_id = next_span_id()
        if parent is not None and parent._telemetry is self:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            span.trace_id = span.span_id
            span.parent_id = None
        span.attributes = dict(attributes) if attributes else None
        span._telemetry = self
        return span

    def snapshot(self) -> MetricsSnapshot:
        if self.metrics is None:
            return MetricsSnapshot()
        return self.metrics.snapshot()


DISABLED = Telemetry()

_ACTIVE: ContextVar[Telemetry] = ContextVar("repro_telemetry", default=DISABLED)


def active() -> Telemetry:
    """The telemetry bundle for the current context."""
    return _ACTIVE.get()


def use(telemetry: Telemetry):
    """``with use(t):`` — activate ``t`` for the block (see Telemetry.use)."""
    return telemetry.use()


def clock() -> float:
    """Read the active telemetry clock (``time.perf_counter`` unless
    a deterministic clock was injected)."""
    return _ACTIVE.get().clock()


def span(name: str, **attributes: Any) -> Span:
    """Open a span on the active bundle; use as a context manager."""
    return _ACTIVE.get().span(name, **attributes)


def current_span() -> Optional[Span]:
    """The innermost open span, or ``None`` (always ``None`` when the
    active bundle has no recorder)."""
    return CURRENT_SPAN.get()


def counter(name: str, amount: float = 1.0, **labels: Any) -> None:
    metrics = _ACTIVE.get().metrics
    if metrics is not None:
        metrics.counter(name, amount, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    metrics = _ACTIVE.get().metrics
    if metrics is not None:
        metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    metrics = _ACTIVE.get().metrics
    if metrics is not None:
        metrics.observe(name, value, **labels)


def snapshot() -> MetricsSnapshot:
    """Freeze the active bundle's metrics (empty when metrics are off)."""
    return _ACTIVE.get().snapshot()
