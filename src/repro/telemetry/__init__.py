"""End-to-end telemetry: structured spans + a metrics registry.

See ``README.md`` in this package for the span model, the recorder
protocol, and the metrics.  Quick start::

    from repro import MerlinCompiler, telemetry

    bundle = telemetry.Telemetry.recording()
    with bundle.use():
        MerlinCompiler(topology=topology).compile(policy)
    print([(span.name, span.duration) for span in bundle.recorder.spans])
    print(bundle.snapshot().counters)

Instrumentation sites inside the repo use the ambient module-level API
(``telemetry.span`` / ``telemetry.counter`` / ``telemetry.clock``) and
cost nothing when no bundle is active.
"""

from .metrics import HistogramSummary, MetricsRegistry, MetricsSnapshot, metric_key
from .recorder import InMemoryRecorder, JsonLinesRecorder, SpanRecorder
from .runtime import (
    DISABLED,
    Telemetry,
    active,
    clock,
    counter,
    gauge,
    observe,
    snapshot,
    span,
    use,
)
from .spans import Span, SpanRecord

__all__ = [
    "DISABLED",
    "HistogramSummary",
    "InMemoryRecorder",
    "JsonLinesRecorder",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "SpanRecord",
    "SpanRecorder",
    "Telemetry",
    "active",
    "clock",
    "counter",
    "gauge",
    "metric_key",
    "observe",
    "snapshot",
    "span",
    "use",
]
