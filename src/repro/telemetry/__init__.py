"""End-to-end telemetry: structured spans + a metrics registry.

See ``README.md`` in this package for the span model, the recorder
protocol, and the exporter formats.  Quick start::

    from repro import MerlinCompiler, telemetry

    bundle = telemetry.Telemetry.recording()
    with bundle.use():
        MerlinCompiler(topology=topology).compile(policy)
    print(telemetry.render_trace(bundle.recorder.spans))
    print(telemetry.to_prometheus(bundle.snapshot()))

Instrumentation sites inside the repo use the ambient module-level API
(``telemetry.span`` / ``telemetry.counter`` / ``telemetry.clock``) and
cost nothing when no bundle is active.
"""

from .exporters import render_trace, summarize_trace, to_prometheus
from .metrics import (
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
    split_key,
)
from .recorder import InMemoryRecorder, JsonLinesRecorder, SpanRecorder, read_trace
from .runtime import (
    DISABLED,
    Telemetry,
    active,
    adopt,
    clock,
    counter,
    current_span,
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
    "adopt",
    "clock",
    "counter",
    "current_span",
    "gauge",
    "metric_key",
    "observe",
    "read_trace",
    "render_trace",
    "snapshot",
    "span",
    "split_key",
    "summarize_trace",
    "to_prometheus",
    "use",
]
