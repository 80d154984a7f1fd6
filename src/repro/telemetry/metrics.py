"""Metrics registry: counters, gauges, and percentile histograms.

Metric identity is the name plus an optional label set, rendered
Prometheus-style into a single key string (``solve_seconds{backend="bnb"}``)
so the registry stays a flat dict and the text exposition falls out for
free.  Histograms keep raw observations and summarize through
:func:`percentile` below — the repo's one percentile, which the scenario
driver and the figure scripts read too — so p50/p95/p99 mean the same
thing everywhere in the repo.

``snapshot()`` freezes the registry into a :class:`MetricsSnapshot`, the
query-safe form served by ``ControlPlane.metrics()`` next to
``GroupState``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsSnapshot",
    "format_percentiles",
    "metric_key",
    "percentile",
    "split_key",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation.

    Matches numpy's default ("linear") method so reported p50/p95/p99
    latencies are comparable across harnesses.  Raises ``ValueError`` on an
    empty sequence — a percentile of nothing is a bug upstream, not a zero.
    """
    if not values:
        raise ValueError("percentile() of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return float(ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction)


def format_percentiles(
    values: Sequence[float],
    quantiles: Sequence[float] = (50.0, 95.0, 99.0),
    unit: str = "ms",
    float_format: str = "{:.2f}",
) -> str:
    """A one-line ``p50=… p95=… p99=…`` summary of a latency sample."""
    if not values:
        return "no samples"
    parts = [
        f"p{int(q) if float(q).is_integer() else q}="
        + float_format.format(percentile(values, q))
        + unit
        for q in quantiles
    ]
    return " ".join(parts)


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Render ``name`` + labels into one canonical key string."""
    if not labels:
        return name
    rendered = ",".join(
        '%s="%s"' % (key, labels[key]) for key in sorted(labels)
    )
    return "%s{%s}" % (name, rendered)


def split_key(key: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Invert :func:`metric_key`: ``name{a="b"}`` -> (name, ((a, b),))."""
    if "{" not in key:
        return key, ()
    name, _, rest = key.partition("{")
    body = rest.rstrip("}")
    labels = []
    for item in body.split(","):
        if not item:
            continue
        label, _, value = item.partition("=")
        labels.append((label, value.strip('"')))
    return name, tuple(labels)


@dataclass(frozen=True)
class HistogramSummary:
    """Frozen percentile summary of one histogram series."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @classmethod
    def from_values(cls, values: List[float]) -> "HistogramSummary":
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(values),
            total=sum(values),
            minimum=min(values),
            maximum=max(values),
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            p99=percentile(values, 99),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen copy of every metric at one instant.

    Lookup helpers take the metric name plus labels as keyword
    arguments, mirroring how the values were recorded::

        snapshot.counter("admission_rejected", tenant="t1")
        snapshot.histogram("queue_wait_seconds")
    """

    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSummary] = field(default_factory=dict)

    def counter(self, name: str, **labels: Any) -> float:
        return self.counters.get(metric_key(name, labels), 0.0)

    def gauge(self, name: str, **labels: Any) -> Optional[float]:
        return self.gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels: Any) -> HistogramSummary:
        return self.histograms.get(
            metric_key(name, labels), HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        )

    def counter_total(self, name: str) -> float:
        """Sum a counter across every label combination it was recorded with."""
        total = 0.0
        for key, value in self.counters.items():
            if key == name or key.startswith(name + "{"):
                total += value
        return total


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms behind one lock.

    The lock matters because partitioned solving and the control-plane
    worker record from threads (``asyncio.to_thread``) while the caller
    may snapshot concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    def counter(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._histograms.setdefault(key, []).append(float(value))

    def values(self, name: str, **labels: Any) -> List[float]:
        """Raw observations of one histogram series (a copy)."""
        with self._lock:
            return list(self._histograms.get(metric_key(name, labels), ()))

    def format_histogram(
        self, name: str, unit: str = "ms", scale: float = 1000.0, **labels: Any
    ) -> str:
        """Render one series via the shared percentile formatter."""
        values = [value * scale for value in self.values(name, **labels)]
        return format_percentiles(values, unit=unit)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                key: HistogramSummary.from_values(values)
                for key, values in self._histograms.items()
            }
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
