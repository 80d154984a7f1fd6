"""Metrics registry tests: keys and snapshots."""

import pytest

from repro.telemetry import (
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
)
from repro.telemetry.metrics import percentile


class TestMetricKeys:
    def test_labels_render_sorted(self):
        key = metric_key("solve_seconds", {"backend": "bnb", "arity": 4})
        assert key == 'solve_seconds{arity="4",backend="bnb"}'

    def test_unlabelled_key_is_the_bare_name(self):
        assert metric_key("hits", {}) == "hits"


class TestRegistry:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter("cache_hits")
        registry.counter("cache_hits", 2.0)
        registry.counter("cache_hits", backend="bnb")
        snapshot = registry.snapshot()
        assert snapshot.counter("cache_hits") == 3.0
        assert snapshot.counter("cache_hits", backend="bnb") == 1.0
        assert snapshot.counter_total("cache_hits") == 4.0
        assert snapshot.counter("never_recorded") == 0.0

    def test_gauges_keep_the_latest_value(self):
        registry = MetricsRegistry()
        registry.gauge("journal_depth", 3)
        registry.gauge("journal_depth", 1)
        assert registry.snapshot().gauge("journal_depth") == 1.0
        assert registry.snapshot().gauge("missing") is None

    def test_histograms_summarize_through_shared_percentile_math(self):
        registry = MetricsRegistry()
        values = [float(v) for v in range(1, 101)]
        for value in values:
            registry.observe("latency", value)
        summary = registry.snapshot().histograms["latency"]
        assert summary.count == 100
        assert summary.total == sum(values)
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        # Exactly the repo-wide percentile helper.
        assert summary.p95 == percentile(values, 95)
        assert summary.mean == pytest.approx(50.5)

    def test_values_returns_a_copy_and_reset_clears(self):
        registry = MetricsRegistry()
        registry.observe("x", 1.0)
        observed = registry.values("x")
        observed.append(99.0)
        assert registry.values("x") == [1.0]
        registry.reset()
        assert registry.snapshot() == MetricsSnapshot()

    def test_empty_histogram_summary(self):
        summary = HistogramSummary.from_values([])
        assert summary.count == 0
        assert summary.mean == 0.0

