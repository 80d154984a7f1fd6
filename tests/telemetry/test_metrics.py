"""Metrics registry tests: keys, snapshots, and the Prometheus exposition."""

import pytest

from repro.telemetry import (
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
    split_key,
    to_prometheus,
)
from repro.telemetry.metrics import percentile


class TestMetricKeys:
    def test_labels_render_sorted_and_round_trip(self):
        key = metric_key("solve_seconds", {"backend": "bnb", "arity": 4})
        assert key == 'solve_seconds{arity="4",backend="bnb"}'
        name, labels = split_key(key)
        assert name == "solve_seconds"
        assert labels == (("arity", "4"), ("backend", "bnb"))

    def test_unlabelled_key_is_the_bare_name(self):
        assert metric_key("hits", {}) == "hits"
        assert split_key("hits") == ("hits", ())


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
        summary = registry.snapshot().histogram("latency")
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

    def test_format_histogram_uses_the_shared_formatter(self):
        registry = MetricsRegistry()
        registry.observe("wait", 0.002)
        rendered = registry.format_histogram("wait")
        assert "p50=" in rendered and "ms" in rendered

    def test_empty_histogram_summary(self):
        summary = HistogramSummary.from_values([])
        assert summary.count == 0
        assert summary.mean == 0.0


class TestPrometheusExposition:
    def test_counters_gauges_and_summaries(self):
        registry = MetricsRegistry()
        registry.counter("admission_rejected", tenant="t1")
        registry.gauge("journal_depth", 2, group="g")
        registry.observe("queue_wait_seconds", 0.5, group="g")
        registry.observe("queue_wait_seconds", 1.5, group="g")
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_admission_rejected counter" in text
        assert 'repro_admission_rejected{tenant="t1"} 1' in text
        assert "# TYPE repro_journal_depth gauge" in text
        assert 'repro_journal_depth{group="g"} 2' in text
        assert "# TYPE repro_queue_wait_seconds summary" in text
        assert 'repro_queue_wait_seconds{group="g",quantile="0.5"} 1' in text
        assert 'repro_queue_wait_seconds_count{group="g"} 2' in text
        assert 'repro_queue_wait_seconds_sum{group="g"} 2' in text
        assert text.endswith("\n")

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus(MetricsSnapshot()) == ""

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-here")
        text = to_prometheus(registry.snapshot())
        assert "repro_weird_name_here 1" in text
