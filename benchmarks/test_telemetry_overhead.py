"""Telemetry overhead guard — disabled instrumentation must stay free.

The repo's hot paths (compile, partitioned solve, branch-and-bound) are
permanently instrumented; the contract that makes this acceptable is that
the *disabled* path (no recorder, no metrics — the default bundle) costs
two clock reads and zero allocations per span.  This script counts exactly
that — reads of an injected counting clock, and the identity of the pooled
span object — and pins how many spans the Figure-8 smoke compile opens, so
neither the per-span cost nor the span count can grow unnoticed.  The
resulting share of the compile's wall time is printed (the compile's own
``statistics.total_seconds`` against one span around a probe loop), not
asserted.  ``make bench-telemetry`` runs this file alone.
"""

from repro import telemetry
from repro.experiments.scaling import compile_all_pairs
from repro.telemetry import Telemetry
from repro.topology.generators import fat_tree

#: Spans one traced Figure-8 smoke compile opens; a new instrumentation
#: site on the compile path changes this number and has to say so here.
SMOKE_COMPILE_SPANS = 14

_SPAN_PROBES = 20_000


def _smoke_compile():
    """The Figure-8 smallest point: fat tree k=4, 5% guaranteed classes."""
    return compile_all_pairs(fat_tree(4), guarantee_fraction=0.05, max_classes=60)


class _CountingClock:
    """An injectable clock whose reading is the number of times it was read."""

    def __init__(self):
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return float(self.reads)


def test_disabled_span_is_two_clock_reads_and_no_allocation(report):
    clock = _CountingClock()
    with Telemetry(clock=clock).use():  # no recorder, no metrics: disabled
        with telemetry.span("overhead_probe") as first:
            pass
        reads_before = clock.reads
        with telemetry.span("overhead_probe") as second:
            pass
    assert clock.reads - reads_before == 2
    assert second is first  # recycled through the pool, not allocated

    bundle = Telemetry.recording()
    with bundle.use():
        _smoke_compile()
    num_spans = len(bundle.recorder.spans)
    assert num_spans == SMOKE_COMPILE_SPANS

    baseline = _smoke_compile().statistics.total_seconds
    with telemetry.span("overhead_probes") as probes:
        for _ in range(_SPAN_PROBES):
            with telemetry.span("overhead_probe"):
                pass
    per_span = probes.duration / _SPAN_PROBES
    overhead = per_span * num_spans
    report(
        "telemetry_overhead",
        "\n".join(
            [
                f"fig8 smoke baseline (disabled telemetry): {baseline * 1000.0:.2f}ms",
                f"disabled span cost: {per_span * 1e9:.0f}ns over {_SPAN_PROBES} probes "
                "(2 clock reads, 0 allocations)",
                f"spans opened by one traced smoke compile: {num_spans}",
                f"estimated disabled-path overhead: {overhead * 1e6:.1f}us "
                f"({overhead / baseline * 100.0:.3f}% of baseline)",
            ]
        ),
    )
