"""Figure 6 — all-pairs connectivity compilation on the Topology Zoo.

Paper observation: most of the 262 topologies compile in under 50 ms, all
but one in under 600 ms, and the largest (754 switches) takes about 4 s.
The reproduction uses a synthetic ensemble matched to the Zoo's size
statistics (mean 40 switches, stdev 30, max 754).  What makes the largest
member the outlier is the work it does — one sink tree per egress switch —
and that count is what is asserted; the per-topology latency (one span
around ``compute_sink_trees``) is printed.
"""

import statistics

from repro.experiments.zoo import run_topology_zoo_experiment
from repro.telemetry.metrics import percentile

from conftest import format_table, is_full_scale


def _run():
    count = 262 if is_full_scale() else 60
    return run_topology_zoo_experiment(count=count, seed=0)


def test_fig6_topology_zoo(report):
    rows = _run()
    times = [row["compile_ms"] for row in rows]
    summary = {
        "count": len(times),
        "mean": statistics.fmean(times),
        "stdev": statistics.pstdev(times),
        "min": min(times),
        "median": statistics.median(times),
        "p95": percentile(times, 95),
        "max": max(times),
    }
    table = format_table(
        [
            {"statistic": key, "compile_ms": value}
            for key, value in summary.items()
        ],
        ["statistic", "compile_ms"],
        title="Figure 6: per-topology connectivity compile time (ms)",
    )
    detail = format_table(
        sorted(rows, key=lambda row: row["switches"])[-5:],
        ["name", "switches", "hosts", "sink_trees", "compile_ms"],
        title="Largest topologies",
    )
    report("fig6_topology_zoo", table + "\n\n" + detail)

    # Every member gets forwarding state for each of its egress switches...
    assert all(row["sink_trees"] == row["egress_switches"] > 0 for row in rows)
    # ...and the 754-switch outlier is there and has the most of it to compute.
    largest = max(rows, key=lambda row: row["switches"])
    assert largest["switches"] == 754
    assert largest["sink_trees"] == max(row["sink_trees"] for row in rows)
    assert largest["sink_trees"] > statistics.median(row["sink_trees"] for row in rows)
