"""Figure 10 — dynamic adaptation: AIMD sawtooth and MMFS convergence.

Paper observation: the negotiators let tenants adapt bandwidth quickly while
never violating the global constraint — AIMD produces the familiar sawtooth
bounded by the shared capacity, and MMFS converges to the fair share and
re-allocates when demands change.
"""

import pytest

from repro.experiments.adaptation import run_adaptation_experiment

from conftest import format_series


def test_fig10_adaptation(report):
    traces = run_adaptation_experiment()
    aimd, mmfs = traces.aimd, traces.mmfs
    blocks = [
        format_series(
            aimd.times,
            {"h1-h2": aimd.series("h1-h2"), "h3-h4": aimd.series("h3-h4"),
             "aggregate": aimd.aggregate()},
            x_label="t(s)",
            title="Figure 10(a): AIMD allocations (Mbps)",
        ),
        format_series(
            mmfs.times,
            {"h1-h2": mmfs.series("h1-h2"), "h3-h4": mmfs.series("h3-h4")},
            x_label="t(s)",
            title="Figure 10(b): max-min fair-sharing allocations (Mbps)",
        ),
    ]
    report("fig10_adaptation", "\n\n".join(blocks))

    # AIMD: the aggregate never exceeds the shared capacity and oscillates.
    assert max(aimd.aggregate()) <= 600 + 1e-6
    series = aimd.series("h1-h2")
    assert max(series) - min(series[5:]) > 50  # visible sawtooth amplitude

    # MMFS: single active flow gets everything, both active share equally,
    # and the survivor reclaims the capacity at the end.
    assert mmfs.series("h1-h2")[0] == pytest.approx(450.0)
    assert mmfs.series("h1-h2")[15] == pytest.approx(225.0)
    assert mmfs.series("h3-h4")[15] == pytest.approx(225.0)
    assert mmfs.series("h3-h4")[-1] == pytest.approx(450.0)


@pytest.mark.parametrize("points", [39, 70, 100])
def test_format_series_keeps_to_max_points(points):
    """"At most ``max_points``" rows, first and last sample included (the
    old stride gave 39, 24 and 21 rows for these sizes)."""
    xs = list(range(points))
    lines = format_series(xs, {"y": xs}, max_points=20).splitlines()
    rows = [int(line.split()[0]) for line in lines[2:]]  # header, rule, rows
    assert len(rows) == 20
    assert rows[0] == 0 and rows[-1] == points - 1
    assert rows == sorted(set(rows))
