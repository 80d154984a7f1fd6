"""Figure 4 — expressiveness: Merlin policy size vs generated instructions.

Paper observation: policies of 6-23 Merlin lines expand to hundreds or
thousands of low-level instructions; only the bandwidth-bearing policies emit
``tc`` commands and queue configurations, and the combination policy is the
largest.
"""

from repro.experiments.expressiveness import run_expressiveness_experiment

from conftest import format_table, is_full_scale


def _run():
    subnets = 24 if is_full_scale() else 12
    return run_expressiveness_experiment(subnets=subnets, guarantee_fraction=0.10)


def test_fig4_expressiveness(report):
    rows = _run()
    table = format_table(
        rows,
        ["policy", "merlin_loc", "openflow", "tc", "queues", "click", "total"],
        title="Figure 4: instruction counts per policy (Stanford-like campus)",
    )
    report("fig4_expressiveness", table)

    by_name = {row["policy"]: row for row in rows}
    # Only bandwidth-bearing policies configure queues and tc.
    assert by_name["baseline"]["queues"] == 0 and by_name["baseline"]["tc"] == 0
    assert by_name["bandwidth"]["queues"] > 0 and by_name["bandwidth"]["tc"] > 0
    assert by_name["combination"]["queues"] > 0
    # Middlebox policies emit Click configurations; the baseline does not.
    assert by_name["firewall"]["click"] > 0
    assert by_name["monitoring"]["click"] > 0
    # Every policy expands a handful of Merlin lines into far more instructions.
    for row in rows:
        assert row["total"] > 10 * row["merlin_loc"]
    # The combination policy is the largest, as in the paper.
    assert by_name["combination"]["total"] == max(row["total"] for row in rows)
