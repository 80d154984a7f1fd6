"""Figure 4 — expressiveness: Merlin policy size vs generated instructions.

Paper observation: policies of 6-23 Merlin lines expand to hundreds or
thousands of low-level instructions; only the bandwidth-bearing policies emit
``tc`` commands and queue configurations, and the combination policy is the
largest.
"""

from repro.core.compiler import MerlinCompiler
from repro.core.localization import localize
from repro.experiments.expressiveness import run_expressiveness_experiment
from repro.experiments.policy_builders import (
    FIGURE4_PLACEMENTS,
    combination_policy,
    stanford_with_middleboxes,
)
from repro.regex.ast import any_path
from repro.telemetry import Telemetry

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


def test_fig4_combination_builds_product_graphs_for_guarantees_only(report):
    """Count guard: compiling the combination policy materialises one product
    graph per guaranteed statement and none for a best-effort statement,
    which restricts the one walk of its path expression that all such
    statements share."""
    topology = stanford_with_middleboxes(subnets=24 if is_full_scale() else 12)
    policy = combination_policy(topology, guarantee_fraction=0.10)
    compiler = MerlinCompiler(
        topology=topology,
        placements=FIGURE4_PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
    )
    bundle = Telemetry.recording()
    with bundle.use():
        compiler.compile(policy)
    counters = bundle.snapshot()

    rates = localize(policy)
    expressions = set()
    statements = {True: 0, False: 0}
    for statement in policy.statements:
        is_guaranteed = rates[statement.identifier].is_guaranteed
        if not is_guaranteed:
            if statement.path == any_path():
                continue
            expressions.add(statement.path)
        statements[is_guaranteed] += 1
    row = {
        "guaranteed": statements[True],
        "graphs_built": int(counters.counter_total("logical_builds")),
        "best_effort_constrained": statements[False],
        "path_expressions": len(expressions),
        "shared_walks": int(counters.counter_total("logical_searches")),
    }
    report(
        "fig4_product_graphs",
        format_table(
            [row], list(row), title="Figure 4 combination policy: product graphs"
        ),
    )
    assert statements[True] and statements[False]
    assert row["graphs_built"] == statements[True]
    # One walk per path expression, however many endpoint pairs use it.
    assert row["shared_walks"] == len(expressions)
    assert statements[False] > len(expressions)
