"""Figure 10 (b') — incremental re-provisioning vs full recompilation.

The paper's adaptation claim (§4.3) is that run-time changes avoid global
recompilation.  This benchmark measures the extension of that claim to
path-changing deltas: on the arity-8 fat tree with one pod-local tenant per
pod, adding ``d`` guaranteed statements is re-provisioned incrementally
(``MerlinCompiler.recompile``: splice + re-solve only the ``d`` dirty pod
components) and compared against a from-scratch ``compile()`` of the same
extended policy.  Both must produce identical paths and reservations, and
the advantage is asserted as the work saved: a ``d``-statement delta makes
exactly ``d`` MIP solver calls where the full compile makes one per
component.  Both latencies (each side's ``statistics.total_seconds``) and
their ratio are printed beside the counts, not asserted.
"""

from repro.experiments.reprovisioning import measure_reprovisioning

from conftest import format_table, is_full_scale

COLUMNS = [
    "arity", "statements", "partitions", "delta_size", "dirty_partitions",
    "solver_calls", "full_solver_calls",
    "full_ms", "incremental_ms", "speedup", "identical",
]


def _run():
    if is_full_scale():
        return measure_reprovisioning(
            arity=8, pairs_per_pod=4, delta_sizes=(1, 2, 4, 8)
        )
    return measure_reprovisioning(arity=8, pairs_per_pod=3, delta_sizes=(1, 2, 4))


def _assert_incremental_row(row):
    # The incremental path must be indistinguishable from a full compile...
    assert row["identical"]
    # ...touch exactly the components the delta touched: one solver call per
    # added statement, fewer than the components there are...
    assert row["dirty_partitions"] == row["delta_size"]
    assert row["solver_calls"] == row["delta_size"] < row["partitions"]
    # ...where the full compile of the same policy solves every one of them.
    assert row["full_solver_calls"] == row["partitions"]


def test_fig10b_reprovisioning(report):
    rows = _run()
    report(
        "fig10b_reprovisioning",
        format_table(
            rows,
            COLUMNS,
            title="Figure 10b': delta size vs incremental / full re-provisioning (fat-tree k=8)",
        ),
    )
    for row in rows:
        _assert_incremental_row(row)
        # At least one component per pod tenant (footprint tightening may
        # split a pod's pairs further when they share no links).
        assert row["partitions"] >= row["arity"]


def test_reprovision_smoke():
    """Smoke target: a tiny fat tree round-trips one delta
    (run via ``make bench-smoke`` / ``make bench-reprovision``)."""
    (row,) = measure_reprovisioning(arity=4, pairs_per_pod=1, delta_sizes=(1,))
    _assert_incremental_row(row)


def test_footprint_partitioning_smoke():
    """Smoke guard against footprint regressions: the pod-tenant workload
    plus one unconstrained ``.*`` statement must still decompose into at
    least one MIP component per tenant (run via ``make bench-smoke``).
    Without cost-bound tightening the ``.*`` statement's footprint spans
    every physical link and the partition count collapses to 1."""
    from repro.core import MerlinCompiler
    from repro.core.ast import BandwidthTerm, FMin, Policy, formula_and, formula_clauses
    from repro.experiments.reprovisioning import (
        pod_tenant_scenario,
        unconstrained_statement,
    )

    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    wild = unconstrained_statement(scenario)
    policy = Policy(
        statements=scenario.policy.statements + (wild,),
        formula=formula_and(
            *formula_clauses(scenario.policy.formula),
            FMin(BandwidthTerm(identifiers=(wild.identifier,)), scenario.guarantee),
        ),
    )
    compiler = MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    result = compiler.compile(policy)
    tenants = len(scenario.pods)
    assert result.statistics.num_partitions >= tenants, (
        f"partition count {result.statistics.num_partitions} fell below the "
        f"{tenants} pod tenants: footprint tightening regressed"
    )
