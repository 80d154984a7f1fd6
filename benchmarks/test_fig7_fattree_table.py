"""Figure 7 (table) — fat-tree provisioning with 5% guaranteed traffic classes.

Paper observation: the rateless (best-effort) solution time stays small and
grows slowly, while LP construction and LP solution times grow quickly with
the number of guaranteed traffic classes; guarantees for hundreds of classes
on a 125-switch network solve in seconds, the largest configurations in
minutes to hours.  The growth is asserted on the size of the MIP the solver
is handed; the three latency columns are the compiler's own statistics,
printed and not asserted.
"""

from repro.experiments.scaling import measure_compilation
from repro.topology.generators import fat_tree

from conftest import format_table, is_full_scale


def _run():
    # Quick mode caps the number of traffic classes so the MIP stays small.
    arities, max_classes = ((4, 6, 8), None) if is_full_scale() else ((4, 6), 600)
    return [measure_compilation(fat_tree(arity), 0.05, max_classes) for arity in arities]


def test_fig7_fat_tree_table(report):
    rows = _run()
    table = format_table(
        rows,
        [
            "traffic_classes",
            "hosts",
            "switches",
            "guaranteed",
            "lp_construction_ms",
            "lp_solve_ms",
            "rateless_ms",
            "mip_variables",
            "mip_constraints",
        ],
        title="Figure 7: fat-tree provisioning times (5% guaranteed classes)",
    )
    report("fig7_fattree_table", table)

    # Shape: larger fat trees have more classes and guarantee more of them,
    # every point is solved to optimality, and the MIP behind the two LP
    # columns grows strictly with the arity.
    assert all(row["solver_status"] == "optimal" for row in rows)
    for smaller, larger in zip(rows, rows[1:]):
        assert larger["traffic_classes"] > smaller["traffic_classes"]
        assert larger["guaranteed"] > smaller["guaranteed"] > 0
        assert larger["mip_variables"] > smaller["mip_variables"] > 0
        assert larger["mip_constraints"] > smaller["mip_constraints"] > 0
