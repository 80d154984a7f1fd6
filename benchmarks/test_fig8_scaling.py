"""Figure 8 — compilation time vs number of traffic classes.

Four panels in the paper: (a)/(c) all-pairs best-effort connectivity on
balanced trees and fat trees, (b)/(d) the same topologies with 5% of the
traffic classes guaranteed.  The observation to reproduce: best-effort
compilation grows slowly (it is dominated by sink-tree construction), while
the guaranteed path grows much faster because of the MIP.  That MIP — its
variables and constraints, zero on every best-effort point and strictly
growing along every guaranteed curve — is what is asserted; the latency
columns are the compiler's own statistics, printed and not asserted.
"""

from repro.experiments.scaling import figure8_curves, measure_compilation
from repro.topology.generators import fat_tree

from conftest import format_table, is_full_scale


def _run():
    if is_full_scale():
        fat = figure8_curves("fat-tree", sizes=(4, 6, 8, 10), guarantee_fraction=0.05)
        balanced = figure8_curves(
            "balanced-tree", sizes=(2, 3, 4), guarantee_fraction=0.05
        )
    else:
        fat = figure8_curves(
            "fat-tree", sizes=(4, 6, 8), guarantee_fraction=0.05, max_classes=400
        )
        balanced = figure8_curves(
            "balanced-tree", sizes=(2, 3), guarantee_fraction=0.05, max_classes=400
        )
    return {"fat-tree": fat, "balanced-tree": balanced}


def test_fig8_scaling(report):
    curves = _run()
    blocks = []
    for family, series in curves.items():
        for kind, rows in series.items():
            blocks.append(
                format_table(
                    rows,
                    ["topology", "traffic_classes", "guaranteed",
                     "lp_construction_ms", "lp_solve_ms", "rateless_ms", "total_ms",
                     "mip_variables", "mip_constraints"],
                    title=f"Figure 8: {family}, {kind}",
                )
            )
    report("fig8_scaling", "\n\n".join(blocks))

    for family, series in curves.items():
        best_effort = series["best-effort"]
        guaranteed = series["guaranteed"]
        # Best-effort compilations never build a MIP, let alone solve one.
        for row in best_effort:
            assert row["guaranteed"] == row["mip_variables"] == row["mip_constraints"] == 0
        # Guaranteed compilations do, to optimality, and the model grows
        # strictly with the size of the tree (quick scale caps the classes,
        # so their count only has to grow end to end).
        assert all(row["solver_status"] == "optimal" for row in guaranteed)
        assert all(row["guaranteed"] > 0 for row in guaranteed)
        assert guaranteed[-1]["traffic_classes"] > guaranteed[0]["traffic_classes"]
        for smaller, larger in zip(guaranteed, guaranteed[1:]):
            assert larger["mip_variables"] > smaller["mip_variables"] > 0
            assert larger["mip_constraints"] > smaller["mip_constraints"] > 0


def test_fig8_smallest_point_smoke():
    """Smoke target: the smallest Figure 8 point compiles end-to-end
    (run alone via ``make bench-smoke``)."""
    row = measure_compilation(fat_tree(4), guarantee_fraction=0.05, max_classes=60)
    assert row["guaranteed"] > 0
    assert row["mip_variables"] > 0
    assert row["mip_constraints"] > 0
    assert row["solver_status"] == "optimal"
