"""Ablations of the repo's own design choices.

Not part of the paper's evaluation, but they characterise the two
substitutions and the path-selection design space:

* **Solver backends** — the SciPy/HiGHS MILP backend vs the pure-Python
  branch-and-bound backend on the same provisioning problem (both must find
  the same optimum; both latencies are in the table, neither asserted).
* **Path-selection heuristics** — the three objectives of Figure 3 on the
  dumbbell topology, characterising the trade-off each makes.
"""

import pytest

from repro.core import MerlinCompiler, PathSelectionHeuristic, ProvisionOptions, compile_policy
from repro.lp import BACKENDS, BranchAndBoundSolver, ScipySolver
from repro.simulator.engine import FlowSimulator
from repro.simulator.flows import Flow
from repro.simulator.network import SimulationNetwork
from repro.topology.generators import dumbbell, fat_tree
from repro.units import Bandwidth

from conftest import format_table

_FIG3_POLICY = """
[ a : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 80) -> .* ;
  b : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 22) -> .* ],
min(a, 50MB/s) and min(b, 50MB/s)
"""


def _guaranteed_fat_tree_policy(topology, pairs=6, rate=Bandwidth.mbps(100)):
    hosts = topology.host_names()
    statements, clauses = [], []
    for index in range(pairs):
        source = hosts[index]
        destination = hosts[-(index + 1)]
        statements.append(
            f"g{index} : (eth.src = {topology.node(source).mac} and "
            f"eth.dst = {topology.node(destination).mac}) -> .*"
        )
        clauses.append(f"min(g{index}, {rate.policy_literal()})")
    return "[ " + " ; ".join(statements) + " ], " + " and ".join(clauses)


def _run_solver_ablation():
    topology = fat_tree(4)
    policy = _guaranteed_fat_tree_policy(topology)
    rows = []
    for name, solver in (
        ("scipy-highs", ScipySolver()),
        ("branch-and-bound", BranchAndBoundSolver()),
    ):
        compiler = MerlinCompiler(
            topology=topology,
            overlap="trust",
            generate_code=False,
            options=ProvisionOptions(solver=solver),
        )
        result = compiler.compile(policy)
        rows.append(
            {
                "solver": name,
                "lp_solve_ms": result.statistics.lp_solve_seconds * 1000.0,
                "max_utilization": result.max_link_utilization(),
                "paths": len(result.paths),
            }
        )
    return rows


def test_ablation_solver_backends(report):
    rows = _run_solver_ablation()
    report(
        "ablation_solvers",
        format_table(rows, ["solver", "lp_solve_ms", "max_utilization", "paths"],
                     title="Ablation: MIP solver backends on a fat-tree provisioning problem"),
    )
    # Both backends provision every guaranteed statement and respect capacity.
    assert all(row["paths"] == 6 for row in rows)
    assert all(row["max_utilization"] <= 1.0 + 1e-6 for row in rows)
    # Both reach the same optimal max-utilisation (they solve the same MIP).
    assert rows[0]["max_utilization"] == pytest.approx(
        rows[1]["max_utilization"], abs=0.02
    )


def _run_heuristic_ablation():
    topology = dumbbell()
    rows = []
    for heuristic in PathSelectionHeuristic:
        result = compile_policy(_FIG3_POLICY, topology, {}, heuristic=heuristic)
        total_hops = sum(
            assignment.hop_count()
            for name, assignment in result.paths.items()
            if name in ("a", "b")
        )
        rows.append(
            {
                "heuristic": heuristic.value,
                "total_hops": total_hops,
                "r_max": result.max_link_utilization(),
                "R_max_mbps": result.max_link_reservation().mbps_value,
            }
        )
    return rows


def _run_portfolio_ablation():
    """One row per backend name on the smoke fat-tree workload."""
    topology = fat_tree(4)
    policy = _guaranteed_fat_tree_policy(topology)
    rows = []
    for name in BACKENDS:
        compiler = MerlinCompiler(
            topology=topology,
            overlap="trust",
            generate_code=False,
            options=ProvisionOptions(solver=name),
        )
        result = compiler.compile(policy)
        rows.append(
            {
                "backend": name,
                "lp_solve_ms": result.statistics.lp_solve_seconds * 1000.0,
                "max_utilization": result.max_link_utilization(),
            }
        )
    return rows


def test_ablation_portfolio(report):
    rows = _run_portfolio_ablation()
    report(
        "ablation_portfolio",
        format_table(rows, ["backend", "lp_solve_ms", "max_utilization"],
                     title="Ablation: solver backends by name on the smoke fat-tree workload"),
    )
    by_name = {row["backend"]: row for row in rows}
    # Every backend — including the anytime heuristic — stays feasible.
    assert all(row["max_utilization"] <= 1.0 + 1e-6 for row in rows)
    # The exact backends solve the same MIP to the same optimum.
    assert by_name["bnb"]["max_utilization"] == pytest.approx(
        by_name["scipy"]["max_utilization"], abs=1e-6
    )
    # Heuristic vs exact: within the stated bound of the scipy optimum.
    # Latencies are in the report table only: a wall-clock threshold in
    # the tier-1 gate fails under load and proves nothing when it passes.
    assert by_name["heuristic"]["max_utilization"] <= (
        by_name["scipy"]["max_utilization"] + 0.25
    )


#: The anytime demo solves one undecomposed model large enough that the
#: exact pure-Python branch-and-bound visibly outlasts the primal heuristic
#: (the report table shows both latencies).
_ANYTIME_STATEMENTS = 128
_ANYTIME_RATE = Bandwidth.mbps(25)


def _anytime_policy(topology):
    hosts = topology.host_names()
    count = len(hosts)
    statements, clauses = [], []
    for index in range(_ANYTIME_STATEMENTS):
        source = hosts[index % count]
        destination = hosts[(index + count // 2) % count]
        statements.append(
            f"g{index} : (eth.src = {topology.node(source).mac} and "
            f"eth.dst = {topology.node(destination).mac} and "
            f"tcp.dst = {8000 + index}) -> .*"
        )
        clauses.append(f"min(g{index}, {_ANYTIME_RATE.policy_literal()})")
    return "[ " + " ; ".join(statements) + " ], " + " and ".join(clauses)


def _compile_anytime(solver):
    topology = fat_tree(4)
    compiler = MerlinCompiler(
        topology=topology,
        overlap="trust",
        generate_code=False,
        options=ProvisionOptions(
            solver=solver, partition=False, footprint_slack=None
        ),
    )
    return topology, compiler.compile(_anytime_policy(topology))


def _simulator_satisfies_guarantees(topology, result):
    """Every guaranteed statement reaches its full rate in the simulator."""
    flows = []
    for identifier, allocation in sorted(result.rates.items()):
        if not allocation.is_guaranteed:
            continue
        assignment = result.paths.get(identifier)
        if assignment is None or len(assignment.path) < 2:
            continue
        guarantee = allocation.guarantee.bps_value
        flows.append(
            Flow(
                flow_id=identifier,
                path=assignment.path,
                demand_bps=guarantee,
                guarantee_bps=guarantee,
                statement_id=identifier,
            )
        )
    assert flows, "the anytime workload must produce guaranteed flows"
    simulator = FlowSimulator(SimulationNetwork(topology, result))
    for flow in flows:
        simulator.add_flow(flow)
    rates = simulator.current_rates()
    return all(
        rates.get(flow.flow_id, 0.0) >= flow.guarantee_bps * (1.0 - 1e-9)
        for flow in flows
    )


def test_portfolio_anytime_heuristic_beats_exact_latency(report):
    topology, heuristic = _compile_anytime("heuristic")
    _, exact = _compile_anytime(BranchAndBoundSolver())
    rows = [
        {
            "method": method,
            "lp_solve_ms": result.statistics.lp_solve_seconds * 1000.0,
            "max_utilization": result.max_link_utilization(),
        }
        for method, result in (
            ("heuristic", heuristic),
            ("exact (branch-and-bound)", exact),
        )
    ]
    report(
        "portfolio_anytime",
        format_table(rows, ["method", "lp_solve_ms", "max_utilization"],
                     title="Anytime primal heuristic vs exact solve "
                           f"({_ANYTIME_STATEMENTS} statements, fat-tree k=4)"),
    )
    # The heuristic's allocation is feasible and the fluid simulator
    # confirms every guarantee is actually delivered end to end.
    assert heuristic.max_link_utilization() <= 1.0 + 1e-6
    assert _simulator_satisfies_guarantees(topology, heuristic)
    # What separates the two backends and repeats exactly on any machine:
    # the heuristic returns an unproven incumbent without a single
    # branch-and-bound node, the exact solve proves optimality by search.
    # The two latencies are in the report table only — wall-clock
    # thresholds fail under load, and no performance claim cites this file.
    assert heuristic.statistics.solver_status == "feasible"
    assert heuristic.statistics.mip_nodes == 0
    assert heuristic.statistics.component_backends == ("heuristic",)
    assert exact.statistics.solver_status == "optimal"
    assert exact.statistics.mip_nodes >= 1
    # Near-optimal without the search.
    assert heuristic.max_link_utilization() <= (
        exact.max_link_utilization() + 0.25
    )


def test_ablation_path_selection_heuristics(report):
    rows = _run_heuristic_ablation()
    report(
        "ablation_heuristics",
        format_table(rows, ["heuristic", "total_hops", "r_max", "R_max_mbps"],
                     title="Ablation: path-selection heuristics on the Figure 3 dumbbell"),
    )
    by_name = {row["heuristic"]: row for row in rows}
    # Each heuristic optimises its own criterion (Figure 3).
    assert by_name["weighted-shortest-path"]["total_hops"] == min(
        row["total_hops"] for row in rows
    )
    assert by_name["min-max-ratio"]["r_max"] == min(row["r_max"] for row in rows)
    assert by_name["min-max-reserved"]["R_max_mbps"] == min(
        row["R_max_mbps"] for row in rows
    )
