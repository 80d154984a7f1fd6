"""End-to-end backend selection: string names, the default rule, heuristic.

The backend layer's contract at the compiler/service level:

* every entry point that accepts a solver instance accepts a backend name
  (``MerlinCompiler`` via :class:`ProvisionOptions`, ``recompile()``,
  ``ControlPlane.submit()``);
* leaving ``solver`` unset is the same as naming the default backend:
  ``"scipy"``, or ``"bnb"`` under a node limit;
* the ``heuristic`` backend's allocation is feasible and its bottleneck
  utilisation is within a stated bound of the exact optimum;
* the chosen backend names surface per component in
  ``CompilationStatistics.component_backends`` and the daemon's
  ``BatchRecord.backends``.
"""

import asyncio

import pytest

from repro.core import MerlinCompiler, ProvisionOptions
from repro.core.ast import Statement
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.incremental import DeltaStatement, PolicyDelta
from repro.lp import BACKENDS, ScipySolver
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.parser import parse_path_expression
from repro.service import ControlPlane
from repro.topology.generators import figure2_example
from repro.topology.graph import Topology
from repro.units import Bandwidth

FIG2_SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* ],
min(x, 25MB/s) and min(z, 50MB/s)
"""
FIG2_PLACEMENTS = {"dpi": ("h1", "h2", "m1"), "nat": ("m1",)}

#: The heuristic trades optimality for latency; on these small workloads its
#: bottleneck utilisation must stay within this much of the exact optimum.
HEURISTIC_UTILIZATION_BOUND = 0.25


def _fig2_compiler(solver, **options_kwargs):
    return MerlinCompiler(
        topology=figure2_example(capacity=Bandwidth.gbps(2)),
        placements=FIG2_PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=ProvisionOptions(solver=solver, **options_kwargs),
    )


def _pod_compiler(scenario, solver, **options_kwargs):
    return MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=ProvisionOptions(solver=solver, **options_kwargs),
    )


def _allocation(result):
    """The allocation as comparable data: paths plus link reservations."""
    return (
        {identifier: p.path for identifier, p in result.paths.items()},
        {key: value.bps_value for key, value in result.link_reservations.items()},
    )


class TestStringBackendsEndToEnd:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_provision_with_each_registered_name(self, name):
        result = _fig2_compiler(name).compile(FIG2_SOURCE)
        assert result.max_link_utilization() <= 1.0 + 1e-6
        assert set(result.paths) == {"x", "z"}
        backends = result.statistics.component_backends
        assert backends, "per-component backend names must be recorded"
        assert set(backends) == {name}

    def test_recompile_threads_the_backend_through(self):
        compiler = _fig2_compiler("bnb")
        compiler.compile(FIG2_SOURCE)
        statement = Statement(
            "w",
            pred_and(
                FieldTest("eth.src", "00:00:00:00:00:01"),
                pred_and(
                    FieldTest("eth.dst", "00:00:00:00:00:02"),
                    FieldTest("tcp.dst", 443),
                ),
            ),
            parse_path_expression(".* dpi .*"),
        )
        delta = PolicyDelta(
            add=(DeltaStatement(statement, guarantee=Bandwidth.mb_per_sec(5)),)
        )
        result = compiler.recompile(delta)
        assert "w" in result.paths
        assert set(result.statistics.component_backends) == {"bnb"}

    def test_control_plane_submit_records_backends(self):
        async def run():
            plane = ControlPlane()
            await plane.open_group(
                "g",
                FIG2_SOURCE,
                topology=figure2_example(capacity=Bandwidth.gbps(2)),
                placements=FIG2_PLACEMENTS,
                overlap="trust",
                add_catch_all=False,
                generate_code=False,
                options=ProvisionOptions(solver="bnb"),
            )
            statement = Statement(
                "w",
                pred_and(
                    FieldTest("eth.src", "00:00:00:00:00:01"),
                    pred_and(
                        FieldTest("eth.dst", "00:00:00:00:00:02"),
                        FieldTest("tcp.dst", 443),
                    ),
                ),
                parse_path_expression(".* dpi .*"),
            )
            ticket = plane.submit(
                "g",
                PolicyDelta(
                    add=(
                        DeltaStatement(
                            statement, guarantee=Bandwidth.mb_per_sec(5)
                        ),
                    )
                ),
                tenant="alice",
            )
            plane.start()
            await ticket.result()
            await plane.shutdown()
            return plane.query("g")

        state = asyncio.run(run())
        assert state.last_batch is not None
        assert set(state.last_batch.backends) == {"bnb"}


class TestTheDefaultIsANamedBackend:
    def test_unset_scipy_and_an_instance_are_the_same_solve(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        results = [
            _pod_compiler(scenario, solver).compile(scenario.policy)
            for solver in (None, "scipy", ScipySolver())
        ]
        baseline = results[0]
        assert len(baseline.statistics.component_backends) >= 2
        assert set(baseline.statistics.component_backends) == {"scipy"}
        for other in results[1:]:
            assert _allocation(other) == _allocation(baseline)
            assert (
                other.statistics.component_backends
                == baseline.statistics.component_backends
            )

    def test_a_node_limit_alone_means_branch_and_bound(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        result = _pod_compiler(scenario, None, node_limit=50_000).compile(
            scenario.policy
        )
        assert set(result.statistics.component_backends) == {"bnb"}
        assert result.statistics.solver_status == "optimal"


class TestALimitHitBeforeAnyIncumbent:
    """Two 1 Gbps paths between 10 Gbps host links: the relaxation splits
    the 800 Mbps statement across both, so the search must branch once
    before it holds an incumbent."""

    SOURCE = """
    [ z : (eth.src = 00:00:00:00:00:01 and
           eth.dst = 00:00:00:00:00:02 and tcp.dst = 80) -> .* ],
    min(z, 800Mbps)
    """

    @staticmethod
    def _compiler(**options_kwargs):
        diamond = Topology(name="diamond")
        diamond.add_host("h1", mac="00:00:00:00:00:01")
        diamond.add_host("h2", mac="00:00:00:00:00:02")
        for switch in ("s1", "up", "down", "s2"):
            diamond.add_switch(switch)
        diamond.add_link("h1", "s1", Bandwidth.gbps(10))
        diamond.add_link("s2", "h2", Bandwidth.gbps(10))
        for middle in ("up", "down"):
            diamond.add_link("s1", middle, Bandwidth.gbps(1))
            diamond.add_link(middle, "s2", Bandwidth.gbps(1))
        return MerlinCompiler(
            topology=diamond,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
            options=ProvisionOptions(**options_kwargs),
        )

    def test_a_node_limit_of_one_is_no_solution_found_not_a_solver_error(self):
        """Every rung of the ladder ends ``error`` — no solution and no
        proof — and the compile fails the way a timed-out one does."""
        with pytest.raises(
            ProvisioningError,
            match=r"statement group \[z\]: no solution found "
            r"\(solver status: error\)",
        ):
            self._compiler(node_limit=1).compile(self.SOURCE)

    def test_room_to_branch_finds_the_path(self):
        result = self._compiler(node_limit=50).compile(self.SOURCE)
        assert result.statistics.solver_status == "optimal"
        assert result.paths["z"].path in (
            ("h1", "s1", "up", "s2", "h2"),
            ("h1", "s1", "down", "s2", "h2"),
        )


class TestHeuristicAgainstExactOracle:
    @pytest.mark.parametrize("workload", ["figure2", "pod_tenant"])
    def test_feasible_and_within_bound(self, workload):
        if workload == "figure2":
            heuristic = _fig2_compiler("heuristic").compile(FIG2_SOURCE)
            exact = _fig2_compiler("bnb").compile(FIG2_SOURCE)
        else:
            scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
            heuristic = _pod_compiler(scenario, "heuristic").compile(
                scenario.policy
            )
            exact = _pod_compiler(scenario, "bnb").compile(scenario.policy)

        # Feasibility: no oversubscribed link, every statement routed on a
        # real source-to-sink path, full guarantees reserved.
        assert heuristic.max_link_utilization() <= 1.0 + 1e-6
        assert set(heuristic.paths) == set(exact.paths)
        for identifier, assignment in heuristic.paths.items():
            oracle = exact.paths[identifier]
            assert assignment.path[0] == oracle.path[0]
            assert assignment.path[-1] == oracle.path[-1]
        total_heuristic = sum(
            value.bps_value
            for value in heuristic.link_reservations.values()
        )
        assert total_heuristic > 0.0

        # Objective bound: the heuristic bottleneck is near the optimum.
        assert heuristic.max_link_utilization() <= (
            exact.max_link_utilization() + HEURISTIC_UTILIZATION_BOUND
        )
