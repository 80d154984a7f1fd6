"""Self-healing slack widening and topology deltas (failures/recoveries).

The engineered topology makes the cost-bound tightening artifact precise:
two 2-hop branches carry two 600 Mbps statements comfortably, and a 5-switch
backup chain sits 4 hops further away — outside the default footprint slack
of 2, inside a widened slack of 4.  Failing one branch makes the slack-2
pruned model infeasible (1.2 Gbps cannot share the one surviving 1 Gbps
branch) while the network itself stays feasible, which is exactly the case
the widening ladder must recover identically in ``compile`` and
``recompile``.
"""

import pytest

from repro.core import MerlinCompiler
from repro.core.options import MAX_WIDENED_SLACK, widen_slack
from repro.errors import ProvisioningError, TopologyError
from repro.incremental import PolicyDelta, RateUpdate, TopologyDelta
from repro.scenarios import allocations_match
from repro.telemetry import Telemetry
from repro.topology.graph import Topology
from repro.units import Bandwidth

SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* ;
  y : (eth.src = 00:00:00:00:00:03 and
       eth.dst = 00:00:00:00:00:04 and
       tcp.dst = 81) -> .* ],
min(x, 600Mbps) and min(y, 600Mbps)
"""

CHAIN = ("c1", "c2", "c3", "c4", "c5")


def _widening_topology() -> Topology:
    topology = Topology()
    topology.add_switch("s1")
    topology.add_switch("s2")
    # Each statement gets its own host pair so access links never bind;
    # the squeeze under test is in the s1-s2 fabric.
    topology.add_host("h1", mac="00:00:00:00:00:01", attached_switch="s1")
    topology.add_host("h2", mac="00:00:00:00:00:02", attached_switch="s2")
    topology.add_host("h3", mac="00:00:00:00:00:03", attached_switch="s1")
    topology.add_host("h4", mac="00:00:00:00:00:04", attached_switch="s2")
    capacity = Bandwidth.gbps(1)
    topology.add_link("h1", "s1", capacity)
    topology.add_link("h2", "s2", capacity)
    topology.add_link("h3", "s1", capacity)
    topology.add_link("h4", "s2", capacity)
    for branch in ("a", "b"):
        topology.add_switch(branch)
        topology.add_link("s1", branch, capacity)
        topology.add_link(branch, "s2", capacity)
    # The backup chain: h1-s1-c1-...-c5-s2-h2 is 8 links against the
    # branches' 4, so it is pruned at slack 2 and admitted at slack 4.
    previous = "s1"
    for name in CHAIN:
        topology.add_switch(name)
        topology.add_link(previous, name, capacity)
        previous = name
    topology.add_link(previous, "s2", capacity)
    return topology


def _compiler(topology) -> MerlinCompiler:
    return MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )


class TestWideningLadder:
    def test_geometric_progression(self):
        assert widen_slack(2) == 4
        assert widen_slack(4) == 8
        assert widen_slack(MAX_WIDENED_SLACK) is None

    def test_zero_steps_to_one(self):
        assert widen_slack(0) == 1

    def test_untightened_is_terminal(self):
        assert widen_slack(None) is None


class TestTopologyDeltaWidening:
    def test_branch_failure_recovers_by_widening(self):
        topology = _widening_topology()
        compiler = _compiler(topology)
        initial = compiler.compile(SOURCE)
        assert initial.statistics.slack_retries == 0

        degraded = compiler.recompile(TopologyDelta(fail_links=(("s1", "a"),)))

        assert degraded.statistics.slack_retries >= 1
        assert degraded.statistics.footprint_slack_used == 4.0
        paths = {identifier: p.path for identifier, p in degraded.paths.items()}
        assert set(paths) == {"x", "y"}
        # One statement took the surviving branch, the other the chain.
        on_chain = [
            identifier
            for identifier, path in paths.items()
            if any(switch in path for switch in CHAIN)
        ]
        assert len(on_chain) == 1
        for assignment in degraded.paths.values():
            assert "a" not in assignment.path

    def test_recompile_matches_fresh_compile_on_degraded_topology(self):
        topology = _widening_topology()
        compiler = _compiler(topology)
        compiler.compile(SOURCE)
        degraded = compiler.recompile(TopologyDelta(fail_links=(("s1", "a"),)))

        fresh = _compiler(topology.without(links=[("s1", "a")]))
        from_scratch = fresh.compile(SOURCE)
        assert from_scratch.statistics.slack_retries >= 1
        assert allocations_match(degraded, from_scratch)

    def test_recovery_restores_original_allocation(self):
        topology = _widening_topology()
        compiler = _compiler(topology)
        initial = compiler.compile(SOURCE)
        compiler.recompile(TopologyDelta(fail_links=(("s1", "a"),)))

        recovered = compiler.recompile(
            TopologyDelta(recover_links=(("s1", "a"),))
        )

        assert recovered.statistics.slack_retries == 0
        assert allocations_match(recovered, initial)

    def test_node_failure_keeps_named_references_valid(self):
        # Failing a switch that path expressions could name must degrade
        # the product graph, not raise a placement error.
        topology = _widening_topology()
        compiler = _compiler(topology)
        compiler.compile(SOURCE)

        degraded = compiler.recompile(TopologyDelta(fail_nodes=("a",)))

        assert degraded.statistics.slack_retries >= 1
        for assignment in degraded.paths.values():
            assert "a" not in assignment.path

    def test_statistics_surface_widening_in_row(self):
        topology = _widening_topology()
        compiler = _compiler(topology)
        compiler.compile(SOURCE)
        degraded = compiler.recompile(TopologyDelta(fail_links=(("s1", "a"),)))
        row = degraded.statistics.as_row()
        assert row["slack_retries"] >= 1.0
        assert row["footprint_slack_used"] == 4.0
        assert len(degraded.statistics.component_solve_seconds) >= 1

    def test_every_solve_on_the_ladder_is_one_component_solve_span(self):
        """The ladder's solves are spans in the order it made them: the
        slack-2 rung of {x, y} ends infeasible in its span, and the final
        component's span is the last one, its duration the statistics'."""
        compiler = _compiler(_widening_topology())
        compiler.compile(SOURCE)
        bundle = Telemetry.recording()
        with bundle.use():
            degraded = compiler.recompile(TopologyDelta(fail_links=(("s1", "a"),)))
        solves = [s for s in bundle.recorder.spans if s.name == "component_solve"]
        assert len(solves) == bundle.snapshot().counter_total("solver_calls") >= 2
        first, last = solves[0].attributes, solves[-1].attributes
        assert (first["members"], first["status"]) == ("x,y", "infeasible")
        assert (last["members"], last["status"]) == ("x,y", "optimal")
        assert degraded.statistics.component_solve_seconds == (solves[-1].duration,)


class TestTopologyDeltaValidation:
    @pytest.fixture
    def live(self):
        compiler = _compiler(_widening_topology())
        compiler.compile(SOURCE)
        return compiler

    def test_unknown_link_rejected(self, live):
        with pytest.raises(TopologyError):
            live.recompile(TopologyDelta(fail_links=(("s1", "nope"),)))

    def test_host_failure_rejected(self, live):
        with pytest.raises(ProvisioningError, match="host"):
            live.recompile(TopologyDelta(fail_nodes=("h1",)))

    def test_double_failure_rejected(self, live):
        live.recompile(TopologyDelta(fail_links=(("s1", "a"),)))
        with pytest.raises(ProvisioningError, match="already failed"):
            live.recompile(TopologyDelta(fail_links=(("s1", "a"),)))

    def test_recovering_healthy_link_rejected(self, live):
        with pytest.raises(ProvisioningError, match="not failed"):
            live.recompile(TopologyDelta(recover_links=(("s1", "a"),)))

    def test_recovering_healthy_node_rejected(self, live):
        with pytest.raises(ProvisioningError, match="not failed"):
            live.recompile(TopologyDelta(recover_nodes=("a",)))


class TestInfeasibleRollback:
    def test_genuine_infeasibility_rolls_back_and_session_survives(self):
        topology = _widening_topology()
        compiler = _compiler(topology)
        initial = compiler.compile(SOURCE)

        # Both branches gone: only the 1 Gbps chain survives, which cannot
        # carry 1.2 Gbps at any slack — a genuine infeasibility, reported
        # after the ladder reaches the untightened model.
        with pytest.raises(ProvisioningError):
            compiler.recompile(
                TopologyDelta(fail_links=(("s1", "a"), ("s1", "b")))
            )

        assert compiler.has_session
        # The rollback restored the pristine view: no failed elements, and
        # the session still accepts further deltas.
        after = compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("x", guarantee=Bandwidth.mbps(500)),)
            )
        )
        assert after.rates["x"].guarantee.bps_value == pytest.approx(500e6)
        restored = compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("x", guarantee=Bandwidth.mbps(600)),)
            )
        )
        assert allocations_match(restored, initial)
