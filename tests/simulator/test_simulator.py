"""Tests for the flow-level simulator: fair sharing, the engine, routing
through compiled policies, and the application models."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.core import compile_policy
from repro.packet import make_packet
from repro.simulator import (
    Flow,
    FlowSimulator,
    SimulationNetwork,
    allocate_rates,
    elastic_flow,
)
from repro.simulator.flows import path_links
from repro.simulator.apps import HadoopJob, RingPaxosExperiment, RingPaxosService
from repro.simulator.apps.hadoop import udp_interference
from repro.topology.generators import figure2_example, linear, single_switch
from repro.units import Bandwidth

GBPS = 1e9


def _link_caps(*pairs, capacity=GBPS):
    return {tuple(sorted(pair)): capacity for pair in pairs}


class TestFairShare:
    def test_single_flow_gets_link_capacity(self):
        flow = Flow("f", ("h1", "s1", "h2"))
        caps = _link_caps(("h1", "s1"), ("s1", "h2"))
        rates = allocate_rates([flow], caps)
        assert rates["f"] == pytest.approx(GBPS)

    def test_equal_split_on_shared_link(self):
        flows = [Flow(f"f{i}", ("h1", "s1", "h2")) for i in range(4)]
        caps = _link_caps(("h1", "s1"), ("s1", "h2"))
        rates = allocate_rates(flows, caps)
        for flow in flows:
            assert rates[flow.flow_id] == pytest.approx(GBPS / 4, rel=1e-3)

    def test_demand_limited_flow_releases_capacity(self):
        small = Flow("small", ("h1", "s1", "h2"), demand_bps=100e6)
        big = Flow("big", ("h1", "s1", "h2"))
        rates = allocate_rates([small, big], _link_caps(("h1", "s1"), ("s1", "h2")))
        assert rates["small"] == pytest.approx(100e6, rel=1e-3)
        assert rates["big"] == pytest.approx(900e6, rel=1e-3)

    def test_guarantee_protects_flow(self):
        protected = Flow("protected", ("h1", "s1", "h2"), guarantee_bps=800e6)
        other = [Flow(f"o{i}", ("h1", "s1", "h2")) for i in range(4)]
        rates = allocate_rates([protected, *other], _link_caps(("h1", "s1"), ("s1", "h2")))
        assert rates["protected"] >= 800e6 - 1e3

    def test_unused_guarantee_is_work_conserving(self):
        idle = Flow("idle", ("h1", "s1", "h2"), guarantee_bps=800e6, demand_bps=0.0)
        busy = Flow("busy", ("h1", "s1", "h2"))
        rates = allocate_rates([idle, busy], _link_caps(("h1", "s1"), ("s1", "h2")))
        assert rates["busy"] == pytest.approx(GBPS, rel=1e-3)

    def test_cap_enforced(self):
        capped = Flow("capped", ("h1", "s1", "h2"), cap_bps=200e6)
        rates = allocate_rates([capped], _link_caps(("h1", "s1"), ("s1", "h2")))
        assert rates["capped"] == pytest.approx(200e6, rel=1e-3)

    def test_unresponsive_flows_take_their_demand_first(self):
        udp = Flow("udp", ("h1", "s1", "h2"), demand_bps=800e6, responsive=False)
        tcp = Flow("tcp", ("h1", "s1", "h2"))
        rates = allocate_rates([udp, tcp], _link_caps(("h1", "s1"), ("s1", "h2")))
        assert rates["udp"] == pytest.approx(800e6, rel=1e-3)
        assert rates["tcp"] == pytest.approx(200e6, rel=1e-3)

    def test_oversubscribed_guarantees_rejected(self):
        flows = [
            Flow("a", ("h1", "s1", "h2"), guarantee_bps=700e6),
            Flow("b", ("h1", "s1", "h2"), guarantee_bps=700e6),
        ]
        with pytest.raises(SimulationError):
            allocate_rates(flows, _link_caps(("h1", "s1"), ("s1", "h2")))

    def test_unknown_link_rejected(self):
        with pytest.raises(SimulationError):
            allocate_rates([Flow("f", ("h1", "sX", "h2"))], _link_caps(("h1", "s1")))

    def test_bottleneck_on_different_links(self):
        # f1 crosses a 100 Mbps link; f2 only the 1 Gbps link they share.
        caps = {("a", "b"): GBPS, ("b", "c"): 100e6}
        f1 = Flow("f1", ("a", "b", "c"))
        f2 = Flow("f2", ("a", "b"))
        rates = allocate_rates([f1, f2], caps)
        assert rates["f1"] == pytest.approx(100e6, rel=1e-3)
        assert rates["f2"] == pytest.approx(GBPS - 100e6, rel=1e-3)

    # -- properties ------------------------------------------------------------

    @settings(max_examples=60, deadline=None)
    @given(
        demands=st.lists(
            st.floats(min_value=1e6, max_value=2e9), min_size=1, max_size=6
        ),
        guarantees=st.lists(
            st.floats(min_value=0, max_value=1.5e8), min_size=1, max_size=6
        ),
    )
    def test_invariants_on_shared_link(self, demands, guarantees):
        size = min(len(demands), len(guarantees))
        flows = [
            Flow(
                f"f{i}",
                ("h1", "s1", "h2"),
                demand_bps=demands[i],
                guarantee_bps=guarantees[i],
            )
            for i in range(size)
        ]
        caps = _link_caps(("h1", "s1"), ("s1", "h2"))
        rates = allocate_rates(flows, caps)
        total = sum(rates.values())
        # Capacity is never exceeded.
        assert total <= GBPS + 1.0
        for flow in flows:
            # No flow exceeds its demand...
            assert rates[flow.flow_id] <= flow.demand_bps + 1.0
            # ...and every flow receives min(guarantee, demand).
            assert rates[flow.flow_id] >= min(flow.guarantee_bps, flow.demand_bps) - 1.0
        # Work conservation: if someone still wants more, the link is (almost) full.
        if any(rates[f.flow_id] < f.demand_bps - 1.0 for f in flows):
            assert total == pytest.approx(GBPS, rel=1e-3)


class TestEngine:
    def test_transfer_completion_time(self):
        network = SimulationNetwork(single_switch(2))
        simulator = FlowSimulator(network)
        simulator.add_flow(elastic_flow(network, "t", "h1", "h2", size_bytes=125e6))
        simulator.run_until(100.0)
        stats = {s.flow_id: s for s in simulator.stats()}
        # 125 MB over 1 Gbps = 1 second.
        assert stats["t"].completion_time == pytest.approx(1.0, rel=1e-2)

    def test_two_transfers_share_then_speed_up(self):
        network = SimulationNetwork(single_switch(3))
        simulator = FlowSimulator(network)
        simulator.add_flow(elastic_flow(network, "a", "h1", "h3", size_bytes=125e6))
        simulator.add_flow(elastic_flow(network, "b", "h2", "h3", size_bytes=62.5e6))
        simulator.run_until(100.0)
        stats = {s.flow_id: s for s in simulator.stats()}
        # Both share h3's 1 Gbps link; b finishes first, then a speeds up.
        assert stats["b"].completion_time == pytest.approx(1.0, rel=0.05)
        assert stats["a"].completion_time == pytest.approx(1.5, rel=0.05)

    def test_scheduled_events_fire(self):
        network = SimulationNetwork(single_switch(2))
        simulator = FlowSimulator(network)
        simulator.schedule(
            1.0,
            lambda sim: sim.add_flow(
                elastic_flow(network, "late", "h1", "h2", size_bytes=125e6, start_time=1.0)
            ),
        )
        simulator.run_until(10.0)
        stats = {s.flow_id: s for s in simulator.stats()}
        assert stats["late"].completion_time == pytest.approx(2.0, rel=0.05)

    def test_duplicate_flow_rejected(self):
        network = SimulationNetwork(single_switch(2))
        simulator = FlowSimulator(network)
        simulator.add_flow(elastic_flow(network, "x", "h1", "h2", size_bytes=1e6))
        with pytest.raises(SimulationError):
            simulator.add_flow(elastic_flow(network, "x", "h2", "h1", size_bytes=1e6))

    def test_path_links_helper(self):
        assert path_links(["h1", "s1", "s1", "h2"]) == [("h1", "s1"), ("h2", "s1")]


class TestNetworkBinding:
    def test_routes_follow_compiled_paths(self, figure2_topology, figure2_placements):
        from tests.conftest import RUNNING_EXAMPLE_SOURCE

        compiled = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        network = SimulationNetwork(figure2_topology, compiled)
        packet = make_packet(
            eth_src="00:00:00:00:00:01", eth_dst="00:00:00:00:00:02",
            ip_proto="tcp", tcp_dst=80,
        )
        statement = network.classify(packet)
        assert statement == "z"
        path = network.route("h1", "h2", statement)
        assert path == compiled.paths["z"].path
        guarantee, cap = network.rate_limits(statement)
        assert guarantee == pytest.approx(Bandwidth.mb_per_sec(100).bps_value)
        assert math.isinf(cap)

    def test_uncompiled_network_uses_shortest_path(self):
        network = SimulationNetwork(linear(3))
        path = network.route("h1", "h3")
        assert path[0] == "h1" and path[-1] == "h3"

    def test_flow_inherits_cap(self, figure2_topology, figure2_placements):
        from tests.conftest import RUNNING_EXAMPLE_SOURCE

        compiled = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        network = SimulationNetwork(figure2_topology, compiled)
        packet = make_packet(
            eth_src="00:00:00:00:00:01", eth_dst="00:00:00:00:00:02",
            ip_proto="tcp", tcp_dst=21,
        )
        flow = network.build_flow("ftp", "h1", "h2", packet=packet)
        assert flow.cap_bps == pytest.approx(Bandwidth.mb_per_sec(25).bps_value)


class TestApplications:
    def test_hadoop_interference_and_guarantee_shape(self):
        topology = single_switch(6)
        plain = SimulationNetwork(topology)
        job = HadoopJob(workers=["h1", "h2", "h3", "h4"], data_bytes=10e9,
                        compute_seconds=400.0)
        baseline = job.run(plain)

        background = udp_interference(
            plain, [("h5", "h1"), ("h6", "h2")], Bandwidth.mbps(800)
        )
        interfered = job.run(plain, background_flows=background)

        # Merlin policy guaranteeing 150 Mbps to every worker pair's shuffle flow.
        statements, clauses = [], []
        index = 0
        for src in ["h1", "h2", "h3", "h4"]:
            for dst in ["h1", "h2", "h3", "h4"]:
                if src == dst:
                    continue
                index += 1
                statements.append(
                    f"hd{index} : (eth.src = {topology.node(src).mac} and "
                    f"eth.dst = {topology.node(dst).mac} and tcp.dst = 50010) -> .*"
                )
                clauses.append(f"min(hd{index}, 150Mbps)")
        policy = "[ " + " ; ".join(statements) + " ], " + " and ".join(clauses)
        compiled = compile_policy(policy, topology, {}, overlap="trust")
        protected = SimulationNetwork(topology, compiled)
        guaranteed = job.run(
            protected,
            background_flows=udp_interference(
                protected, [("h5", "h1"), ("h6", "h2")], Bandwidth.mbps(800)
            ),
        )

        # Shape of §6.2: interference slows the job noticeably; the guarantee
        # recovers most of the loss.
        assert interfered.completion_seconds > baseline.completion_seconds * 1.1
        assert guaranteed.completion_seconds < interfered.completion_seconds
        assert guaranteed.completion_seconds < baseline.completion_seconds * 1.15

    def test_ring_paxos_guarantee_protects_service2(self):
        topology = single_switch(3)
        shared = SimulationNetwork(topology)
        service1 = RingPaxosService("ring1", "h1", "h3")
        service2 = RingPaxosService("ring2", "h2", "h3")
        experiment = RingPaxosExperiment(shared, service1, service2)
        saturated = experiment.throughput_at(60, 60)
        # Without Merlin both services get a similar share of the bottleneck.
        assert saturated["ring1"] == pytest.approx(saturated["ring2"], rel=0.1)

        policy = (
            f"[ r2 : (eth.src = {topology.node('h2').mac} and "
            f"eth.dst = {topology.node('h3').mac} and tcp.dst = 8600) -> .* ],"
            "min(r2, 700Mbps)"
        )
        compiled = compile_policy(policy, topology, {})
        protected = SimulationNetwork(topology, compiled)
        experiment2 = RingPaxosExperiment(protected, service1, service2)
        shielded = experiment2.throughput_at(60, 60)
        assert shielded["ring2"] > saturated["ring2"] * 1.3
        # Work conservation: when service 2 idles, service 1 reclaims the link.
        idle2 = experiment2.throughput_at(60, 0)
        assert idle2["ring1"] > shielded["ring1"] * 1.5
