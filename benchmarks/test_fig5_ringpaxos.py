"""Figure 5 — Ring Paxos throughput with and without a Merlin guarantee.

Paper observation: two replicated services competing for one machine's NIC
split the bottleneck roughly equally (Figure 5a); giving Service 2 a
guarantee protects its throughput without reducing aggregate utilisation,
and Service 1 reclaims the bandwidth whenever Service 2 idles (work
conservation, Figure 5b).
"""

import pytest

from repro.core import compile_policy
from repro.simulator import SimulationNetwork
from repro.simulator.apps import RingPaxosExperiment, RingPaxosService
from repro.topology.generators import single_switch

from conftest import format_table

CLIENT_COUNTS = [0, 10, 20, 40, 60, 80, 100, 120]


def _run():
    topology = single_switch(3)
    service1 = RingPaxosService("ring1", "h1", "h3")
    service2 = RingPaxosService("ring2", "h2", "h3")

    shared = RingPaxosExperiment(SimulationNetwork(topology), service1, service2)
    without_merlin = shared.sweep(CLIENT_COUNTS)

    policy = (
        f"[ r2 : (eth.src = {topology.node('h2').mac} and "
        f"eth.dst = {topology.node('h3').mac} and tcp.dst = 8600) -> .* ],"
        "min(r2, 700Mbps)"
    )
    compiled = compile_policy(policy, topology, {})
    protected = RingPaxosExperiment(
        SimulationNetwork(topology, compiled), service1, service2
    )
    with_merlin = protected.sweep(CLIENT_COUNTS)
    work_conserving = protected.throughput_at(120, 0)
    return without_merlin, with_merlin, work_conserving


def test_fig5_ring_paxos(report):
    without_merlin, with_merlin, work_conserving = _run()
    table_a = format_table(
        without_merlin, ["clients", "ring1", "ring2", "aggregate"],
        title="Figure 5(a): throughput (Mbps) without Merlin",
    )
    table_b = format_table(
        with_merlin, ["clients", "ring1", "ring2", "aggregate"],
        title="Figure 5(b): throughput (Mbps) with a guarantee for ring 2",
    )
    report("fig5_ringpaxos", table_a + "\n\n" + table_b)

    saturated_a = without_merlin[-1]
    saturated_b = with_merlin[-1]
    # (a) Without Merlin the two services share the bottleneck about equally.
    assert saturated_a["ring1"] == pytest.approx(saturated_a["ring2"], rel=0.15)
    # (b) The guarantee protects ring 2 ...
    assert saturated_b["ring2"] > saturated_a["ring2"] * 1.3
    # ... without sacrificing aggregate utilisation.
    assert saturated_b["aggregate"] == pytest.approx(saturated_a["aggregate"], rel=0.15)
    # Work conservation: ring 1 reclaims the bandwidth when ring 2 idles.
    assert work_conserving["ring1"] > saturated_b["ring1"] * 1.5
