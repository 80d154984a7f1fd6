"""§6.2 Hadoop — job completion time under interference and with guarantees.

Paper numbers: 466 s with exclusive network access, 558 s (+20%) with UDP
background traffic, 500 s when Merlin guarantees 90% of the capacity to
Hadoop.  The reproduction runs the same three configurations on the flow
simulator; the shape to reproduce is interference slowing the job by >10%
and the guarantee recovering most of the loss.
"""

from repro.core import compile_policy
from repro.simulator import SimulationNetwork
from repro.simulator.apps import HadoopJob
from repro.simulator.apps.hadoop import udp_interference
from repro.topology.generators import single_switch
from repro.units import Bandwidth

from conftest import format_table

WORKERS = ["h1", "h2", "h3", "h4"]
INTERFERERS = [("h5", "h1"), ("h6", "h2")]


def _guarantee_policy(topology, per_pair=Bandwidth.mbps(150)):
    statements, clauses = [], []
    index = 0
    for source in WORKERS:
        for destination in WORKERS:
            if source == destination:
                continue
            index += 1
            statements.append(
                f"hd{index} : (eth.src = {topology.node(source).mac} and "
                f"eth.dst = {topology.node(destination).mac} and tcp.dst = 50010) -> .*"
            )
            clauses.append(f"min(hd{index}, {per_pair.policy_literal()})")
    return "[ " + " ; ".join(statements) + " ], " + " and ".join(clauses)


def _run():
    topology = single_switch(6)
    job = HadoopJob(workers=WORKERS, data_bytes=10e9, compute_seconds=400.0)

    plain = SimulationNetwork(topology)
    baseline = job.run(plain)

    interfered = job.run(
        plain,
        background_flows=udp_interference(plain, INTERFERERS, Bandwidth.mbps(800)),
    )

    compiled = compile_policy(_guarantee_policy(topology), topology, {}, overlap="trust")
    protected = SimulationNetwork(topology, compiled)
    guaranteed = job.run(
        protected,
        background_flows=udp_interference(protected, INTERFERERS, Bandwidth.mbps(800)),
    )
    return baseline, interfered, guaranteed


def test_hadoop_guarantees(report):
    baseline, interfered, guaranteed = _run()
    rows = [
        {"configuration": "baseline (exclusive)", "paper_s": 466.0,
         "measured_s": baseline.completion_seconds,
         "shuffle_s": baseline.shuffle_seconds},
        {"configuration": "interference (UDP)", "paper_s": 558.0,
         "measured_s": interfered.completion_seconds,
         "shuffle_s": interfered.shuffle_seconds},
        {"configuration": "with 90% guarantee", "paper_s": 500.0,
         "measured_s": guaranteed.completion_seconds,
         "shuffle_s": guaranteed.shuffle_seconds},
    ]
    report(
        "hadoop_guarantees",
        format_table(rows, ["configuration", "paper_s", "measured_s", "shuffle_s"],
                     title="§6.2 Hadoop 10 GB sort completion time"),
    )
    # Shape assertions: interference hurts, the guarantee recovers most of it.
    assert interfered.completion_seconds > baseline.completion_seconds * 1.10
    assert guaranteed.completion_seconds < interfered.completion_seconds
    assert guaranteed.completion_seconds < baseline.completion_seconds * 1.15
