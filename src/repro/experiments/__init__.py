"""Experiment drivers reproducing the paper's evaluation (§6).

Each module builds the workloads, policies, and topologies of one experiment,
runs them, and returns plain rows / series: the program's own results and
statistics (``CompilationStatistics.as_row()``, or the duration of one
``telemetry.span`` around a call that returns none).  The figure scripts
under ``benchmarks/`` print those rows and assert the counts in them; nothing
here reads a clock, and ``bench/`` is the repo's one timing harness.

* :mod:`repro.experiments.policy_builders` — the five Figure 4 policies and
  generic all-pairs / guaranteed-subset policy construction.
* :mod:`repro.experiments.expressiveness` — Figure 4 (policy size vs emitted
  instruction counts).
* :mod:`repro.experiments.zoo` — Figure 6 (Topology-Zoo connectivity).
* :mod:`repro.experiments.scaling` — Figures 7 and 8 (fat-tree / balanced-tree
  compilation scaling).
* :mod:`repro.experiments.verification` — Figure 9 (negotiator verification
  scaling).
* :mod:`repro.experiments.adaptation` — Figure 10 (AIMD / MMFS adaptation).
* :mod:`repro.experiments.reprovisioning` — Figure 10b' (incremental
  re-provisioning vs full recompiles on pod-tenant fat trees).

The Hadoop (§6.2) and Ring Paxos (Figure 5) experiments run on the flow
simulator straight from their figure scripts.
"""

from .policy_builders import (
    all_pairs_policy,
    bandwidth_policy,
    combination_policy,
    firewall_policy,
    monitoring_policy,
    stanford_with_middleboxes,
)

__all__ = [
    "all_pairs_policy",
    "bandwidth_policy",
    "combination_policy",
    "firewall_policy",
    "monitoring_policy",
    "stanford_with_middleboxes",
]
