"""Policy construction for the expressiveness and scalability experiments.

The five Figure 4 policies are built programmatically on the Stanford-like
campus topology (§6.1):

1. **Baseline** — all-pairs connectivity.
2. **Bandwidth** — baseline plus guarantees (1 Mbps) and caps (1 Gbps) for a
   fraction of the traffic classes.
3. **Firewall** — incoming web traffic is forced through a DPI middlebox.
4. **Monitoring middlebox** — hosts are split into two zones; cross-zone
   traffic must traverse a monitoring middlebox.
5. **Combination** — connectivity + web filter + guarantees + inspection.

The same builders serve the scalability experiments (Figures 7 and 8), which
need all-pairs policies with a guaranteed subset on arbitrary topologies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ast import (
    BandwidthTerm,
    FMax,
    FMin,
    Formula,
    Policy,
    Statement,
    formula_and,
)
from ..predicates.ast import FieldTest, Predicate, pred_and, pred_not
from ..regex.ast import any_path
from ..regex.parser import parse_path_expression
from ..topology.graph import Topology
from ..topology.generators import stanford_campus
from ..topology.traffic import TrafficClass, all_pairs_traffic, select_guaranteed
from ..units import Bandwidth


def _pair_predicate(topology: Topology, source: str, destination: str) -> Predicate:
    """``eth.src = <source MAC> and eth.dst = <destination MAC>``."""
    return pred_and(
        FieldTest("eth.src", topology.node(source).mac),
        FieldTest("eth.dst", topology.node(destination).mac),
    )


def statements_for_classes(
    topology: Topology,
    classes: Sequence[TrafficClass],
    path_source: str = ".*",
    extra_predicate: Optional[Predicate] = None,
) -> Tuple[List[Statement], List[Formula]]:
    """One statement per traffic class, plus min/max clauses for guaranteed ones."""
    path = parse_path_expression(path_source)
    statements: List[Statement] = []
    clauses: List[Formula] = []
    for index, traffic_class in enumerate(classes):
        identifier = f"t{index}"
        predicate = _pair_predicate(
            topology, traffic_class.source, traffic_class.destination
        )
        if extra_predicate is not None:
            predicate = pred_and(predicate, extra_predicate)
        statements.append(Statement(identifier, predicate, path))
        term = BandwidthTerm(identifiers=(identifier,))
        if traffic_class.guarantee is not None:
            clauses.append(FMin(term, traffic_class.guarantee))
        if traffic_class.cap is not None:
            clauses.append(FMax(term, traffic_class.cap))
    return statements, clauses


def all_pairs_policy(
    topology: Topology,
    guarantee_fraction: float = 0.0,
    guarantee: Bandwidth = Bandwidth.mbps(1),
    cap: Optional[Bandwidth] = None,
    seed: int = 0,
    max_classes: Optional[int] = None,
) -> Policy:
    """All-pairs connectivity, optionally with a guaranteed subset of classes."""
    classes = all_pairs_traffic(topology)
    if max_classes is not None:
        classes = classes[:max_classes]
    if guarantee_fraction > 0:
        classes = select_guaranteed(classes, guarantee_fraction, guarantee, cap, seed)
    statements, clauses = statements_for_classes(topology, classes)
    return Policy(statements=tuple(statements), formula=formula_and(*clauses))


# ---------------------------------------------------------------------------
# The five Figure 4 policies
# ---------------------------------------------------------------------------


def stanford_with_middleboxes(subnets: int = 24) -> Topology:
    """The Stanford-like campus topology with DPI/monitor middleboxes attached.

    A DPI middlebox hangs off each backbone router (used by the firewall and
    combination policies) and a monitoring middlebox hangs off the first two
    zone routers (used by the monitoring policy).
    """
    topology = stanford_campus(subnets=subnets)
    topology.add_middlebox("dpi1", attached_switch="bbra_rtr")
    topology.add_link("dpi1", "bbra_rtr")
    topology.add_middlebox("dpi2", attached_switch="bbrb_rtr")
    topology.add_link("dpi2", "bbrb_rtr")
    topology.add_middlebox("mon1", attached_switch="zone1_rtr")
    topology.add_link("mon1", "zone1_rtr")
    topology.add_middlebox("mon2", attached_switch="zone2_rtr")
    topology.add_link("mon2", "zone2_rtr")
    return topology


#: Function placement map used by the Figure 4 policies.
FIGURE4_PLACEMENTS: Dict[str, Tuple[str, ...]] = {
    "dpi": ("dpi1", "dpi2"),
    "monitor": ("mon1", "mon2"),
}


def baseline_policy(topology: Topology) -> Policy:
    """Figure 4 policy 1: all-pairs connectivity."""
    return all_pairs_policy(topology)


def bandwidth_policy(
    topology: Topology,
    guarantee_fraction: float = 0.10,
    guarantee: Bandwidth = Bandwidth.mbps(1),
    cap: Bandwidth = Bandwidth.gbps(1),
    seed: int = 0,
) -> Policy:
    """Figure 4 policy 2: connectivity plus caps and guarantees for a fraction
    of the traffic classes (e.g. prioritised emergency messages)."""
    return all_pairs_policy(
        topology,
        guarantee_fraction=guarantee_fraction,
        guarantee=guarantee,
        cap=cap,
        seed=seed,
    )


def firewall_policy(topology: Topology) -> Policy:
    """Figure 4 policy 3: incoming web traffic must traverse a DPI middlebox."""
    classes = all_pairs_traffic(topology)
    web = FieldTest("tcp.dst", 80)
    web_statements, _ = statements_for_classes(
        topology, classes, path_source=".* dpi .*", extra_predicate=web
    )
    other_statements, _ = statements_for_classes(
        topology, classes, path_source=".*", extra_predicate=pred_not(web)
    )
    renamed = [
        Statement(f"w{index}", statement.predicate, statement.path)
        for index, statement in enumerate(web_statements)
    ]
    return Policy(statements=tuple(renamed + other_statements))


def monitoring_policy(topology: Topology) -> Policy:
    """Figure 4 policy 4: traffic between the two host zones passes a monitor."""
    hosts = topology.host_names()
    half = len(hosts) // 2
    zone_a, zone_b = set(hosts[:half]), set(hosts[half:])
    monitored = parse_path_expression(".* monitor .*")
    direct = any_path()
    statements: List[Statement] = []
    index = 0
    for source in hosts:
        for destination in hosts:
            if source == destination:
                continue
            crosses = (source in zone_a) != (destination in zone_a)
            statements.append(
                Statement(
                    f"m{index}",
                    _pair_predicate(topology, source, destination),
                    monitored if crosses else direct,
                )
            )
            index += 1
    return Policy(statements=tuple(statements))


def combination_policy(
    topology: Topology,
    guarantee_fraction: float = 0.10,
    guarantee: Bandwidth = Bandwidth.mbps(1),
    seed: int = 0,
) -> Policy:
    """Figure 4 policy 5: web filtering + bandwidth guarantees + inspection."""
    classes = all_pairs_traffic(topology)
    guaranteed_classes = select_guaranteed(classes, guarantee_fraction, guarantee, seed=seed)
    web = FieldTest("tcp.dst", 80)
    statements: List[Statement] = []
    clauses: List[Formula] = []
    hosts = topology.host_names()
    inspected_hosts = set(hosts[: max(1, len(hosts) // 4)])
    for index, traffic_class in enumerate(guaranteed_classes):
        base_predicate = _pair_predicate(
            topology, traffic_class.source, traffic_class.destination
        )
        # Web traffic of this pair goes through the DPI filter.
        statements.append(
            Statement(
                f"web{index}",
                pred_and(base_predicate, web),
                parse_path_expression(".* dpi .*"),
            )
        )
        # Remaining traffic: inspected if the source is an untrusted host.
        path = (
            parse_path_expression(".* monitor .*")
            if traffic_class.source in inspected_hosts
            else any_path()
        )
        identifier = f"rest{index}"
        statements.append(
            Statement(identifier, pred_and(base_predicate, pred_not(web)), path)
        )
        if traffic_class.guarantee is not None:
            clauses.append(
                FMin(BandwidthTerm(identifiers=(identifier,)), traffic_class.guarantee)
            )
    return Policy(statements=tuple(statements), formula=formula_and(*clauses))


#: The Merlin source-code sizes reported in §6.1 for the five policies.
FIGURE4_POLICY_LOC = {
    "baseline": 6,
    "bandwidth": 11,
    "firewall": 23,
    "monitoring": 11,
    "combination": 23,
}
