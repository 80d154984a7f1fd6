"""Topology generators for every network family used in the evaluation.

* :func:`fat_tree` and :func:`balanced_tree` back the scalability experiments
  of Figures 7 and 8.
* :func:`stanford_campus` approximates the 16-switch Stanford core campus
  network with 24 subnets used for the expressiveness experiment (Figure 4).
* :func:`topology_zoo_like` / :func:`topology_zoo_ensemble` synthesise an
  ensemble matching the Internet Topology Zoo statistics quoted in §6.3
  (262 topologies, mean 40 switches, standard deviation 30, largest 754) for
  the compilation-time experiment of Figure 6.
* :func:`dumbbell` reproduces the two-path example of Figure 3 used to
  illustrate the path-selection heuristics, and :func:`figure2_example`
  reproduces the tiny network of Figure 2.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..units import Bandwidth, LINE_RATE
from .graph import Topology


def single_switch(num_hosts: int = 2, capacity: Bandwidth = LINE_RATE) -> Topology:
    """One switch with ``num_hosts`` hosts attached (the "big switch" view)."""
    topo = Topology(name=f"single-switch-{num_hosts}")
    topo.add_switch("s1")
    for index in range(1, num_hosts + 1):
        host = f"h{index}"
        topo.add_host(host, attached_switch="s1")
        topo.add_link(host, "s1", capacity)
    return topo


def linear(
    num_switches: int,
    hosts_per_switch: int = 1,
    capacity: Bandwidth = LINE_RATE,
) -> Topology:
    """A chain of switches, each with ``hosts_per_switch`` hosts."""
    topo = Topology(name=f"linear-{num_switches}")
    for index in range(1, num_switches + 1):
        topo.add_switch(f"s{index}")
        if index > 1:
            topo.add_link(f"s{index - 1}", f"s{index}", capacity)
    host_index = 1
    for index in range(1, num_switches + 1):
        for _ in range(hosts_per_switch):
            host = f"h{host_index}"
            topo.add_host(host, attached_switch=f"s{index}")
            topo.add_link(host, f"s{index}", capacity)
            host_index += 1
    return topo


def figure2_example(capacity: Bandwidth = LINE_RATE) -> Topology:
    """The example network of Figure 2: h1 - s1 - s2 - h2 with middlebox m1 on s1.

    Deep packet inspection can run at h1, h2, or m1; NAT only at m1 (the
    placement mapping itself is supplied to the compiler separately).
    """
    topo = Topology(name="figure2")
    topo.add_switch("s1")
    topo.add_switch("s2")
    topo.add_host("h1", attached_switch="s1")
    topo.add_host("h2", attached_switch="s2")
    topo.add_middlebox("m1", attached_switch="s1")
    topo.add_link("h1", "s1", capacity)
    topo.add_link("m1", "s1", capacity)
    topo.add_link("s1", "s2", capacity)
    topo.add_link("h2", "s2", capacity)
    return topo


def dumbbell(
    left_capacity: Bandwidth = Bandwidth.mb_per_sec(400),
    right_capacity: Bandwidth = Bandwidth.mb_per_sec(100),
) -> Topology:
    """The two-disjoint-path network of Figure 3.

    Hosts ``h1`` and ``h2`` are connected by a three-link path of 400 MB/s
    links (via ``sa1``/``sa2``) and a two-link path of 100 MB/s links (via
    ``sb1``).  The path-selection heuristics choose differently on it:
    weighted shortest path prefers the short, thin path; min-max ratio and
    min-max reserved spread or minimise reservations.
    """
    topo = Topology(name="dumbbell")
    topo.add_switch("sa1")
    topo.add_switch("sa2")
    topo.add_switch("sb1")
    topo.add_host("h1", attached_switch="sa1")
    topo.add_host("h2", attached_switch="sa2")
    # Long, fat path: h1 - sa1 - sa2 - h2 (three links of left_capacity).
    topo.add_link("h1", "sa1", left_capacity)
    topo.add_link("sa1", "sa2", left_capacity)
    topo.add_link("sa2", "h2", left_capacity)
    # Short, thin path: h1 - sb1 - h2 (two links of right_capacity).
    topo.add_link("h1", "sb1", right_capacity)
    topo.add_link("sb1", "h2", right_capacity)
    return topo


def balanced_tree(
    depth: int = 2,
    fanout: int = 2,
    hosts_per_leaf: int = 2,
    capacity: Bandwidth = LINE_RATE,
) -> Topology:
    """A balanced switch tree of the given depth and fanout.

    Hosts attach to the leaf switches.  Used by Figure 8 (a)/(b).
    """
    topo = Topology(name=f"balanced-tree-d{depth}-f{fanout}")
    counter = [0]

    def new_switch() -> str:
        counter[0] += 1
        name = f"s{counter[0]}"
        topo.add_switch(name)
        return name

    root = new_switch()
    frontier = [root]
    for _ in range(depth):
        next_frontier: List[str] = []
        for parent in frontier:
            for _ in range(fanout):
                child = new_switch()
                topo.add_link(parent, child, capacity)
                next_frontier.append(child)
        frontier = next_frontier
    host_index = 1
    for leaf in frontier:
        for _ in range(hosts_per_leaf):
            host = f"h{host_index}"
            topo.add_host(host, attached_switch=leaf)
            topo.add_link(host, leaf, capacity)
            host_index += 1
    return topo


def fat_tree(k: int = 4, capacity: Bandwidth = LINE_RATE) -> Topology:
    """A standard k-ary fat tree (k pods, (k/2)^2 core switches, k^3/4 hosts).

    Used by the scalability experiments of Figures 7 and 8 (c)/(d).  ``k``
    must be even.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("fat-tree arity k must be an even integer >= 2")
    topo = Topology(name=f"fat-tree-k{k}")
    half = k // 2
    core = [[f"c{i}_{j}" for j in range(half)] for i in range(half)]
    for row in core:
        for name in row:
            topo.add_switch(name)
    host_index = 1
    for pod in range(k):
        aggregation = [f"a{pod}_{i}" for i in range(half)]
        edge = [f"e{pod}_{i}" for i in range(half)]
        for name in aggregation + edge:
            topo.add_switch(name)
        for agg_index, agg in enumerate(aggregation):
            for edge_switch in edge:
                topo.add_link(agg, edge_switch, capacity)
            for j in range(half):
                topo.add_link(agg, core[agg_index][j], capacity)
        for edge_switch in edge:
            for _ in range(half):
                host = f"h{host_index}"
                topo.add_host(host, attached_switch=edge_switch)
                topo.add_link(host, edge_switch, capacity)
                host_index += 1
    return topo


def stanford_campus(capacity: Bandwidth = LINE_RATE, subnets: int = 24) -> Topology:
    """An approximation of the 16-switch Stanford core campus network.

    The real dataset (used via ATPG in the paper) has two backbone routers
    and fourteen zone routers; every zone router connects to both backbones,
    and the 24 subnets of the expressiveness experiment hang off the zone
    routers.  Each subnet is modelled as one host.
    """
    topo = Topology(name="stanford-campus")
    backbones = ["bbra_rtr", "bbrb_rtr"]
    zones = [f"zone{i}_rtr" for i in range(1, 15)]
    for name in backbones + zones:
        topo.add_switch(name)
    topo.add_link(backbones[0], backbones[1], capacity)
    for zone in zones:
        for backbone in backbones:
            topo.add_link(zone, backbone, capacity)
    for subnet in range(1, subnets + 1):
        zone = zones[(subnet - 1) % len(zones)]
        host = f"subnet{subnet}"
        topo.add_host(host, attached_switch=zone)
        topo.add_link(host, zone, capacity)
    return topo


def topology_zoo_like(
    num_switches: int,
    seed: int = 0,
    hosts_per_switch: int = 1,
    capacity: Bandwidth = LINE_RATE,
    extra_edge_fraction: float = 0.3,
) -> Topology:
    """A single random WAN-like topology with the given number of switches.

    The construction mirrors the sparse, meshy structure of Internet Topology
    Zoo graphs: a random spanning tree guarantees connectivity, then a
    fraction of additional shortcut links is added.
    """
    rng = random.Random(seed)
    topo = Topology(name=f"zoo-like-{num_switches}-seed{seed}")
    switches = [f"s{i}" for i in range(1, num_switches + 1)]
    for name in switches:
        topo.add_switch(name)
    # Random spanning tree: connect each new switch to a random earlier one.
    for index in range(1, num_switches):
        peer = switches[rng.randrange(index)]
        topo.add_link(switches[index], peer, capacity)
    # Extra shortcut edges for redundancy.
    extra_edges = int(extra_edge_fraction * num_switches)
    attempts = 0
    while extra_edges > 0 and attempts < 20 * num_switches:
        attempts += 1
        u, v = rng.sample(switches, 2)
        if not topo.has_link(u, v):
            topo.add_link(u, v, capacity)
            extra_edges -= 1
    host_index = 1
    for switch in switches:
        for _ in range(hosts_per_switch):
            host = f"h{host_index}"
            topo.add_host(host, attached_switch=switch)
            topo.add_link(host, switch, capacity)
            host_index += 1
    return topo


def topology_zoo_ensemble(
    count: int = 262,
    seed: int = 0,
    mean_switches: float = 40.0,
    stdev_switches: float = 30.0,
    max_switches: int = 754,
    min_switches: int = 4,
    hosts_per_switch: int = 1,
) -> Iterator[Topology]:
    """Yield an ensemble of topologies matching the Topology Zoo statistics.

    §6.3 quotes 262 topologies with an average of 40 switches, a standard
    deviation of 30 switches, and a largest topology of 754 switches.  The
    ensemble draws sizes from a truncated normal distribution with those
    moments and forces the final topology to the maximum size so the outlier
    in Figure 6 is present.
    """
    rng = random.Random(seed)
    sizes: List[int] = []
    for _ in range(count - 1):
        size = int(round(rng.gauss(mean_switches, stdev_switches)))
        sizes.append(max(min_switches, min(max_switches, size)))
    sizes.append(max_switches)
    for index, size in enumerate(sizes):
        yield topology_zoo_like(
            size, seed=seed + index + 1, hosts_per_switch=hosts_per_switch
        )
