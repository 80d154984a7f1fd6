"""Tests for the topology graph, generators, and traffic enumeration."""

import gc
import weakref

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import (
    NodeKind,
    Topology,
    all_pairs_traffic,
    balanced_tree,
    dumbbell,
    fat_tree,
    linear,
    select_guaranteed,
    single_switch,
    stanford_campus,
    topology_zoo_ensemble,
    topology_zoo_like,
)
from repro.topology.generators import figure2_example
from repro.units import Bandwidth


#: A networkx graph per topology of a test, built from the same
#: construction calls (see ``_networkx_mirror``).
_REFERENCE = weakref.WeakKeyDictionary()


@pytest.fixture(autouse=True)
def _networkx_mirror(monkeypatch):
    """Mirror every ``add_node`` / ``add_link`` call into a networkx graph,
    and give a derived topology the graph the calls ``without`` used to
    make would build: its nodes in name order, then its links in the
    parent's edge order."""
    add_node, add_link, without = Topology.add_node, Topology.add_link, Topology.without

    def mirrored_add_node(self, node):
        added = add_node(self, node)
        _REFERENCE.setdefault(self, nx.Graph()).add_node(node.name)
        return added

    def mirrored_add_link(self, source, target, *args, **kwargs):
        link = add_link(self, source, target, *args, **kwargs)
        _REFERENCE[self].add_edge(source, target, link=link)
        return link

    def mirrored_without(self, links=(), nodes=()):
        links, nodes = list(links), set(nodes)
        derived = without(self, links, nodes)
        failed = {frozenset(pair) for pair in links}
        graph = _REFERENCE[derived] = nx.Graph()
        graph.add_nodes_from(name for name in self.locations() if name not in nodes)
        for source, target, data in _REFERENCE[self].edges(data=True):
            if {source, target} & nodes or {source, target} in failed:
                continue
            graph.add_edge(source, target, link=data["link"])
        return derived

    monkeypatch.setattr(Topology, "add_node", mirrored_add_node)
    monkeypatch.setattr(Topology, "add_link", mirrored_add_link)
    monkeypatch.setattr(Topology, "without", mirrored_without)


def _connected(topology):
    return nx.is_connected(_REFERENCE[topology])


class TestTopologyGraph:
    def test_add_and_query_nodes(self):
        topo = Topology()
        topo.add_switch("s1")
        topo.add_host("h1", attached_switch="s1")
        topo.add_middlebox("m1", attached_switch="s1")
        assert topo.num_switches() == 1
        assert topo.num_hosts() == 1
        assert topo.node("m1").kind is NodeKind.MIDDLEBOX
        assert set(topo.locations()) == {"s1", "h1", "m1"}

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_switch("s1")
        with pytest.raises(TopologyError):
            topo.add_switch("s1")

    def test_link_requires_existing_nodes(self):
        topo = Topology()
        topo.add_switch("s1")
        with pytest.raises(TopologyError):
            topo.add_link("s1", "s2")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_switch("s1")
        with pytest.raises(TopologyError):
            topo.add_link("s1", "s1")

    def test_capacity_lookup(self):
        topo = Topology()
        topo.add_switch("s1")
        topo.add_switch("s2")
        topo.add_link("s1", "s2", Bandwidth.mbps(100))
        assert topo.capacity("s1", "s2") == Bandwidth.mbps(100)
        assert topo.capacity("s2", "s1") == Bandwidth.mbps(100)

    def test_missing_link_raises(self):
        topo = single_switch(2)
        with pytest.raises(TopologyError):
            topo.link("h1", "h2")

    def test_auto_assigned_addresses_are_unique(self):
        topo = single_switch(10)
        macs = [host.mac for host in topo.hosts()]
        ips = [host.ip for host in topo.hosts()]
        assert len(set(macs)) == len(macs)
        assert len(set(ips)) == len(ips)

    def test_host_by_mac(self):
        topo = single_switch(3)
        mac = topo.node("h2").mac
        assert topo.host_by_mac(mac).name == "h2"
        assert topo.host_by_mac(mac.upper()).name == "h2"
        assert topo.host_by_mac("ff:ff:ff:ff:ff:ff") is None

    def test_address_lookups_follow_every_way_of_building_a_topology(self):
        topo = single_switch(3)
        ip = topo.node("h3").ip
        assert topo.host_by_ip(ip).name == "h3"
        assert topo.host_by_ip("10.9.9.9") is None
        # Derived topologies carry the lookups over and answer alike.
        degraded = topo.without(links=[("h3", "s1")])
        assert degraded.host_by_ip(ip).name == "h3"
        assert degraded.host_by_mac(topo.node("h2").mac).name == "h2"
        # Hosts sharing an address resolve to the first by name, whatever
        # the insertion order.
        shared = Topology()
        shared.add_host("hb", mac="00:00:00:00:00:aa", ip="10.0.0.7")
        shared.add_host("ha", mac="00:00:00:00:00:AA", ip="10.0.0.7")
        assert shared.host_by_mac("00:00:00:00:00:aa").name == "ha"
        assert shared.host_by_ip("10.0.0.7").name == "ha"

    def test_attachment_switch(self):
        topo = figure2_example()
        assert topo.attachment_switch("h1") == "s1"
        assert topo.attachment_switch("m1") == "s1"
        lonely = Topology()
        lonely.add_host("h1")
        with pytest.raises(TopologyError):
            lonely.attachment_switch("h1")

    def test_hosts_on_switch(self):
        topo = figure2_example()
        assert topo.hosts_on_switch("s1") == ["h1"]
        assert topo.hosts_on_switch("s2") == ["h2"]

    def test_shortest_path(self):
        topo = linear(3)
        path = topo.shortest_path("h1", "h3")
        assert path[0] == "h1" and path[-1] == "h3"
        assert "s2" in path

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_switch("s1")
        topo.add_switch("s2")
        with pytest.raises(TopologyError):
            topo.shortest_path("s1", "s2")

        with pytest.raises(TopologyError):
            topo.shortest_path("s1", "nowhere")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: linear(4),
            lambda: fat_tree(4),
            lambda: stanford_campus(subnets=4),
            lambda: topology_zoo_like(24, seed=5, hosts_per_switch=2),
            lambda: fat_tree(4).without(
                links=[("c0_0", "a0_0"), ("a2_1", "e2_0")], nodes=["a1_1", "e3_1"]
            ),
        ],
        ids=["linear", "fat-tree", "campus", "zoo-like", "degraded"],
    )
    def test_shortest_paths_are_networkx_paths(self, build):
        """Every host pair takes networkx's bidirectional-BFS path on a
        graph built by the same construction calls, ties included."""
        topo = build()
        reference = _REFERENCE[topo]
        hosts = topo.host_names()
        for source in hosts:
            for target in hosts:
                try:
                    expected = nx.shortest_path(reference, source, target)
                except nx.NetworkXNoPath:
                    with pytest.raises(TopologyError):
                        topo.shortest_path(source, target)
                else:
                    assert topo.shortest_path(source, target) == expected

    def test_undirected_edges_and_link_lookup(self):
        topo = linear(3)
        assert topo.undirected_edges() == [
            ("h1", "s1"),
            ("h2", "s2"),
            ("h3", "s3"),
            ("s1", "s2"),
            ("s2", "s3"),
        ]
        assert topo.link("s2", "s1").endpoints() == frozenset({"s1", "s2"})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: linear(4),
            lambda: fat_tree(4),
            lambda: stanford_campus(subnets=4),
            lambda: fat_tree(4).without(links=[("c0_0", "a0_0")], nodes=["e1_1"]),
        ],
        ids=["linear", "fat-tree", "campus", "degraded"],
    )
    def test_graph_reads_agree_with_networkx_and_leave_no_cycle(self, build):
        topo = build()
        reference = _REFERENCE[topo]
        # Node order, and each node's neighbours in insertion order.
        assert [(name, list(adjacent)) for name, adjacent in topo._adj.items()] == [
            (name, list(adjacent)) for name, adjacent in reference.adj.items()
        ]
        assert topo.links() == [data["link"] for _, _, data in reference.edges(data=True)]
        assert topo.num_links() == reference.number_of_edges()
        assert topo.undirected_edges() == sorted(tuple(sorted(edge)) for edge in reference.edges)
        assert list(topo.link_capacities().items()) == [
            (tuple(sorted((source, target))), data["link"].capacity)
            for source, target, data in reference.edges(data=True)
        ]
        assert topo.adjacency() == {
            name: (name, *sorted(adjacent)) for name, adjacent in reference.adj.items()
        }
        for link in topo.links():
            assert topo.link(link.target, link.source) is link
        # No table a read builds may hold the topology: it must go as
        # soon as its last reference does, without the cyclic collector.
        topo.egress_switches()
        alive = weakref.ref(topo)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del topo
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_without_fails_a_switch_with_its_links(self):
        topo = linear(3, capacity=Bandwidth.mbps(100))
        degraded = topo.without(nodes=["s2"])
        assert "s2" not in degraded and "h2" in degraded
        assert degraded.num_links() == topo.num_links() - 3
        assert not _connected(degraded)
        assert degraded.capacity("h1", "s1") == Bandwidth.mbps(100)
        assert degraded.node("h1") is topo.node("h1")
        # The original is untouched.
        assert topo.num_links() == 5 and topo.has_link("s1", "s2")
        with pytest.raises(TopologyError):
            topo.without(nodes=["h1"])
        with pytest.raises(TopologyError):
            topo.without(links=[("s1", "s3")])

    def test_adjacency_table_follows_every_node_and_link_added(self):
        topo = linear(3)
        table = topo.adjacency()
        assert table["s2"] == ("s2", "h2", "s1", "s3")
        assert topo.adjacency() is table  # built once
        assert topo.neighbors("s2") == ["h2", "s1", "s3"]
        assert topo.neighbors("s2") is not topo.neighbors("s2")  # a fresh list
        topo.add_link("s1", "s3")
        assert topo.adjacency()["s1"] == ("s1", "h1", "s2", "s3")
        assert topo.neighbors("s3") == ["h3", "s1", "s2"]
        assert table["s1"] == ("s1", "h1", "s2")  # the old table is left alone
        topo.add_middlebox("m1", attached_switch="s2")
        assert topo.adjacency()["m1"] == ("m1",)
        topo.add_link("m1", "s2")
        assert topo.neighbors("s2") == ["h2", "m1", "s1", "s3"]
        assert topo.neighbors("m1") == ["s2"]
        with pytest.raises(TopologyError):
            topo.neighbors("nowhere")

    def test_a_derived_topology_walks_a_table_of_its_own(self):
        topo = linear(3)
        table = topo.adjacency()
        degraded = topo.without(links=[("s1", "s2")], nodes=["s3"])
        assert degraded.adjacency() is not table
        assert degraded.adjacency()["s2"] == ("s2", "h2")
        assert "s3" not in degraded.adjacency()
        assert topo.adjacency() is table
        assert table["s2"] == ("s2", "h2", "s1", "s3")


class TestGenerators:
    def test_single_switch(self):
        topo = single_switch(4)
        assert topo.num_hosts() == 4
        assert topo.num_switches() == 1
        assert _connected(topo)

    def test_linear(self):
        topo = linear(4, hosts_per_switch=2)
        assert topo.num_switches() == 4
        assert topo.num_hosts() == 8
        assert _connected(topo)

    def test_figure2(self):
        topo = figure2_example()
        assert set(topo.locations()) == {"h1", "h2", "m1", "s1", "s2"}
        assert topo.has_link("s1", "s2")

    def test_dumbbell_capacities(self):
        topo = dumbbell()
        assert topo.capacity("h1", "sa1") == Bandwidth.mb_per_sec(400)
        assert topo.capacity("h1", "sb1") == Bandwidth.mb_per_sec(100)

    def test_fat_tree_counts(self):
        # A k-ary fat tree has 5k^2/4 switches and k^3/4 hosts.
        for k in (4, 6):
            topo = fat_tree(k)
            assert topo.num_switches() == 5 * k * k // 4
            assert topo.num_hosts() == k**3 // 4
            assert _connected(topo)

    def test_fat_tree_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_balanced_tree_counts(self):
        topo = balanced_tree(depth=2, fanout=3, hosts_per_leaf=2)
        assert topo.num_switches() == 1 + 3 + 9
        assert topo.num_hosts() == 9 * 2
        assert _connected(topo)

    def test_stanford_campus_shape(self):
        topo = stanford_campus()
        assert topo.num_switches() == 16
        assert topo.num_hosts() == 24
        assert _connected(topo)

    def test_topology_zoo_like_connected(self):
        for seed in range(3):
            topo = topology_zoo_like(30, seed=seed)
            assert _connected(topo)
            assert topo.num_switches() == 30

    def test_topology_zoo_ensemble_statistics(self):
        sizes = [t.num_switches() for t in topology_zoo_ensemble(count=40, seed=7)]
        assert len(sizes) == 40
        assert max(sizes) == 754  # the forced outlier of Figure 6
        assert min(sizes) >= 4


class TestTraffic:
    def test_all_pairs_count(self):
        topo = single_switch(5)
        classes = all_pairs_traffic(topo)
        assert len(classes) == 5 * 4

    def test_select_guaranteed_fraction(self):
        topo = single_switch(10)
        classes = all_pairs_traffic(topo)
        selected = select_guaranteed(classes, 0.1, Bandwidth.mbps(1), seed=3)
        guaranteed = [c for c in selected if c.is_guaranteed]
        assert len(guaranteed) == round(0.1 * len(classes))
        assert all(c.guarantee == Bandwidth.mbps(1) for c in guaranteed)
        assert len(selected) == len(classes)

    def test_select_guaranteed_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            select_guaranteed([], 1.5, Bandwidth.mbps(1))

    def test_identifier_format(self):
        topo = single_switch(2)
        classes = all_pairs_traffic(topo)
        assert classes[0].identifier().startswith("tc_")
