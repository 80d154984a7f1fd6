"""Which sink trees a returning switch-to-switch link re-walks.

``update_sink_trees`` keeps a tree when every returned link joins two
switches of equal depth, or a switch ``v`` to a switch ``u`` one level
above it whose parent is dequeued before ``u``; any other link re-walks it.
One root, ``r``, over five switches::

    r ─ a ─ c         dequeue order r, a, b, c, d
    │                 depth a, b: 1; c, d: 2
    └── b ─ d         e hangs off c, cut off while c-e is down

Each case fails the returned links out of that topology, builds the trees
there, brings the links back and checks the update against a fresh
``compute_sink_trees``: a kept tree is the same object and walks nothing.
"""

import pytest

from repro.core import sink_tree
from repro.core.sink_tree import compute_sink_trees, update_sink_trees
from repro.topology import Topology

_LINKS = (("r", "a"), ("r", "b"), ("a", "c"), ("b", "d"), ("c", "e"))


def _topology(extra):
    topology = Topology("sink-tree-updates")
    for name in "rabcde":
        topology.add_switch(name)
    topology.add_host("h", attached_switch="r")
    topology.add_link("h", "r")
    for source, target in _LINKS + tuple(extra):
        topology.add_link(source, target)
    return topology


def _recover(returned, monkeypatch, lost=()):
    """Trees before and after ``returned`` come back (and ``lost`` fails in
    the same event), and which roots' trees the update walked."""
    pristine = _topology((*returned, *lost))
    before = pristine.without(links=returned)
    after = pristine.without(links=lost)
    trees = compute_sink_trees(before)
    walks = []
    walk = sink_tree.compute_sink_tree

    def counting(*args):
        walks.append(args[1])
        return walk(*args)

    monkeypatch.setattr(sink_tree, "compute_sink_tree", counting)
    updated = update_sink_trees(trees, before, after, (*returned, *lost), ())
    monkeypatch.undo()
    assert updated == compute_sink_trees(after)
    return trees["r"], updated["r"], walks


def test_the_tree_under_test():
    tree = compute_sink_trees(_topology(()))["r"]
    assert list(tree.next_hop.items()) == [
        ("a", "r"),
        ("b", "r"),
        ("c", "a"),
        ("d", "b"),
        ("e", "c"),
    ]


@pytest.mark.parametrize("link", [("a", "b"), ("c", "d"), ("d", "c")])
def test_a_link_between_equal_depths_keeps_the_tree(link, monkeypatch):
    old, new, walks = _recover([link], monkeypatch)
    assert new is old and walks == []


@pytest.mark.parametrize("link", [("b", "c"), ("c", "b")])
def test_a_link_below_a_later_dequeued_switch_keeps_the_tree(link, monkeypatch):
    """c's parent a is dequeued before b: b finds c visited."""
    old, new, walks = _recover([link], monkeypatch)
    assert new is old and walks == []


@pytest.mark.parametrize("link", [("a", "d"), ("d", "a")])
def test_a_link_below_an_earlier_dequeued_switch_rewalks(link, monkeypatch):
    """d's parent b is dequeued after a: a reaches d first now."""
    old, new, walks = _recover([link], monkeypatch)
    assert walks == ["r"]
    assert old.next_hop["d"] == "b" and new.next_hop["d"] == "a"


@pytest.mark.parametrize("link", [("r", "c"), ("d", "r"), ("e", "a")])
def test_a_link_spanning_two_levels_rewalks(link, monkeypatch):
    old, new, walks = _recover([link], monkeypatch)
    assert walks == ["r"]
    assert new.next_hop != old.next_hop


def test_an_end_outside_the_tree_rewalks(monkeypatch):
    """While c-e is down e is in no tree; c-e coming back reaches it."""
    old, new, walks = _recover([("c", "e")], monkeypatch)
    assert walks == ["r"]
    assert "e" not in old.next_hop and new.next_hop["e"] == "c"


def test_two_links_that_each_keep_the_tree_keep_it(monkeypatch):
    old, new, walks = _recover([("a", "b"), ("b", "c")], monkeypatch)
    assert new is old and walks == []


def test_two_links_one_of_which_moves_the_tree_rewalk(monkeypatch):
    old, new, walks = _recover([("a", "b"), ("a", "d")], monkeypatch)
    assert walks == ["r"]
    assert new.next_hop["d"] == "a"


def test_a_link_lost_in_the_same_event_is_read_first(monkeypatch):
    """a-b, no tree edge, fails as b-c comes back: both keep the tree."""
    old, new, walks = _recover([("b", "c")], monkeypatch, lost=[("a", "b")])
    assert new is old and walks == []
