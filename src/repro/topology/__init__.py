"""Physical network topology model and generators.

The Merlin compiler consumes a representation of the physical topology: the
set of locations (hosts, switches, middleboxes), the links between them, and
each link's capacity.  This package provides the :class:`Topology` graph, the
node/link element types, generators for every topology family used in the
paper's evaluation (fat trees, balanced trees, a Stanford-campus-like
network, and a Topology-Zoo-like ensemble), and traffic-class enumeration.
"""

from .elements import Link, Node, NodeKind
from .generators import (
    balanced_tree,
    dumbbell,
    fat_tree,
    figure2_example,
    linear,
    single_switch,
    stanford_campus,
    topology_zoo_like,
    topology_zoo_ensemble,
)
from .graph import Topology
from .traffic import TrafficClass, all_pairs_traffic, select_guaranteed

__all__ = [
    "Link",
    "Node",
    "NodeKind",
    "Topology",
    "balanced_tree",
    "dumbbell",
    "fat_tree",
    "figure2_example",
    "linear",
    "single_switch",
    "stanford_campus",
    "topology_zoo_like",
    "topology_zoo_ensemble",
    "TrafficClass",
    "all_pairs_traffic",
    "select_guaranteed",
]
