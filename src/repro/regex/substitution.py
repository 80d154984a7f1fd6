"""Function-name substitution in path expressions.

The first step of the logical-topology construction (§3.2) maps a regular
expression over locations *and* packet-processing function names into a
regular expression over locations only: every occurrence of a function name
is replaced with the union of the locations that can host that function.
For example, with ``nat`` placeable at ``h1``, ``h2`` or ``m1``::

    .* nat .*   becomes   .* (h1|h2|m1) .*
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Set

from ..errors import PlacementError
from .ast import Concat, Dot, Empty, Epsilon, Negate, Regex, Star, Symbol, Union, concat, union


def substitute_functions(
    expression: Regex,
    placements: Mapping[str, Iterable[str]],
    locations: Iterable[str],
) -> Regex:
    """Replace function names with the union of their possible locations.

    ``placements`` maps a function name to the locations able to run it, and
    ``locations`` is the set of all physical locations.  Symbols that already
    name a physical location are left unchanged.  A symbol that is neither a
    location nor a placeable function is an error — the policy references
    something that does not exist in the network.
    """
    location_set = frozenset(locations)
    placement_sets: Dict[str, FrozenSet[str]] = {
        name: frozenset(sites) for name, sites in placements.items()
    }
    for name, sites in placement_sets.items():
        missing = sites - location_set
        if missing:
            raise PlacementError(
                f"function {name!r} is mapped to unknown locations: {sorted(missing)}"
            )
        if not sites:
            raise PlacementError(f"function {name!r} has no feasible placement")
    return _substitute(expression, placement_sets, location_set)


def _substitute(
    node: Regex,
    placements: Mapping[str, FrozenSet[str]],
    locations: FrozenSet[str],
) -> Regex:
    if isinstance(node, (Empty, Epsilon, Dot)):
        return node
    if isinstance(node, Symbol):
        if node.name in locations:
            return node
        if node.name in placements:
            sites = sorted(placements[node.name])
            return union(*[Symbol(site) for site in sites])
        raise PlacementError(
            f"path expression references {node.name!r}, which is neither a "
            "network location nor a placeable packet-processing function"
        )
    if isinstance(node, Concat):
        return concat(*(_substitute(part, placements, locations) for part in node.parts))
    if isinstance(node, Union):
        return union(*(_substitute(part, placements, locations) for part in node.parts))
    if isinstance(node, Star):
        return Star(_substitute(node.operand, placements, locations))
    if isinstance(node, Negate):
        return Negate(_substitute(node.operand, placements, locations))
    raise TypeError(f"unknown regex node: {node!r}")


def functions_used(expression: Regex, locations: Iterable[str]) -> Set[str]:
    """Return the symbols in ``expression`` that are not physical locations.

    These are the packet-processing function names the compiler must place.
    """
    location_set = frozenset(locations)
    return {name for name in expression.symbols() if name not in location_set}
