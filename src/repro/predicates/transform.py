"""The field tests every packet matching a predicate satisfies.

Each code generator turns them into a device match.
"""

from __future__ import annotations

from typing import Iterator

from .ast import And, FieldTest, Predicate


def positive_field_tests(predicate: Predicate) -> Iterator[FieldTest]:
    """The field tests reachable through ``And`` alone, left to right.

    These are the conjuncts every matching packet satisfies, which is what a
    single device match (an OpenFlow match, a ``tc`` filter, an ``iptables``
    rule) can express; ``Or`` / ``Not`` / ``PTrue`` subtrees contribute
    nothing.  Each code generator looks the yielded fields up in its own
    table.
    """
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, FieldTest):
            yield node
