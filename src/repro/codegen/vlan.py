"""VLAN tag allocation for path encoding.

Because Merlin supports middleboxes that may rewrite packet headers (such as
NAT), forwarding cannot rely on the original header fields alone.  The paper
encodes the chosen forwarding structure in VLAN tags — one tag per sink tree
and one per guaranteed path — so subsequent switches only inspect the tag.
Packets are tagged when they enter the network and the tag is stripped at the
egress switch, after which the destination host's unique identifier (MAC) is
used for final delivery (the FlowTags-like scheme of §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import CodegenError

#: The usable VLAN ID range (0 and 4095 are reserved).
_FIRST_TAG = 2
_LAST_TAG = 4094


@dataclass
class VlanAllocator:
    """Allocates unique VLAN tags to sink trees and guaranteed paths."""

    _next_tag: int = _FIRST_TAG
    _tree_tags: Dict[str, int] = field(default_factory=dict)
    _statement_tags: Dict[str, int] = field(default_factory=dict)

    def tag_for_tree(self, root_switch: str) -> int:
        """The tag assigned to the sink tree rooted at ``root_switch``."""
        if root_switch not in self._tree_tags:
            self._tree_tags[root_switch] = self._allocate()
        return self._tree_tags[root_switch]

    def tag_for_statement(self, statement_id: str) -> int:
        """The tag assigned to a statement's dedicated (guaranteed) path."""
        if statement_id not in self._statement_tags:
            self._statement_tags[statement_id] = self._allocate()
        return self._statement_tags[statement_id]

    def assignments(self) -> Dict[str, int]:
        """All allocations, keyed by ``tree:<root>`` and ``statement:<id>``."""
        result = {f"tree:{root}": tag for root, tag in self._tree_tags.items()}
        result.update(
            {f"statement:{name}": tag for name, tag in self._statement_tags.items()}
        )
        return result

    def _allocate(self) -> int:
        if self._next_tag > _LAST_TAG:
            raise CodegenError(
                "VLAN tag space exhausted: more than 4093 trees/paths requested"
            )
        tag = self._next_tag
        self._next_tag += 1
        return tag
