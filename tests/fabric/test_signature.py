"""Canonical component signatures: what must collide, what must not.

The signature is the cache key, so these tests pin its equivalence class
directly at the :func:`canonicalize_component` level with minimal stand-in
components: renamed tenants, permuted statements, and re-ordered footprints
hash equal; changed capacities, guarantees, slack rungs, or backend limits
hash distinct.  (``test_component_cache.py`` proves the same invariances
end-to-end through real compiles.)
"""

import hashlib
import json
from types import SimpleNamespace

from repro.core.provisioning import PathSelectionHeuristic
from repro.fabric import backend_fingerprint, canonicalize_component
from repro.fabric.signature import _member_digest
from repro.lp.backends import create_backend
from repro.units import Bandwidth

HEURISTIC = PathSelectionHeuristic.MIN_MAX_RATIO


def _logical(*links, source="A", destination="B"):
    return SimpleNamespace(
        source_location=source,
        destination_location=destination,
        # One product-graph pair per link, crossing it from ``u`` to ``v``.
        pairs=[((u, index), (v, index + 1)) for index, (u, v) in enumerate(links)],
    )


def _rates(guarantee_mbps=50.0, cap_mbps=None):
    return SimpleNamespace(
        guarantee=Bandwidth.mbps(guarantee_mbps),
        cap=Bandwidth.mbps(cap_mbps) if cap_mbps is not None else None,
    )


LINKS = (("s1", "s2"), ("s2", "s3"))
CAPACITY = {("s1", "s2"): 1000.0, ("s2", "s3"): 1000.0}


def _component(
    ids=("alice", "bob"),
    links=LINKS,
    capacity=CAPACITY,
    guarantees=(50.0, 80.0),
    slacks=(2, 2),
    solver=None,
):
    spec = SimpleNamespace(statement_ids=tuple(ids), links=tuple(links))
    tightened = {
        ids[0]: _logical(("s1", "s2")),
        ids[1]: _logical(("s2", "s3"), source="C", destination="D"),
    }
    rates = {sid: _rates(guarantee) for sid, guarantee in zip(ids, guarantees)}
    return canonicalize_component(
        spec, tightened, rates, capacity, HEURISTIC, solver, slacks
    )


class TestInvariances:
    def test_tenant_renaming_is_invisible(self):
        original = _component(ids=("alice", "bob"))
        renamed = _component(ids=("zz_t0", "zz_t1"))
        assert original.signature == renamed.signature

    def test_statement_permutation_is_invisible(self):
        forward = _component(ids=("alice", "bob"))
        spec = SimpleNamespace(statement_ids=("bob", "alice"), links=LINKS)
        tightened = {
            "alice": _logical(("s1", "s2")),
            "bob": _logical(("s2", "s3"), source="C", destination="D"),
        }
        rates = {"alice": _rates(50.0), "bob": _rates(80.0)}
        backward = canonicalize_component(
            spec, tightened, rates, CAPACITY, HEURISTIC, None, (2, 2)
        )
        assert forward.signature == backward.signature
        # Each rank still holds the member with the same content on both sides.
        assert forward.members == backward.members

    def test_footprint_reordering_is_invisible(self):
        forward = _component(links=LINKS)
        backward = _component(links=tuple(reversed(LINKS)))
        assert forward.signature == backward.signature


class TestDistinctions:
    def test_capacity_changes_the_signature(self):
        thick = _component()
        thin = _component(
            capacity={("s1", "s2"): 1000.0, ("s2", "s3"): 100.0}
        )
        assert thick.signature != thin.signature

    def test_guarantee_changes_the_signature(self):
        small = _component(guarantees=(50.0, 80.0))
        large = _component(guarantees=(50.0, 90.0))
        assert small.signature != large.signature

    def test_slack_rung_changes_the_signature(self):
        tight = _component(slacks=(2, 2))
        widened = _component(slacks=(2, 4))
        assert tight.signature != widened.signature

    def test_backend_limits_change_the_signature(self):
        default = _component(solver=create_backend("bnb"))
        limited = _component(solver=create_backend("bnb", node_limit=5))
        assert default.signature != limited.signature

    def test_backend_name_changes_the_signature(self):
        scipy = _component(solver=None)  # defaults to the scipy backend
        bnb = _component(solver=create_backend("bnb"))
        assert scipy.signature != bnb.signature


class TestBackendFingerprint:
    def test_none_means_the_default_backend(self):
        assert backend_fingerprint(None) == backend_fingerprint(
            create_backend("scipy")
        )

    def test_limits_are_part_of_the_fingerprint(self):
        assert backend_fingerprint(create_backend("bnb")) != backend_fingerprint(
            create_backend("bnb", node_limit=5)
        )

    def test_unregistered_backends_never_collide_with_registered_ones(self):
        class Homemade:
            pass

        assert backend_fingerprint(Homemade()) != backend_fingerprint(None)


class TestMapping:
    """``members`` lists the requesting ids in member-digest rank order: a
    stored solution's rank-*k* path belongs to the rank-*k* member."""

    def test_members_are_the_spec_ids_in_rank_order(self):
        canon = _component(ids=("alice", "bob"))
        assert sorted(canon.members) == ["alice", "bob"]
        renamed = _component(ids=("zz_t0", "zz_t1"))
        as_renamed = {"alice": "zz_t0", "bob": "zz_t1"}
        assert renamed.members == tuple(as_renamed[sid] for sid in canon.members)

    def test_a_rank_follows_content_not_names(self):
        """Swapping which id holds which content swaps their ranks."""
        forward = _component(ids=("alice", "bob"))
        swapped = _component(ids=("bob", "alice"))
        assert swapped.members == tuple(reversed(forward.members))

    def test_identical_members_keep_their_sorted_id_order(self):
        spec = SimpleNamespace(statement_ids=("a", "b", "c"), links=LINKS)
        same = _logical(("s1", "s2"))
        tightened = {"a": same, "b": _logical(("s2", "s3")), "c": same}
        rates = {sid: _rates(50.0) for sid in spec.statement_ids}
        canon = canonicalize_component(
            spec, tightened, rates, CAPACITY, HEURISTIC, None, (2, 2, 2)
        )
        assert canon.members.index("a") + 1 == canon.members.index("c")


class TestMemberDigest:
    def test_pairs_serialize_as_the_edge_objects_did(self, figure2_placements):
        """A member is digested from its ``(tail, head)`` pairs into the JSON
        bytes its :class:`LogicalEdge` fields made — source and sink edges,
        stays at one location (``dpi`` then ``nat`` both at ``m1``) and
        link crossings alike — so no signature moved."""
        from repro.core.ast import Statement
        from repro.core.logical import build_logical_topology
        from repro.predicates.ast import TRUE
        from repro.regex.parser import parse_path_expression
        from repro.topology.generators import figure2_example

        statement = Statement(
            "z", TRUE, parse_path_expression("h1 .* dpi .* nat .* h2")
        )
        logical = build_logical_topology(
            statement, figure2_example(), figure2_placements, "h1", "h2"
        )
        assert any(
            edge.physical_link is None and edge.source[0] == edge.target[0]
            for edge in logical.edges
        )
        rates = _rates(50.0)
        as_edges = json.dumps(
            [
                "h1",
                "h2",
                [
                    [
                        list(edge.source),
                        list(edge.target),
                        edge.location,
                        list(edge.physical_link) if edge.physical_link else None,
                    ]
                    for edge in logical.edges
                ],
                rates.guarantee.bps_value,
                None,
                2,
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        assert _member_digest(logical, rates, 2) == (
            hashlib.sha256(as_edges.encode("utf-8")).hexdigest()
        )
