"""Best-effort statements whose product graph is searched, never built.

A path-constrained best-effort statement gets its path and its footprint by
restricting the one walk of its path expression's unpinned product
(``ProductWalk.restrict``) that every statement with that expression shares;
no ``LogicalTopology`` exists for it until a promotion puts it into the MIP.
Each test below drives one way such a statement meets the session's other
machinery — promotion, a failure on its footprint, entering during a
failure, a rolled-back failure — and holds the session to a from-scratch
compile on the surviving topology, byte for byte.
"""

import pytest

from repro.core import MerlinCompiler
from repro.core.parser import parse_policy
from repro.errors import ProvisioningError
from repro.incremental import DeltaStatement, PolicyDelta, RateUpdate, TopologyDelta
from repro.telemetry import Telemetry
from repro.topology.generators import fat_tree
from repro.units import Bandwidth
from tests.reference_logical import reference_build_logical_topology

TOPOLOGY = fat_tree(4)
RATE = Bandwidth.mbps(10)


def _statement(identifier, source, destination, port, path):
    return (
        f"{identifier} : (eth.src = {TOPOLOGY.node(source).mac} and "
        f"eth.dst = {TOPOLOGY.node(destination).mac} and tcp.dst = {port}) -> {path}"
    )


#: Guaranteed, inside pod 0.
G = _statement("g", "h1", "h3", 80, ".*")
#: Best-effort and path-constrained: pod 0 to pod 3 through one core plane.
B = _statement("b", "h1", "h13", 22, ".* (c0_0|c0_1) .*")
#: The same path expression between two other hosts of those pods.
B2 = _statement("b2", "h2", "h14", 22, ".* (c0_0|c0_1) .*")
#: And once more, for a statement entering later.
B3 = _statement("b3", "h2", "h13", 23, ".* (c0_0|c0_1) .*")


def _policy(statements, guaranteed):
    clauses = " and ".join(f"min({identifier}, 10Mbps)" for identifier in guaranteed)
    return parse_policy(f"[ {' ; '.join(statements)} ], {clauses}", topology=TOPOLOGY)


def _compiler(topology=TOPOLOGY):
    return MerlinCompiler(topology=topology, overlap="trust", add_catch_all=False)


def _fingerprint(result):
    return (
        [
            (identifier, path.path, sorted(path.function_placements.items()))
            for identifier, path in result.paths.items()
        ],
        sorted((link, rate.bps_value) for link, rate in result.link_reservations.items()),
        repr(result.instructions),
        result.policy.statements,
        list(result.rates.items()),
    )


def _assert_equals_scratch(result, statements, guaranteed, failed_links=()):
    scratch = _compiler(TOPOLOGY.without(links=failed_links)).compile(
        _policy(statements, guaranteed)
    )
    assert _fingerprint(result) == _fingerprint(scratch)
    return scratch


def _fabric_link_on(path):
    """The first switch-to-switch link of a location path, as the topology
    names it."""
    for source, target in zip(path, path[1:]):
        if not (TOPOLOGY.node(source).is_host or TOPOLOGY.node(target).is_host):
            link = TOPOLOGY.link(source, target)
            return (link.source, link.target)
    raise AssertionError(f"no fabric link on {path}")


def test_promotion_materialises_the_searched_shape_and_keeps_its_footprint():
    compiler = _compiler()
    bundle = Telemetry.recording()
    with bundle.use():
        compiler.compile(_policy([G, B, B2], ["g"]))
        compiled = bundle.snapshot()
        searched = compiler._session.engine.records["b"]
        promoted = compiler.recompile(
            PolicyDelta(update_rates=(RateUpdate("b", guarantee=RATE),))
        )
    # One graph for g, one walk that b and b2 share, and nothing else.
    assert compiled.counter_total("logical_builds") == 1
    assert compiled.counter_total("logical_searches") == 1
    assert searched.best_effort is not None and searched.footprint
    assert compiler._session.engine.records["b2"].best_effort is not None
    # The promotion builds b's graph then, for the first time.
    assert bundle.snapshot().counter_total("logical_builds") == 2
    assert bundle.snapshot().counter_total("logical_searches") == 1
    entry = compiler._session.engine.records["b"]
    assert entry.best_effort is None
    assert entry.footprint == searched.footprint
    assert entry.footprint == compiler._session.engine.records["b"].logical.footprint
    _assert_equals_scratch(promoted, [G, B, B2], ["g", "b"])


def test_failure_on_a_searched_footprint_moves_the_path_and_recovery_returns_it():
    compiler = _compiler()
    before = compiler.compile(_policy([G, B], ["g"]))
    link = _fabric_link_on(before.paths["b"].path)
    assert tuple(sorted(link)) in compiler._session.engine.records["b"].footprint

    failed = compiler.recompile(TopologyDelta(fail_links=(link,)))
    _assert_equals_scratch(failed, [G, B], ["g"], failed_links=(link,))
    assert failed.paths["b"].path != before.paths["b"].path

    recovered = compiler.recompile(TopologyDelta(recover_links=(link,)))
    _assert_equals_scratch(recovered, [G, B], ["g"])
    assert recovered.paths["b"].path == before.paths["b"].path


def test_a_failure_answers_from_one_degraded_walk_and_a_rollback_reinstates_it():
    compiler = _compiler()
    before = compiler.compile(_policy([G, B, B2], ["g"]))
    session = compiler._session
    expression = session.engine.records["b"].statement.path
    pristine = session.logical_cache[expression]
    link = _fabric_link_on(before.paths["b"].path)
    degraded = TOPOLOGY.without(links=(link,))

    bundle = Telemetry.recording()
    with bundle.use():
        failed = compiler.recompile(TopologyDelta(fail_links=(link,)))
    _assert_equals_scratch(failed, [G, B, B2], ["g"], failed_links=(link,))
    # Both statements re-searched on the degraded view restrict one walk.
    assert bundle.snapshot().counter_total("logical_searches") == 1
    product = session.logical_cache[expression]
    assert product is not pristine
    scratch = _compiler(degraded)
    scratch.compile(_policy([G, B, B2], ["g"]))
    for identifier in ("b", "b2"):
        entry = session.engine.records[identifier]
        reference = reference_build_logical_topology(
            entry.statement, degraded, {}, *entry.endpoints, TOPOLOGY.locations()
        )
        answer = product.restrict(*entry.endpoints)
        assert answer == (tuple(reference.find_path()), reference.physical_links_used())
        assert answer == scratch._session.logical_cache[expression].restrict(
            *entry.endpoints
        )
        assert failed.paths[identifier].path == answer[0]

    # Failing h1's only link leaves g no path: the delta is refused after
    # the cache was rebound, and the rollback puts the degraded walk back.
    cache = session.logical_cache
    host_link = TOPOLOGY.link("h1", "e0_0")
    with pytest.raises(ProvisioningError, match="no feasible path"):
        compiler.recompile(
            TopologyDelta(fail_links=((host_link.source, host_link.target),))
        )
    assert session.logical_cache is cache
    assert session.logical_cache[expression] is product
    bundle = Telemetry.recording()
    with bundle.use():
        added = compiler.recompile(
            PolicyDelta(add=(DeltaStatement(_policy([B3, G], ["g"]).statements[0]),))
        )
    assert bundle.snapshot().counter_total("logical_searches") == 0
    _assert_equals_scratch(added, [G, B, B2, B3], ["g"], failed_links=(link,))


def test_statement_added_during_a_failure_records_its_pristine_footprint():
    pristine = _compiler().compile(_policy([G, B], ["g"]))
    link = _fabric_link_on(pristine.paths["b"].path)

    compiler = _compiler()
    compiler.compile(_policy([G], ["g"]))
    compiler.recompile(TopologyDelta(fail_links=(link,)))
    added = compiler.recompile(
        PolicyDelta(add=(DeltaStatement(_policy([B, G], ["g"]).statements[0]),))
    )
    _assert_equals_scratch(added, [G, B], ["g"], failed_links=(link,))
    # The failed link is not in the degraded product, only in the pristine
    # one — and that is the footprint the entry carries.
    assert tuple(sorted(link)) in compiler._session.engine.records["b"].footprint

    recovered = compiler.recompile(TopologyDelta(recover_links=(link,)))
    _assert_equals_scratch(recovered, [G, B], ["g"])
    assert recovered.paths["b"].path == pristine.paths["b"].path
    assert recovered.paths["b"].path != added.paths["b"].path
