"""The content-addressed component cache, end to end through real compiles.

A fat tree with one tenant per pod makes the partition decomposition
produce link-disjoint MIP components (one per guaranteed host pair at
this scale), so the cache counters are exactly predictable: a cold
compile stores one entry per component, a warm
compile of the *same content* — same tenant, renamed tenants, permuted
statements — hits every one of them, skips the model build entirely, and
still reproduces the cold compile's allocations byte for byte.
"""

import pytest

from repro.core.ast import BandwidthTerm, FMin, Policy, Statement, formula_and
from repro.core.compiler import MerlinCompiler
from repro.core.localization import localize
from repro.core.options import ProvisionOptions
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import counting_solver_calls, pod_tenant_scenario
from repro.fabric import ComponentSolutionCache
from repro.incremental import IncrementalProvisioner
from repro.telemetry import Telemetry
from repro.topology.generators import figure2_example
from repro.topology.graph import Topology
from repro.units import Bandwidth
from tests.conftest import FlakyBackend, add_guaranteed


@pytest.fixture(scope="module")
def scenario():
    return pod_tenant_scenario(arity=4, pairs_per_pod=2)


#: Two 600 Mbps statements from ``h1`` to ``h2`` with ids ``{0}`` and
#: ``{1}``; only their ports tell them apart.
TWO_FLOWS = """
[ {0} : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
         and tcp.dst = 80) -> .* ;
  {1} : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
         and tcp.dst = 81) -> .* ],
min({0}, 600Mbps) and min({1}, 600Mbps)
"""


def _compiler(topology, cache, **option_overrides):
    return MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=ProvisionOptions(component_cache=cache, **option_overrides),
    )


def _refused(cache, first, second):
    """Compile :data:`TWO_FLOWS` over the 1 Gbps Figure 2 network, which
    cannot carry both at any rung; the solver calls the refusal took."""
    compiler = _compiler(figure2_example(capacity=Bandwidth.gbps(1)), cache)
    recording = Telemetry.recording()
    with recording.use(), pytest.raises(ProvisioningError, match="cannot be satisfied"):
        compiler.compile(TWO_FLOWS.format(first, second))
    return recording.snapshot().counter_total("solver_calls")


def _compile(scenario, cache, policy=None, **option_overrides):
    compiler = _compiler(scenario.topology, cache, **option_overrides)
    return compiler.compile(policy if policy is not None else scenario.policy)


def _renamed(scenario, prefix):
    """The same policy under a different tenant's identifiers."""
    statements = tuple(
        Statement(prefix + statement.identifier, statement.predicate, statement.path)
        for statement in scenario.policy.statements
    )
    clauses = [
        FMin(BandwidthTerm(identifiers=(statement.identifier,)), scenario.guarantee)
        for statement in statements
    ]
    return Policy(statements=statements, formula=formula_and(*clauses))


def _permuted(scenario):
    """The same policy with its statements written in reverse order."""
    statements = tuple(reversed(scenario.policy.statements))
    clauses = [
        FMin(BandwidthTerm(identifiers=(statement.identifier,)), scenario.guarantee)
        for statement in statements
    ]
    return Policy(statements=statements, formula=formula_and(*clauses))


def _resolve(scenario, cache, policy):
    """Resolve ``policy`` on an engine of its own sharing ``cache``: the
    merged result, whose ``partition_solutions`` are the components."""
    engine = IncrementalProvisioner(
        scenario.topology, options=ProvisionOptions(component_cache=cache)
    )
    rates = localize(policy)
    for statement in policy.statements:
        add_guaranteed(engine, statement, rates[statement.identifier].guarantee)
    return engine.resolve()


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


def _paths(result):
    return {key: assignment.path for key, assignment in result.paths.items()}


class TestHitsAndByteIdenticalAllocations:
    def test_warm_compile_hits_every_component_and_matches_exactly(self, scenario):
        cache = ComponentSolutionCache()
        cold = _compile(scenario, cache)
        stores = cache.stores
        assert stores == len(scenario.policy.statements)  # link-disjoint pairs
        assert cache.misses == stores and cache.hits == 0

        warm = _compile(scenario, cache)
        assert cache.hits == stores
        assert cache.stores == stores  # hits are not re-stored
        # Byte-identical, not approximately-equal: the stored record is the
        # cold solve's exact variable assignment.
        assert _reservations(warm) == _reservations(cold)
        assert _paths(warm) == _paths(cold)

    def test_renamed_tenants_hit_and_get_readdressed_allocations(self, scenario):
        cache = ComponentSolutionCache()
        cold = _compile(scenario, cache)
        renamed = _compile(scenario, cache, policy=_renamed(scenario, "zz_"))
        assert cache.hits == cache.stores
        assert _reservations(renamed) == _reservations(cold)
        assert {
            "zz_" + key: path for key, path in _paths(cold).items()
        } == _paths(renamed)

    def test_a_warm_hit_does_not_alias_what_it_was_served_from(self, scenario):
        """A hit is a re-addressed copy: the solutions it was served from
        keep the cold ids, paths and statistics after the warm resolve."""
        cache = ComponentSolutionCache()
        cold = _resolve(scenario, cache, scenario.policy)
        before = [
            (s.spec, dict(s.location_paths), dict(s.statistics))
            for s in cold.partition_solutions
        ]
        warm = _resolve(scenario, cache, _renamed(scenario, "zz_"))
        assert cache.hits == cache.stores == len(before)
        assert all(
            s.statistics["component_cache_hit"] == 1.0
            and s.solve_seconds == s.construction_seconds == 0.0
            and all(sid.startswith("zz_") for sid in s.location_paths)
            for s in warm.partition_solutions
        )
        assert [
            (s.spec, s.location_paths, s.statistics) for s in cold.partition_solutions
        ] == before
        assert not any(
            "component_cache_hit" in s.statistics for s in cold.partition_solutions
        )

    def test_identical_members_are_readdressed_by_sorted_id_position(self):
        """Two members with one digest (same hosts, path and rate; only the
        port differs) are told apart by nothing but their ids.  Under names
        that flip their sorted order, a hit hands each the path of the
        member at its sorted position — what a cold compile of the renamed
        policy, with no cache, picks too."""
        topology = Topology(name="two-lanes")
        for switch in ("s1", "s2", "s3", "s4"):
            topology.add_switch(switch)
        topology.add_host("h1", attached_switch="s1")
        topology.add_host("h2", attached_switch="s4")
        topology.add_link("h1", "s1", Bandwidth.gbps(10))
        topology.add_link("h2", "s4", Bandwidth.gbps(10))
        for middle in ("s2", "s3"):  # two 1 Gbps lanes: two 600 Mbps flows split
            topology.add_link("s1", middle, Bandwidth.gbps(1))
            topology.add_link(middle, "s4", Bandwidth.gbps(1))

        def compile_with(cache, first, second):
            compiler = _compiler(topology, cache)
            return counting_solver_calls(
                lambda: compiler.compile(TWO_FLOWS.format(first, second))
            )

        cache = ComponentSolutionCache()
        cold, _ = compile_with(cache, "a", "b")
        assert cache.stores == 1
        assert _paths(cold)["a"] != _paths(cold)["b"]
        hit, solves = compile_with(cache, "y", "x")  # port 80 sorts second now
        assert solves == 0 and cache.hits == 1
        assert _paths(hit) == {"x": _paths(cold)["a"], "y": _paths(cold)["b"]}
        uncached, _ = compile_with(None, "y", "x")
        assert _paths(hit) == _paths(uncached)
        assert _reservations(hit) == _reservations(uncached)

    def test_permuted_statements_hit(self, scenario):
        cache = ComponentSolutionCache()
        cold = _compile(scenario, cache)
        permuted = _compile(scenario, cache, policy=_permuted(scenario))
        assert cache.hits == cache.stores
        assert _reservations(permuted) == _reservations(cold)
        assert _paths(permuted) == _paths(cold)


class TestDistinctContentMisses:
    def test_different_backend_options_miss(self, scenario):
        cache = ComponentSolutionCache()
        _compile(scenario, cache)
        _compile(scenario, cache, solver="bnb")
        # The bnb-keyed lookups all missed and stored their own records.
        assert cache.hits == 0
        assert cache.misses == cache.stores
        assert cache.stores == 2 * len(scenario.policy.statements)

    def test_different_guarantees_miss(self, scenario):
        cache = ComponentSolutionCache()
        _compile(scenario, cache)
        other = pod_tenant_scenario(
            arity=4, pairs_per_pod=2, guarantee=scenario.guarantee * 1.5
        )
        _compile(other, cache)
        assert cache.hits == 0
        assert cache.misses == 2 * len(scenario.policy.statements)


class TestOnlyProofsAreStored:
    def test_a_solve_that_found_nothing_is_not_cached_as_infeasible(self, scenario):
        """What the wall clock decided in one run must not answer the next:
        ``ERROR`` widens within the call, then fails it, and leaves nothing
        behind for a compiler sharing the cache to be served."""
        cache = ComponentSolutionCache()
        backend = FlakyBackend()
        with pytest.raises(ProvisioningError) as raised:
            _compile(scenario, cache, solver=backend)
        message = str(raised.value)
        assert "no solution found (solver status: error)" in message
        assert "cannot be satisfied" not in message
        assert len(cache) == 0 and cache.stores == 0
        assert cache.bypasses > 0

        backend.failing = False
        recovered = _compile(scenario, cache, solver=backend)
        assert cache.hits == 0
        assert cache.stores == len(scenario.policy.statements)
        assert _paths(recovered) == _paths(_compile(scenario, None))

    def test_a_proven_infeasibility_is_cached_and_skips_the_rung(self):
        """Two 600 Mbps statements over one 1 Gbps link: infeasible at every
        rung, proven each time, so a second compiler sharing the cache
        fails the same way without a single solve."""
        cache = ComponentSolutionCache()
        assert _refused(cache, "x", "y") >= 1
        rungs = cache.stores
        assert rungs >= 1 and cache.bypasses == 0
        assert _refused(cache, "x", "y") == 0
        assert cache.hits == rungs and cache.stores == rungs

    def test_a_proven_infeasibility_is_a_hit_under_renamed_ids(self):
        """The stored marker is content-addressed like a solution: the same
        guarantees asked for under other names fail without a solve."""
        cache = ComponentSolutionCache()
        assert _refused(cache, "x", "y") >= 1
        rungs = cache.stores
        assert _refused(cache, "tenant_b_y", "tenant_b_x") == 0
        assert cache.hits == rungs and cache.stores == rungs


class TestBounds:
    def test_lru_eviction_keeps_the_most_recent_entries(self):
        cache = ComponentSolutionCache(limit=2)
        cache.put("a", "stored")
        cache.put("b", "stored")
        assert cache.get("a") is not None  # refreshes "a" to most-recent
        cache.put("c", "stored")  # evicts "b", the LRU entry
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_a_re_put_refreshes_recency_and_holds_the_outcome_as_given(self):
        cache = ComponentSolutionCache(limit=2)
        outcome = object()
        cache.put("a", "stored")
        cache.put("b", "stored")
        cache.put("a", outcome)  # replaces "a" and makes it most recent
        cache.put("c", "stored")  # evicts "b"
        assert len(cache) == 2 and cache.stores == 4
        assert cache.get("b") is None
        assert cache.get("a") is outcome

    def test_rejects_nonsense_limits(self):
        with pytest.raises(ValueError):
            ComponentSolutionCache(limit=0)
