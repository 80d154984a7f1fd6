"""The content-addressed component cache, end to end through real compiles.

A fat tree with one tenant per pod makes the partition decomposition
produce link-disjoint MIP components (one per guaranteed host pair at
this scale), so the cache counters are exactly predictable: a cold
compile stores one record per component, a warm
compile of the *same content* — same tenant, renamed tenants, permuted
statements — hits every one of them, skips the model build entirely, and
still reproduces the cold compile's allocations byte for byte.
"""

import hashlib
import json

import pytest

from repro.core.ast import BandwidthTerm, FMin, Policy, Statement, formula_and
from repro.core.compiler import MerlinCompiler
from repro.core.options import ProvisionOptions
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.fabric import ComponentSolutionCache
from repro.telemetry import Telemetry
from repro.topology.generators import figure2_example
from repro.units import Bandwidth
from tests.conftest import FlakyBackend


@pytest.fixture(scope="module")
def scenario():
    return pod_tenant_scenario(arity=4, pairs_per_pod=2)


def _compile(scenario, cache, policy=None, **option_overrides):
    options = ProvisionOptions(component_cache=cache, **option_overrides)
    compiler = MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=options,
    )
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
        topology = figure2_example(capacity=Bandwidth.gbps(1))
        source = """
        [ x : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
               and tcp.dst = 80) -> .* ;
          y : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
               and tcp.dst = 81) -> .* ],
        min(x, 600Mbps) and min(y, 600Mbps)
        """
        cache = ComponentSolutionCache()

        def attempt():
            compiler = MerlinCompiler(
                topology=topology,
                overlap="trust",
                add_catch_all=False,
                generate_code=False,
                options=ProvisionOptions(component_cache=cache),
            )
            recording = Telemetry.recording()
            with recording.use(), pytest.raises(
                ProvisioningError, match="cannot be satisfied"
            ):
                compiler.compile(source)
            return recording.snapshot().counter_total("solver_calls")

        assert attempt() >= 1
        rungs = cache.stores
        assert rungs >= 1 and cache.bypasses == 0
        assert attempt() == 0
        assert cache.hits == rungs and cache.stores == rungs


class TestSpill:
    def test_spill_file_dedupes_across_cache_instances(self, scenario, tmp_path):
        spill = tmp_path / "components.jsonl"
        first = ComponentSolutionCache(spill_path=spill)
        cold = _compile(scenario, first)
        assert first.stores > 0 and spill.exists()

        second = ComponentSolutionCache(spill_path=spill)
        assert len(second) == first.stores  # replayed, not re-solved
        warm = _compile(scenario, second)
        assert second.hits == first.stores and second.stores == 0
        assert _reservations(warm) == _reservations(cold)

    def test_replay_tolerates_garbage_and_stale_versions(self, scenario, tmp_path):
        spill = tmp_path / "components.jsonl"
        first = ComponentSolutionCache(spill_path=spill)
        _compile(scenario, first)
        stored = first.stores
        with spill.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"signature": "s", "record": {"version": "older-v0"}}\n')
            handle.write('{"signature": "t"}\n')
        second = ComponentSolutionCache(spill_path=spill)
        assert len(second) == stored  # the garbage and stale lines were skipped

    def test_replay_past_the_bound_keeps_the_spill_s_last_entries(
        self, scenario, tmp_path
    ):
        """Replay inserts the way ``put`` does: a spill longer than the bound
        leaves its last ``limit`` signatures, and nothing is re-spilled."""
        spill = tmp_path / "components.jsonl"
        first = ComponentSolutionCache(spill_path=spill)
        _compile(scenario, first)
        lines = spill.read_text(encoding="utf-8").splitlines()
        assert len(lines) == first.stores > 2
        signatures = [json.loads(line)["signature"] for line in lines]

        bounded = ComponentSolutionCache(limit=2, spill_path=spill)
        assert len(bounded) == 2
        assert bounded.stores == 0
        for signature in signatures[:-2]:
            assert bounded.get(signature) is None
        for signature in signatures[-2:]:
            assert bounded.get(signature) is not None
        assert spill.read_text(encoding="utf-8").splitlines() == lines

    @pytest.mark.parametrize(
        "damage",
        ["truncated-line", "missing-field", "flipped-character", "older-version"],
    )
    def test_a_line_the_replay_cannot_trust_is_skipped_and_re_solved(
        self, scenario, tmp_path, damage
    ):
        """The spill is read back believing nothing: each kind of damage
        costs one re-solve and is counted, and none reaches an answer."""
        spill = tmp_path / "components.jsonl"
        first = ComponentSolutionCache(spill_path=spill)
        cold = _compile(scenario, first)
        lines = spill.read_text(encoding="utf-8").splitlines()
        assert len(lines) == first.stores > 1

        def resealed(entry):
            """The line a writer of this layout would have produced."""
            body = json.dumps(entry["record"], sort_keys=True, separators=(",", ":"))
            entry["digest"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
            return json.dumps(entry)

        entry = json.loads(lines[0])
        if damage == "truncated-line":
            lines[0] = lines[0][: len(lines[0]) // 2]
        elif damage == "missing-field":
            del entry["record"]["fractions"]
            lines[0] = resealed(entry)
        elif damage == "flipped-character":
            path = next(iter(entry["record"]["location_paths"].values()))
            path[1] = path[1][:-1] + "9"  # a switch the topology does not have
            assert not scenario.topology.has_node(path[1])
            lines[0] = json.dumps(entry)  # under the digest of what was written
        else:
            entry["record"]["version"] = "merlin-component-v2"
            entry["record"]["values"] = {}
            lines[0] = resealed(entry)
        spill.write_text("\n".join(lines) + "\n", encoding="utf-8")

        recording = Telemetry.recording()
        with recording.use():
            second = ComponentSolutionCache(spill_path=spill)
            result = _compile(scenario, second)
        counters = recording.snapshot()
        assert counters.counter_total("component_signature_spill_skipped") == 1
        assert counters.counter_total("component_signature_spill_loads") == first.stores - 1
        assert second.hits == first.stores - 1 and second.stores == 1
        assert _reservations(result) == _reservations(cold)
        assert _paths(result) == _paths(cold)
        # What was re-solved went back to the spill, whole this time.
        third = ComponentSolutionCache(spill_path=spill)
        assert len(third) == first.stores


class TestBounds:
    def test_lru_eviction_keeps_the_most_recent_entries(self):
        cache = ComponentSolutionCache(limit=2)
        cache.put("a", {"version": "v"})
        cache.put("b", {"version": "v"})
        assert cache.get("a") is not None  # refreshes "a" to most-recent
        cache.put("c", {"version": "v"})  # evicts "b", the LRU entry
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_rejects_nonsense_limits(self):
        with pytest.raises(ValueError):
            ComponentSolutionCache(limit=0)
