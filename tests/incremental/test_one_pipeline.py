"""One provisioning pipeline: ``compile()`` fills the session it returns.

A compile enters its statements through the same mutators a delta uses and
hands back a session whose engine already holds them, so nothing is re-added,
re-tightened or re-proved by the first ``recompile()``; a compile that raises
midway leaves no session behind; ``partition=False`` is honoured by every
resolve of a session, not just the first; and the allocation does not depend
on ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.codegen.generator import CodeGenerator
from repro.core import MerlinCompiler, ProvisionOptions
from repro.core.ast import BandwidthTerm, FMin, Policy, Statement, formula_and
from repro.errors import ProvisioningError
from repro.fabric import ComponentSolutionCache
from repro.experiments.reprovisioning import (
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import (
    DeltaStatement,
    IncrementalProvisioner,
    PolicyDelta,
    RateUpdate,
)
from repro.incremental import solve as solve_module
from repro.incremental.solve import topology_capacities_mbps
from repro.predicates.ast import FieldTest
from repro.regex.ast import any_path
from repro.scenarios import allocations_match
from repro.telemetry import Telemetry
from repro.units import Bandwidth

from test_slack_widening import SOURCE as WIDENING_SOURCE
from test_slack_widening import _widening_topology
from tests.conftest import RaisingBackend
from tests.reference_provisioning import assert_forms_identical, build_model_for_links


def _compiler(topology, **kwargs):
    return MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        **kwargs,
    )


def _policy(scenario, extra=(), **guarantees):
    """The scenario's policy plus ``extra`` statements, every statement
    guaranteed ``scenario.guarantee`` unless ``guarantees`` names it."""
    statements = scenario.policy.statements + tuple(extra)
    clauses = [
        FMin(
            BandwidthTerm(identifiers=(statement.identifier,)),
            guarantees.get(statement.identifier, scenario.guarantee),
        )
        for statement in statements
    ]
    return Policy(statements=statements, formula=formula_and(*clauses))


def test_first_recompile_adds_and_tightens_only_the_new_statement(monkeypatch):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    compiler = _compiler(scenario.topology)
    compiler.compile(scenario.policy)

    added, pruned = [], []
    add_statement = IncrementalProvisioner.add_statement
    prune = solve_module.prune_to_cost_bound

    def counting_add(self, statement, *args, **kwargs):
        added.append(statement.identifier)
        return add_statement(self, statement, *args, **kwargs)

    def counting_prune(logical, slack):
        pruned.append(logical.statement_id)
        return prune(logical, slack)

    monkeypatch.setattr(IncrementalProvisioner, "add_statement", counting_add)
    monkeypatch.setattr(solve_module, "prune_to_cost_bound", counting_prune)

    compiler.prepare_incremental()
    wild = unconstrained_statement(scenario)
    compiler.recompile(
        PolicyDelta(add=(DeltaStatement(wild, guarantee=scenario.guarantee),))
    )

    assert added == ["wild"]
    assert pruned == ["wild"]


def _island_and_widening():
    """The widening topology with its ``s1``-``a`` link failed, plus an
    island ``w`` on a path of its own: a compile proves {x, y} infeasible
    at slack 2 and widens, and a delta on ``w`` re-solves the island only.
    Returns the degraded topology and the policy source."""
    topology = _widening_topology()
    topology.add_switch("s3")
    topology.add_switch("s4")
    topology.add_host("h5", mac="00:00:00:00:00:05", attached_switch="s3")
    topology.add_host("h6", mac="00:00:00:00:00:06", attached_switch="s4")
    for link in (("h5", "s3"), ("s3", "s4"), ("s4", "h6")):
        topology.add_link(*link, Bandwidth.gbps(1))
    statements, formula = WIDENING_SOURCE.strip().rsplit("],", 1)
    source = (
        statements
        + "; w : (eth.src = 00:00:00:00:00:05 and eth.dst = 00:00:00:00:00:06"
        + " and tcp.dst = 82) -> .* ],"
        + formula
        + " and min(w, 100Mbps)"
    )
    return topology.without(links=[("s1", "a")]), source


def test_first_recompile_after_a_widened_compile_skips_the_proven_rungs():
    """The compile walked the widening ladder for {x, y}; a delta on the
    island statement re-solves the island only and takes the infeasible
    rung of {x, y} from the engine's cache instead of re-proving it."""
    topology, source = _island_and_widening()
    compiler = _compiler(topology)

    compiling = Telemetry.recording()
    with compiling.use():
        compiled = compiler.compile(source)
    assert compiled.statistics.slack_retries >= 1
    assert compiling.snapshot().counter_total("components_infeasible") >= 1

    recompiling = Telemetry.recording()
    with recompiling.use():
        result = compiler.recompile(
            PolicyDelta(update_rates=(RateUpdate("w", Bandwidth.mbps(200)),))
        )
    counters = recompiling.snapshot()
    assert result.statistics.dirty_partitions == 1
    assert counters.counter_total("solver_calls") == 1
    assert counters.counter_total("components_infeasible") == 0
    assert counters.counter_total("component_cache_infeasible_hits") >= 1
    assert result.paths["x"].path == compiled.paths["x"].path
    assert result.paths["y"].path == compiled.paths["y"].path


def test_an_infeasibility_the_content_cache_proves_is_memoized():
    """A second compiler learns from a shared content cache that {x, y} is
    infeasible at slack 2.  That proof is written into its memo like a
    solution hit, so each later recompile of ``w`` takes the rung from the
    memo — as a session without a cache does — instead of canonicalizing
    {x, y} and asking the content cache again."""
    topology, source = _island_and_widening()
    cache = ComponentSolutionCache()
    _compiler(topology, options=ProvisionOptions(component_cache=cache)).compile(
        source
    )
    compiler = _compiler(topology, options=ProvisionOptions(component_cache=cache))
    compiler.compile(source)

    for rate in (200, 300):
        recompiling = Telemetry.recording()
        with recompiling.use():
            compiler.recompile(
                PolicyDelta(update_rates=(RateUpdate("w", Bandwidth.mbps(rate)),))
            )
        counters = recompiling.snapshot()
        assert counters.counter_total("solver_calls") == 1
        assert counters.counter_total("component_signature_hits") == 0
        assert counters.counter_total("component_cache_infeasible_hits") == 1


class TestFailedCompileLeavesNoSession:
    """Whatever stage raises, the previous session is gone, none is
    published, and the compiler then behaves like a fresh one."""

    def _check(self, compiler, scenario, bad_policy, error):
        compiler.compile(scenario.policy)
        assert compiler.has_session
        with pytest.raises(error):
            compiler.compile(bad_policy)
        assert not compiler.has_session
        with pytest.raises(ProvisioningError):
            compiler.recompile(PolicyDelta(remove=("p0s0",)))
        again = compiler.compile(scenario.policy)
        fresh = MerlinCompiler(
            topology=scenario.topology, overlap="trust", add_catch_all=False
        ).compile(scenario.policy)
        assert allocations_match(again, fresh)
        assert again.instructions == fresh.instructions

    def _scenario_and_compiler(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        compiler = MerlinCompiler(
            topology=scenario.topology, overlap="trust", add_catch_all=False
        )
        return scenario, compiler

    def test_unprovisionable_guarantee(self):
        scenario, compiler = self._scenario_and_compiler()
        # A guarantee on a statement whose endpoints cannot be inferred.
        nowhere = Statement("nowhere", FieldTest("tcp.dst", 9), any_path())
        bad = _policy(scenario, extra=(nowhere,))
        self._check(compiler, scenario, bad, ProvisioningError)

    def test_infeasible_solve(self):
        scenario, compiler = self._scenario_and_compiler()
        bad = _policy(scenario, p1s0=Bandwidth.gbps(50))
        self._check(compiler, scenario, bad, ProvisioningError)

    def test_backend_error(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        # The first compile solves one component per pod; the second
        # compile's second solve raises.
        backend = RaisingBackend(raise_on=len(scenario.pods) + 2)
        compiler = MerlinCompiler(
            topology=scenario.topology,
            overlap="trust",
            add_catch_all=False,
            options=ProvisionOptions(solver=backend),
        )
        doomed = _policy(scenario, p1s0=Bandwidth.mbps(7))
        self._check(compiler, scenario, doomed, RuntimeError)

    def test_codegen_error(self, monkeypatch):
        scenario, compiler = self._scenario_and_compiler()
        generate = CodeGenerator.generate
        doomed = _policy(scenario, p1s0=Bandwidth.mbps(7))

        def explode(self, policy, paths, rates, *args, **kwargs):
            if rates["p1s0"].guarantee == Bandwidth.mbps(7):
                raise RuntimeError("codegen failed")
            return generate(self, policy, paths, rates, *args, **kwargs)

        monkeypatch.setattr(CodeGenerator, "generate", explode)
        self._check(compiler, scenario, doomed, RuntimeError)


def test_partition_false_is_honoured_by_every_resolve():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    options = ProvisionOptions(partition=False)
    compiler = _compiler(scenario.topology, options=options)
    compiled = compiler.compile(scenario.policy)
    assert compiled.statistics.num_partitions == 1

    updated = compiler.recompile(
        PolicyDelta(update_rates=(RateUpdate("p0s0", Bandwidth.mbps(80)),))
    )
    assert updated.statistics.num_partitions == 1

    fresh = _compiler(scenario.topology, options=options).compile(
        _policy(scenario, p0s0=Bandwidth.mbps(80))
    )
    assert fresh.statistics.num_partitions == 1
    assert allocations_match(updated, fresh)
    assert updated.statistics.num_mip_variables == fresh.statistics.num_mip_variables
    assert (
        updated.statistics.num_mip_constraints
        == fresh.statistics.num_mip_constraints
    )


def test_partition_false_does_not_depend_on_rollback_history():
    """A journal rollback re-inserts an un-deleted record at the end of the
    engine's dict; the undecomposed model used to take its rows in that
    order, so after two rolled-back removals the solver broke ties
    differently than on a session that never saw them."""
    scenario = pod_tenant_scenario(arity=6, pairs_per_pod=2)
    options = ProvisionOptions(partition=False)
    update = PolicyDelta(update_rates=(RateUpdate("p5s1", Bandwidth.mbps(60)),))

    def compiled_session():
        compiler = _compiler(scenario.topology, options=options)
        compiler.compile(scenario.policy)
        return compiler

    rolled = compiled_session()
    for identifier in ("p0s0", "p0s1"):
        oversized = DeltaStatement(
            rolled.session_statement(identifier), guarantee=Bandwidth.gbps(1000)
        )
        with pytest.raises(ProvisioningError, match="infeasible"):
            rolled.recompile(PolicyDelta(remove=(identifier,), add=(oversized,)))
    after_rollbacks = rolled.recompile(update)
    never_failed = compiled_session().recompile(update)
    fresh = _compiler(scenario.topology, options=options).compile(
        _policy(scenario, p5s1=Bandwidth.mbps(60))
    )
    assert after_rollbacks.statistics.num_partitions == 1
    assert allocations_match(after_rollbacks, never_failed)
    assert allocations_match(after_rollbacks, fresh)


def test_partition_false_solves_the_reference_model_through_the_component_path(
    monkeypatch,
):
    """With partitioning off the loop's one component is the undecomposed
    model — every statement untightened over every link, in canonical
    order, exactly as the object builder exports it — and it is memoized
    like any component: a cap-only update re-solves nothing."""
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    built = []
    build = solve_module.build_partition_model

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(solve_module, "build_partition_model", spy)
    compiler = _compiler(
        scenario.topology, options=ProvisionOptions(partition=False)
    )
    compiler.compile(scenario.policy)
    assert len(built) == 1

    engine = compiler._session.engine
    identifiers = sorted(engine.statement_ids())
    reference = build_model_for_links(
        [compiler.session_statement(identifier) for identifier in identifiers],
        {identifier: engine.untightened_for(identifier) for identifier in identifiers},
        {identifier: engine._records[identifier].rates for identifier in identifiers},
        sorted(topology_capacities_mbps(scenario.topology).items()),
    )
    assert_forms_identical(built[0].model, reference.model.to_standard_form())

    capped = compiler.recompile(
        PolicyDelta(
            update_rates=(
                RateUpdate("p0s0", scenario.guarantee, cap=Bandwidth.gbps(1)),
            )
        )
    )
    assert len(built) == 1
    assert capped.statistics.dirty_partitions == 0
    assert capped.rates["p0s0"].cap == Bandwidth.gbps(1)


_ALL_PAIRS_SCRIPT = """
import hashlib
from repro.core.compiler import MerlinCompiler
from repro.experiments.policy_builders import all_pairs_policy
from repro.topology.generators import fat_tree

topology = fat_tree(4)
policy = all_pairs_policy(topology, guarantee_fraction=0.25, seed=0)
result = MerlinCompiler(
    topology=topology, overlap="trust", add_catch_all=False
).compile(policy)
for part in (
    sorted((i, p.path) for i, p in result.paths.items()),
    sorted((k, v.bps_value) for k, v in result.link_reservations.items()),
    result.instructions,
):
    print(hashlib.sha256(repr(part).encode()).hexdigest())
"""


def test_all_pairs_allocation_is_the_same_under_any_hash_seed():
    """Flow rows used to go out in the iteration order of a set of
    vertices, so the solver broke ties differently per process."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for seed in ("0", "1"):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-c", _ALL_PAIRS_SCRIPT],
            capture_output=True, text=True, env=environment, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]
