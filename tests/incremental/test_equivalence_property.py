"""Property-style equivalence: any delta sequence == from-scratch compile.

The acceptance property of the incremental engine: after an arbitrary
sequence of add / remove / update deltas, ``resolve()`` (and the compiler's
``recompile``) must produce allocations *identical* to a from-scratch
``compile()`` of the final policy.  Identity is by construction — both
paths partition the statements the same way and solve byte-identical
canonical component models, and a solve is handed nothing but its model —
and this test drives randomized sequences through both layers, under both
exact backends, to prove it holds across churn, cache reuse, and component
merges/splits.
"""

import random

import pytest

from repro.core import MerlinCompiler, ProvisionOptions, compile_policy
from repro.core.ast import BandwidthTerm, FMin, Policy, formula_and
from repro.core.localization import localize
from repro.experiments.reprovisioning import (
    _pod_statement,
    pod_tenant_scenario,
)
from repro.incremental import (
    DeltaStatement,
    IncrementalProvisioner,
    PolicyDelta,
    RateUpdate,
)
from repro.units import Bandwidth
from tests.conftest import add_guaranteed


def _paths(result):
    return {identifier: p.path for identifier, p in result.paths.items()}


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


def _assert_same_allocations(incremental, scratch):
    assert _paths(incremental) == _paths(scratch)
    left, right = _reservations(incremental), _reservations(scratch)
    assert set(left) == set(right)
    for key in left:
        assert left[key] == pytest.approx(right[key], abs=1e-3)


class _RandomPolicyChurn:
    """Shared generator of random pod-local statement churn."""

    def __init__(self, seed: int, arity: int = 4, pairs_per_pod: int = 1):
        self.rng = random.Random(seed)
        self.scenario = pod_tenant_scenario(arity=arity, pairs_per_pod=pairs_per_pod)
        rates = localize(self.scenario.policy)
        # id -> (statement, guarantee); the live population.
        self.active = {
            statement.identifier: (
                statement,
                rates[statement.identifier].guarantee,
            )
            for statement in self.scenario.policy.statements
        }
        self.counter = 0

    def _fresh_statement(self):
        self.counter += 1
        pod_index = self.rng.randrange(len(self.scenario.pods))
        pod = self.scenario.pods[pod_index]
        hosts = pod["hosts"]
        source, destination = self.rng.sample(hosts, 2)
        return _pod_statement(
            self.scenario.topology,
            pod,
            f"r{self.counter}",
            source,
            destination,
            10_000 + self.counter,
        )

    def _random_guarantee(self):
        return Bandwidth.mbps(self.rng.choice([10, 25, 50, 75]))

    def next_op(self):
        """One random delta op: ('add', stmt, g) | ('remove', id) | ('update', id, g)."""
        kinds = ["add"]
        if len(self.active) > 1:
            kinds += ["remove", "update", "update"]
        kind = self.rng.choice(kinds)
        if kind == "add":
            statement = self._fresh_statement()
            guarantee = self._random_guarantee()
            self.active[statement.identifier] = (statement, guarantee)
            return ("add", statement, guarantee)
        identifier = self.rng.choice(sorted(self.active))
        if kind == "remove":
            del self.active[identifier]
            return ("remove", identifier)
        statement, _ = self.active[identifier]
        guarantee = self._random_guarantee()
        self.active[identifier] = (statement, guarantee)
        return ("update", identifier, guarantee)

    def final_policy(self) -> Policy:
        statements = [statement for statement, _ in self.active.values()]
        clauses = [
            FMin(BandwidthTerm(identifiers=(statement.identifier,)), guarantee)
            for statement, guarantee in self.active.values()
        ]
        return Policy(statements=tuple(statements), formula=formula_and(*clauses))


EXACT_BACKENDS = ("scipy", "bnb")


@pytest.mark.parametrize("solver", EXACT_BACKENDS)
@pytest.mark.parametrize("seed", range(5))
def test_engine_delta_sequences_match_from_scratch_compile(seed, solver):
    """Engine layer: random churn + resolve == provision of the final set."""
    churn = _RandomPolicyChurn(seed)
    options = ProvisionOptions(solver=solver)
    engine = IncrementalProvisioner(churn.scenario.topology, options=options)
    for statement, guarantee in churn.active.values():
        add_guaranteed(engine, statement, guarantee)
    for step in range(8):
        op = churn.next_op()
        if op[0] == "add":
            add_guaranteed(engine, op[1], op[2])
        elif op[0] == "remove":
            engine.remove_statement(op[1])
        else:
            engine.update_rates(op[1], op[2])
        if step % 3 == 0:
            engine.resolve()  # interleave resolves to exercise the cache
    incremental = engine.resolve()

    scratch = compile_policy(
        churn.final_policy(),
        churn.scenario.topology,
        {},
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=options,
    )
    _assert_same_allocations(incremental, scratch)


@pytest.mark.parametrize("solver", EXACT_BACKENDS)
@pytest.mark.parametrize("partition", (True, False), ids=("partitioned", "unpartitioned"))
@pytest.mark.parametrize("seed", range(3))
def test_compiler_recompile_sequences_match_from_scratch_compile(seed, partition, solver):
    """Compiler layer: random recompile deltas == compile of the final policy."""
    churn = _RandomPolicyChurn(seed + 100)
    options = ProvisionOptions(partition=partition, solver=solver)
    compiler = MerlinCompiler(
        topology=churn.scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=options,
    )
    compiler.compile(churn.final_policy())
    for _ in range(6):
        op = churn.next_op()
        if op[0] == "add":
            delta = PolicyDelta(add=(DeltaStatement(op[1], guarantee=op[2]),))
        elif op[0] == "remove":
            delta = PolicyDelta(remove=(op[1],))
        else:
            delta = PolicyDelta(update_rates=(RateUpdate(op[1], guarantee=op[2]),))
        incremental = compiler.recompile(delta)

    scratch = compile_policy(
        churn.final_policy(),
        churn.scenario.topology,
        {},
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=options,
    )
    _assert_same_allocations(incremental, scratch)
