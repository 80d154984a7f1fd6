"""A backend that raises mid-solve: the error leaves, the transaction does not.

Components are solved one after another in the calling process, so an
exception a backend raises is not contained by anything under the engine:
it propagates out of ``recompile()``, whose transaction rolls back exactly
as it does for an infeasible delta.  Whatever the loop wrote before the
raise — the memo entry and the content-cache record of a component solved
earlier in the same resolve — is keyed by content that either no longer
exists (a token is never re-issued) or is still true (a proven optimum),
so the next recompile is a from-scratch compile's equal.  Through the
control plane the ticket fails and the committed state is untouched, and
a merged batch that raises is retried one delta at a time.
"""

import asyncio

import pytest

from repro.core import MerlinCompiler, ProvisionOptions
from repro.core.ast import BandwidthTerm, FMin, Policy, formula_and
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.fabric import ComponentSolutionCache
from repro.incremental import PolicyDelta, RateUpdate
from repro.scenarios import allocations_match
from repro.service import ControlPlane
from repro.telemetry import Telemetry
from repro.units import Bandwidth
from tests.conftest import RaisingBackend

#: Two statements in two pods: the recompile re-solves two components.
NEW_RATES = {"p0s0": Bandwidth.mbps(60), "p1s0": Bandwidth.mbps(70)}
DELTA = PolicyDelta(
    update_rates=tuple(RateUpdate(sid, rate) for sid, rate in NEW_RATES.items())
)


def _compiler(scenario, backend, cache=None):
    return MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=ProvisionOptions(solver=backend, component_cache=cache),
    )


def _final_policy(scenario):
    clauses = [
        FMin(
            BandwidthTerm(identifiers=(statement.identifier,)),
            NEW_RATES.get(statement.identifier, scenario.guarantee),
        )
        for statement in scenario.policy.statements
    ]
    return Policy(statements=scenario.policy.statements, formula=formula_and(*clauses))


@pytest.mark.parametrize("cached", (False, True), ids=("memo", "memo+cache"))
def test_the_error_propagates_rolls_back_and_leaves_nothing_harmful(cached):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    backend = RaisingBackend()
    cache = ComponentSolutionCache() if cached else None
    compiler = _compiler(scenario, backend, cache)
    compiled = compiler.compile(scenario.policy)
    stores = cache.stores if cached else 0

    backend.raise_on = backend.calls + 2
    failing = Telemetry.recording()
    with failing.use():
        with pytest.raises(RuntimeError, match="mid-solve"):
            compiler.recompile(DELTA)
    counters = failing.snapshot()
    assert counters.counter_total("transactions_rolled_back") == 1
    assert counters.counter_total("transactions_committed") == 0
    # The first component was solved (and, with a cache, stored) before
    # the second one's solve raised inside its own span.
    solves = [s for s in failing.recorder.spans if s.name == "component_solve"]
    assert [s.attributes.get("error") for s in solves] == [None, "RuntimeError"]
    if cached:
        assert cache.stores == stores + 1

    # The session is the compiled one: an empty delta re-solves nothing.
    unchanged = compiler.recompile(PolicyDelta())
    assert unchanged.statistics.dirty_partitions == 0
    assert allocations_match(unchanged, compiled, tolerance=0.0)

    retried = compiler.recompile(DELTA)
    fresh = _compiler(scenario, RaisingBackend()).compile(_final_policy(scenario))
    assert allocations_match(retried, fresh, tolerance=0.0)
    assert retried.rates == fresh.rates


def test_through_the_control_plane_the_ticket_fails_and_state_is_untouched():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    backend = RaisingBackend()

    async def run():
        plane = ControlPlane()
        await plane.open_group(
            "g",
            scenario.policy,
            topology=scenario.topology,
            options=ProvisionOptions(solver=backend),
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
        )
        before = plane.query("g")
        backend.raise_on = backend.calls + 2
        async with plane:
            ticket = plane.submit("g", DELTA, tenant="alice")
            with pytest.raises(RuntimeError, match="mid-solve"):
                await ticket.result()
        return before, plane.query("g"), plane.metrics()

    before, after, metrics = asyncio.run(run())
    assert after.revision == before.revision == 0
    assert after.statements == before.statements
    assert after.last_batch == before.last_batch is None
    assert after.tenants["alice"].failed == 1
    assert metrics.counter_total("transactions_rolled_back") == 1
    assert metrics.counter_total("batches_failed") == 1


def test_a_merged_batch_that_raises_is_retried_delta_by_delta():
    """The raise sinks the merged transaction, not its members: each delta
    is retried alone, commits, and the group ends where a from-scratch
    compile of the final policy is."""
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
    backend = RaisingBackend()

    async def run():
        plane = ControlPlane()
        await plane.open_group(
            "g",
            scenario.policy,
            topology=scenario.topology,
            options=ProvisionOptions(solver=backend),
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
        )
        backend.raise_on = backend.calls + 2
        tickets = [
            plane.submit("g", PolicyDelta(update_rates=(update,)), tenant=tenant)
            for update, tenant in zip(DELTA.update_rates, ("alice", "bob"))
        ]
        async with plane:
            results = [await ticket.result() for ticket in tickets]
        return results[-1], plane.query("g"), plane.metrics()

    last, state, metrics = asyncio.run(run())
    assert metrics.counter_total("batch_splits") == 1
    assert metrics.counter_total("transactions_rolled_back") == 1
    assert metrics.counter_total("batches_committed") == 2
    assert state.revision == 2
    fresh = _compiler(scenario, RaisingBackend()).compile(_final_policy(scenario))
    assert allocations_match(last, fresh, tolerance=0.0)
