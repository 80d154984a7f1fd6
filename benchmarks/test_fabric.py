"""Content-cache figure: what a warm component-solution cache saves.

One contract, stated as counts: **a warm sweep solves nothing.**  On the
pod-tenant fat-tree workload (one bandwidth-guaranteed tenant per pod,
link-disjoint MIP components) a re-sweep against a populated
:class:`~repro.fabric.ComponentSolutionCache` makes zero solver calls —
every component the cold sweep stored is a hit — and reproduces the cold
sweep's allocations byte for byte.
(``tests/fabric/test_component_cache.py::TestHitsAndByteIdenticalAllocations``
makes the same check on renamed and permuted policies.)

The latencies in the report come from each compile's
``statistics.total_seconds``; they are printed, not asserted.
``make bench-fabric`` runs this file alone and writes
``.bench_out/results/fabric.txt``.
"""

from conftest import is_full_scale

from repro.core.compiler import MerlinCompiler
from repro.core.options import ProvisionOptions
from repro.experiments.reprovisioning import (
    counting_solver_calls,
    pod_tenant_scenario,
)
from repro.fabric import ComponentSolutionCache
from repro.scenarios import allocations_match


def _scenario():
    if is_full_scale():
        return pod_tenant_scenario(arity=8, pairs_per_pod=3)
    return pod_tenant_scenario(arity=4, pairs_per_pod=3)


def _compile_counting_solves(scenario, cache):
    """Compile against ``cache``; the result and the solver calls it made."""
    compiler = MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=ProvisionOptions(component_cache=cache),
    )
    return counting_solver_calls(lambda: compiler.compile(scenario.policy))


def test_warm_cache_sweep_solves_nothing_and_is_byte_identical(report):
    scenario = _scenario()
    cache = ComponentSolutionCache()
    cold, cold_solves = _compile_counting_solves(scenario, cache)
    stores = cache.stores
    warm, warm_solves = _compile_counting_solves(scenario, cache)

    cold_ms = cold.statistics.total_seconds * 1000.0
    warm_ms = warm.statistics.total_seconds * 1000.0
    report(
        "fabric",
        "\n".join(
            [
                f"workload: {scenario.topology.name}, "
                f"{len(scenario.policy.statements)} guaranteed statements, "
                f"{stores} MIP components",
                f"cold sweep: {cold_ms:.1f} ms "
                f"({cache.misses} cache misses, {stores} stores, "
                f"{cold_solves} solves)",
                f"warm sweep: {warm_ms:.1f} ms "
                f"({cache.hits} cache hits, {warm_solves} solves)",
                f"speedup: {cold_ms / warm_ms:.2f}x",
                "allocations: byte-identical",
            ]
        ),
    )
    # The cold sweep solved and stored every component; the warm sweep was
    # served every one of them and never reached a solver.
    assert cold_solves == stores > 0
    assert cache.hits == stores
    assert warm_solves == 0
    assert allocations_match(warm, cold, tolerance=0.0)

