"""Solve-fabric guard: content-cache speedup and pool-reuse wins.

Two contracts, both on the pod-tenant fat-tree workload (one bandwidth-
guaranteed tenant per pod, link-disjoint MIP components):

* **Warm >= 3x cold.**  A re-sweep against a populated
  :class:`~repro.fabric.ComponentSolutionCache` must run at least 3x
  faster than the cold sweep — every component is served from the
  content-addressed cache instead of building and solving its MIP — while
  reproducing the cold sweep's allocations byte for byte.

* **Persistent pool beats per-call spin-up.**  Reusing one
  :class:`~repro.fabric.SolveFabric` across a series of multi-component
  batches must be faster than creating and destroying a process pool per
  batch (what ``solve_partition_models`` did before the fabric existed).

``make check`` runs the tier-1 suite (which includes this file at quick
scale); ``make bench-fabric`` runs it alone and writes
``.bench_out/results/fabric.txt``.
"""

import time

from conftest import is_full_scale

from repro.core.compiler import MerlinCompiler
from repro.core.options import ProvisionOptions
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.fabric import ComponentSolutionCache, SolveFabric

#: The warm-cache re-sweep must be at least this many times faster.
WARM_SPEEDUP_FLOOR = 3.0

_POOL_BATCHES = 4
_POOL_PAYLOADS = 4


def _scenario():
    if is_full_scale():
        return pod_tenant_scenario(arity=8, pairs_per_pod=3)
    return pod_tenant_scenario(arity=4, pairs_per_pod=3)


def _timed_compile(scenario, cache):
    compiler = MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        options=ProvisionOptions(component_cache=cache),
    )
    started = time.perf_counter()
    result = compiler.compile(scenario.policy)
    return time.perf_counter() - started, result


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


def test_warm_cache_sweep_is_3x_faster_and_byte_identical(report):
    scenario = _scenario()
    cache = ComponentSolutionCache()
    cold_seconds, cold = _timed_compile(scenario, cache)
    stores = cache.stores
    warm_seconds, warm = _timed_compile(scenario, cache)

    assert stores > 0 and cache.hits == stores  # every component was served
    assert _reservations(warm) == _reservations(cold)
    assert {k: p.path for k, p in warm.paths.items()} == {
        k: p.path for k, p in cold.paths.items()
    }
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    report(
        "fabric",
        "\n".join(
            [
                f"workload: {scenario.topology.name}, "
                f"{len(scenario.policy.statements)} guaranteed statements, "
                f"{stores} MIP components",
                f"cold sweep: {cold_seconds * 1000.0:.1f} ms "
                f"({cache.misses} cache misses, {stores} stores)",
                f"warm sweep: {warm_seconds * 1000.0:.1f} ms "
                f"({cache.hits} cache hits, 0 solves)",
                f"speedup: {speedup:.2f}x (floor {WARM_SPEEDUP_FLOOR}x)",
                "allocations: byte-identical",
            ]
        ),
    )
    assert warm_seconds * WARM_SPEEDUP_FLOOR <= cold_seconds, (
        f"warm-cache sweep only {speedup:.2f}x faster than cold "
        f"(need >= {WARM_SPEEDUP_FLOOR}x): cold={cold_seconds:.4f}s "
        f"warm={warm_seconds:.4f}s"
    )


def _fabric_task(payload):
    return payload + 1


def test_persistent_pool_beats_per_call_spinup(report):
    payloads = list(range(_POOL_PAYLOADS))
    expected = [payload + 1 for payload in payloads]

    persistent = SolveFabric(max_workers=2, task=_fabric_task)
    try:
        assert persistent.solve(payloads) == expected  # spawn outside the clock
        started = time.perf_counter()
        for _ in range(_POOL_BATCHES):
            assert persistent.solve(payloads) == expected
        persistent_seconds = time.perf_counter() - started
        assert persistent.spawned == 1
    finally:
        persistent.shutdown()

    started = time.perf_counter()
    for _ in range(_POOL_BATCHES):
        throwaway = SolveFabric(max_workers=2, task=_fabric_task)
        try:
            assert throwaway.solve(payloads) == expected
        finally:
            throwaway.shutdown()
    spinup_seconds = time.perf_counter() - started

    report(
        "fabric_pool",
        "\n".join(
            [
                f"{_POOL_BATCHES} batches x {_POOL_PAYLOADS} payloads, 2 workers",
                f"persistent fabric: {persistent_seconds * 1000.0:.1f} ms "
                "(1 pool spawn total)",
                f"per-call spin-up:  {spinup_seconds * 1000.0:.1f} ms "
                f"({_POOL_BATCHES} pool spawns)",
                f"reuse advantage: {spinup_seconds / persistent_seconds:.2f}x",
            ]
        ),
    )
    assert persistent_seconds < spinup_seconds, (
        f"persistent fabric ({persistent_seconds:.4f}s) did not beat per-call "
        f"spin-up ({spinup_seconds:.4f}s)"
    )
