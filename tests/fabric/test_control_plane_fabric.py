"""The control plane's component cache.

The plane injects its cache into every group's compiler options (unless
the group set its own), so cache traffic shows up both in the cache's
counters and — via the plane's telemetry bundle — in ``plane.metrics()``.
"""

import asyncio

from repro.core.ast import Statement
from repro.core.options import ProvisionOptions
from repro.fabric import ComponentSolutionCache
from repro.incremental import DeltaStatement, PolicyDelta
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.parser import parse_path_expression
from repro.service import ControlPlane
from repro.topology.generators import figure2_example
from repro.units import Bandwidth

SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* ],
min(x, 25MB/s) and min(z, 50MB/s)
"""
PLACEMENTS = {"dpi": ("h1", "h2", "m1"), "nat": ("m1",)}


def _add(identifier, port, guarantee=Bandwidth.mb_per_sec(5)):
    statement = Statement(
        identifier,
        pred_and(
            FieldTest("eth.src", "00:00:00:00:00:01"),
            pred_and(
                FieldTest("eth.dst", "00:00:00:00:00:02"),
                FieldTest("tcp.dst", port),
            ),
        ),
        parse_path_expression(".* dpi .*"),
    )
    return PolicyDelta(add=(DeltaStatement(statement, guarantee=guarantee),))


async def _open(plane, name="g", **overrides):
    return await plane.open_group(
        name,
        SOURCE,
        topology=figure2_example(capacity=Bandwidth.gbps(2)),
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        **overrides,
    )


def test_plane_cache_is_injected_and_counted_in_metrics():
    cache = ComponentSolutionCache()

    async def run():
        plane = ControlPlane(component_cache=cache)
        await _open(plane)
        ticket = plane.submit("g", _add("w", 443))
        plane.start()
        await ticket.result()
        await plane.shutdown()
        return plane.metrics()

    metrics = asyncio.run(run())
    # The group compile(s) consulted and populated the plane-level cache...
    assert cache.misses > 0 and cache.stores > 0
    # ...and the hit/miss/store counters are queryable on the plane.
    assert metrics.counter_total("component_signature_misses") == cache.misses
    assert metrics.counter_total("component_signature_stores") == cache.stores


def test_group_options_beat_the_plane_defaults():
    plane_cache = ComponentSolutionCache()
    group_cache = ComponentSolutionCache()

    async def run():
        plane = ControlPlane(component_cache=plane_cache)
        await _open(
            plane, options=ProvisionOptions(component_cache=group_cache)
        )
        await plane.shutdown()

    asyncio.run(run())
    assert group_cache.misses > 0  # the group's own cache saw the traffic
    assert plane_cache.misses == 0 and plane_cache.stores == 0


def test_the_plane_cache_fills_only_the_unset_cache_field():
    cache = ComponentSolutionCache()
    options = ProvisionOptions(solver="bnb", footprint_slack=4, node_limit=50)

    async def run():
        plane = ControlPlane(component_cache=cache)
        await _open(plane, options=options)
        await plane.shutdown()
        return plane

    plane = asyncio.run(run())
    injected = plane._groups["g"].compiler.options
    assert injected == ProvisionOptions(
        solver="bnb", footprint_slack=4, node_limit=50, component_cache=cache
    )
