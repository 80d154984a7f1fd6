"""Control-plane telemetry: queue waits, batch spans, the metrics query.

Same driving idioms as ``test_control_plane.py`` (plain ``asyncio.run``,
submit-before-``start()`` for deterministic batching), plus the injected
clock now also feeds the plane's telemetry bundle, so queue-wait and
execution timings are exact integers under test.
"""

import asyncio

import pytest

from repro.core.ast import Statement
from repro.incremental import DeltaStatement, PolicyDelta
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.parser import parse_path_expression
from repro.service import AdmissionError, AdmissionPolicy, ControlPlane
from repro.telemetry import Telemetry, metric_key
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


def _pair_predicate(port):
    return pred_and(
        FieldTest("eth.src", "00:00:00:00:00:01"),
        pred_and(
            FieldTest("eth.dst", "00:00:00:00:00:02"), FieldTest("tcp.dst", port)
        ),
    )


def _add(identifier, port, guarantee=Bandwidth.mb_per_sec(5)):
    statement = Statement(
        identifier, _pair_predicate(port), parse_path_expression(".* dpi .*")
    )
    return PolicyDelta(add=(DeltaStatement(statement, guarantee=guarantee),))


async def _open(plane, name="g"):
    return await plane.open_group(
        name,
        SOURCE,
        topology=figure2_example(capacity=Bandwidth.gbps(2)),
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )


class TestQueueWaitVersusExecution:
    def test_batched_tickets_share_one_execution_with_distinct_waits(self):
        clock = {"now": 100.0}

        async def run():
            plane = ControlPlane(clock=lambda: clock["now"])
            await _open(plane)
            first = plane.submit("g", _add("w", 443), tenant="alice")
            clock["now"] += 3.0
            second = plane.submit("g", _add("v", 8080), tenant="bob")
            clock["now"] += 2.0
            plane.start()
            results = (await first.result(), await second.result())
            await plane.shutdown()
            return plane.query("g"), plane.metrics(), results

        state, metrics, (first_result, second_result) = asyncio.run(run())
        batch = state.last_batch
        assert batch.merged is True and batch.num_deltas == 2
        # One shared execution (the same transaction, one timing) but two
        # distinct queue waits: alice waited through both clock advances,
        # bob only through the second.
        assert first_result is second_result
        assert batch.queue_wait_seconds == (5.0, 2.0)
        assert batch.execute_seconds == 0.0  # nothing advanced the clock
        waits = metrics.histograms[metric_key("queue_wait_seconds", {"group": "g"})]
        assert waits.count == 2
        assert waits.minimum == 2.0 and waits.maximum == 5.0
        assert metrics.counter("batches_committed", group="g") == 1.0
        deltas = metrics.histograms[metric_key("batch_deltas", {"group": "g"})]
        assert deltas.count == 1 and deltas.maximum == 2.0

    def test_execution_time_lands_in_the_batch_record(self):
        clock = {"now": 0.0}

        def ticking():
            # Every clock read advances time, so the batch span measurably
            # brackets its execution even though nothing sleeps.
            clock["now"] += 1.0
            return clock["now"]

        async def run():
            plane = ControlPlane(clock=ticking)
            await _open(plane)
            ticket = plane.submit("g", _add("w", 443), tenant="alice")
            plane.start()
            await ticket.result()
            await plane.shutdown()
            return plane.query("g")

        state = asyncio.run(run())
        batch = state.last_batch
        assert batch.merged is False
        assert batch.execute_seconds > 0.0
        assert len(batch.queue_wait_seconds) == 1


class TestMetricsSnapshotQuery:
    def test_snapshot_matches_a_seeded_multi_tenant_churn_replay(self):
        async def run():
            plane = ControlPlane(admission=AdmissionPolicy(max_outstanding=1))
            await _open(plane)
            first = plane.submit("g", _add("w", 443), tenant="alice")
            with pytest.raises(AdmissionError):
                plane.submit("g", _add("v", 8080), tenant="alice")
            second = plane.submit("g", _add("v", 8080), tenant="bob")
            plane.start()
            await first.result()
            await second.result()
            third = plane.submit("g", PolicyDelta(remove=("w",)), tenant="alice")
            await third.result()
            await plane.shutdown()
            return plane.query("g"), plane.metrics()

        state, snapshot = asyncio.run(run())
        submitted = sum(stats.submitted for stats in state.tenants.values())
        rejected = sum(stats.rejected for stats in state.tenants.values())
        # Admission metrics agree with the per-tenant accounting.
        assert rejected == 1
        assert snapshot.counter_total("admission_rejected") == rejected
        assert snapshot.counter_total("admission_admitted") == submitted - rejected
        assert (
            snapshot.counter("admission_rejected", group="g", tenant="alice")
            == 1.0
        )
        # Every committed revision is a counted batch, and the compiler's
        # transaction counters (recorded from inside the batches' threads)
        # land in the same registry.
        assert snapshot.counter("batches_committed", group="g") == state.revision
        assert snapshot.counter_total("transactions_committed") == state.revision
        assert snapshot.counter_total("transactions_rolled_back") == 0.0
        assert snapshot.counter("groups_opened") == 1.0
        deltas = snapshot.histograms[metric_key("batch_deltas", {"group": "g"})]
        assert deltas.count == state.revision

    def test_metrics_less_plane_serves_an_empty_snapshot(self):
        async def run():
            plane = ControlPlane(telemetry=Telemetry())
            await _open(plane)
            ticket = plane.submit("g", _add("w", 443))
            plane.start()
            await ticket.result()
            await plane.shutdown()
            return plane.metrics()

        snapshot = asyncio.run(run())
        assert snapshot.counters == {}
        assert snapshot.histograms == {}
