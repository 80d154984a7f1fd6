"""Tests for the control-plane daemon: batching, admission, isolation.

pytest-asyncio is not a dependency; each test drives the daemon with a
plain ``asyncio.run`` around an async body.  Batching is made
deterministic by submitting deltas *before* ``start()``: the worker's
first drain then sees the whole queue at once, exactly as it would when
deltas pile up behind a slow solve.
"""

import asyncio

import pytest

from repro.core.ast import Statement
from repro.errors import MerlinError, ProvisioningError
from repro.incremental import (
    DeltaStatement,
    PolicyDelta,
    RateUpdate,
    TopologyDelta,
    merge_policy_deltas,
)
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.parser import parse_path_expression
from repro.scenarios import LinkFailure
from repro.service import AdmissionError, AdmissionPolicy, ControlPlane
from repro.topology.generators import dumbbell, figure2_example
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

DUMBBELL_SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02) -> .* ],
min(x, 10MB/s)
"""


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


async def _open(plane, name="g", **kwargs):
    return await plane.open_group(
        name,
        SOURCE,
        topology=figure2_example(capacity=Bandwidth.gbps(2)),
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        **kwargs,
    )


class TestMergePolicyDeltas:
    def test_concatenates_disjoint_deltas(self):
        merged = merge_policy_deltas(
            [
                _add("w", 443),
                PolicyDelta(remove=("z",)),
                PolicyDelta(
                    update_rates=(
                        RateUpdate("x", guarantee=Bandwidth.mb_per_sec(30)),
                    )
                ),
            ]
        )
        assert [entry.statement.identifier for entry in merged.add] == ["w"]
        assert merged.remove == ("z",)
        assert merged.update_rates[0].identifier == "x"
        assert merged.touched_identifiers() == frozenset({"w", "x", "z"})

    def test_rejects_overlapping_deltas(self):
        with pytest.raises(ValueError, match="w"):
            merge_policy_deltas(
                [
                    _add("w", 443),
                    PolicyDelta(
                        update_rates=(
                            RateUpdate("w", guarantee=Bandwidth.mb_per_sec(9)),
                        )
                    ),
                ]
            )


class TestControlPlane:
    def test_open_group_snapshot(self):
        async def run():
            plane = ControlPlane()
            return await _open(plane)

        state = asyncio.run(run())
        assert state.group == "g"
        assert state.revision == 0
        assert set(state.statements) == {"x", "z"}
        assert state.statements["x"].is_guaranteed
        assert state.statements["x"].guarantee_bps == Bandwidth.mb_per_sec(25).bps_value
        assert state.statements["x"].path[0] == "h1"
        assert state.statements["x"].path[-1] == "h2"
        assert state.failed_links == frozenset()
        assert state.last_batch is None

    def test_batches_concurrent_deltas_into_one_recompile(self):
        async def run():
            plane = ControlPlane()
            await _open(plane)
            first = plane.submit("g", _add("w", 443), tenant="alice")
            second = plane.submit("g", _add("v", 8080), tenant="bob")
            plane.start()
            results = (await first.result(), await second.result())
            await plane.shutdown()
            return plane.query("g"), results

        state, (first_result, second_result) = asyncio.run(run())
        # One transaction served both tenants: the very same result object.
        assert first_result is second_result
        batch = state.last_batch
        assert batch.merged is True
        assert batch.num_deltas == 2
        assert batch.tenants == ("alice", "bob")
        assert state.revision == 1
        assert {"w", "v"} <= set(state.statements)
        # The single solve's statistics cover the whole merged population.
        assert batch.statistics.num_statements == 4
        assert state.tenants["alice"].committed == 1
        assert state.tenants["bob"].committed == 1

    def test_overlapping_deltas_run_as_separate_transactions(self):
        async def run():
            plane = ControlPlane()
            await _open(plane)
            first = plane.submit("g", _add("w", 443))
            second = plane.submit(
                "g",
                PolicyDelta(
                    update_rates=(
                        RateUpdate("w", guarantee=Bandwidth.mb_per_sec(7)),
                    )
                ),
            )
            plane.start()
            await first.result()
            await second.result()
            await plane.shutdown()
            return plane.query("g")

        state = asyncio.run(run())
        assert state.revision == 2
        assert state.last_batch.merged is False
        assert state.last_batch.num_deltas == 1
        assert (
            state.statements["w"].guarantee_bps
            == Bandwidth.mb_per_sec(7).bps_value
        )

    def test_admission_outstanding_limit(self):
        async def run():
            plane = ControlPlane(admission=AdmissionPolicy(max_outstanding=1))
            await _open(plane)
            before = plane.query("g")
            first = plane.submit("g", _add("w", 443), tenant="alice")
            with pytest.raises(AdmissionError):
                plane.submit("g", _add("v", 8080), tenant="alice")
            # Another tenant is unaffected by alice's limit.
            second = plane.submit("g", _add("v", 8080), tenant="bob")
            rejected_view = plane.query("g")
            plane.start()
            await first.result()
            await second.result()
            # The commit settled alice's outstanding slot: admitted again.
            third = plane.submit("g", PolicyDelta(remove=("w",)), tenant="alice")
            await third.result()
            await plane.shutdown()
            return before, rejected_view, plane.query("g")

        before, rejected_view, after = asyncio.run(run())
        # The rejection never touched committed state.
        assert rejected_view.revision == before.revision == 0
        assert set(rejected_view.statements) == set(before.statements)
        assert after.tenants["alice"].submitted == 3
        assert after.tenants["alice"].rejected == 1
        assert after.tenants["alice"].committed == 2
        assert "w" not in after.statements

    def test_a_submit_outside_the_loop_holds_no_admission_slot(self):
        """``submit`` needs the running loop for the ticket's future; called
        without one it raises before the tenant is counted or admitted, so
        the tenant's one outstanding slot stays free."""

        async def run():
            plane = ControlPlane(admission=AdmissionPolicy(max_outstanding=1))
            await _open(plane)
            with pytest.raises(RuntimeError):
                # A worker thread has no running event loop.
                await asyncio.to_thread(
                    plane.submit, "g", _add("w", 443), tenant="alice"
                )
            ticket = plane.submit("g", _add("w", 443), tenant="alice")
            plane.start()
            await ticket.result()
            await plane.shutdown()
            return plane.query("g")

        state = asyncio.run(run())
        assert state.tenants["alice"].submitted == 1
        assert state.tenants["alice"].rejected == 0
        assert state.tenants["alice"].committed == 1
        assert "w" in state.statements

    def test_admission_rate_cap_with_injected_clock(self):
        clock = {"now": 0.0}

        async def run():
            plane = ControlPlane(
                admission=AdmissionPolicy(rate_per_second=1.0, burst=1),
                clock=lambda: clock["now"],
            )
            await _open(plane)
            first = plane.submit("g", _add("w", 443), tenant="alice")
            with pytest.raises(AdmissionError):
                plane.submit("g", _add("v", 8080), tenant="alice")
            clock["now"] = 1.5  # the bucket refills one token
            second = plane.submit("g", _add("v", 8080), tenant="alice")
            plane.start()
            await first.result()
            await second.result()
            await plane.shutdown()
            return plane.query("g")

        state = asyncio.run(run())
        assert state.tenants["alice"].rejected == 1
        assert state.tenants["alice"].committed == 2
        assert {"w", "v"} <= set(state.statements)

    def test_merged_failure_retries_members_individually(self):
        async def run():
            plane = ControlPlane()
            await _open(plane)
            good = plane.submit("g", _add("w", 443), tenant="alice")
            doomed = plane.submit(
                "g",
                _add("v", 8080, guarantee=Bandwidth.gbps(50)),
                tenant="mallory",
            )
            plane.start()
            result = await good.result()
            with pytest.raises(MerlinError):
                await doomed.result()
            await plane.shutdown()
            return plane.query("g"), result

        state, result = asyncio.run(run())
        # Only the offender failed; its batch-mate committed normally.
        assert "w" in state.statements
        assert "v" not in state.statements
        assert "v" not in result.rates
        assert state.revision == 1
        assert state.last_batch.merged is False
        assert state.tenants["alice"].committed == 1
        assert state.tenants["mallory"].failed == 1

    def test_topology_delta_reroutes_and_recovers(self):
        async def run():
            plane = ControlPlane()
            await plane.open_group(
                "g",
                DUMBBELL_SOURCE,
                topology=dumbbell(),
                overlap="trust",
                add_catch_all=False,
                generate_code=False,
            )
            base = plane.query("g")
            async with plane:
                fail = plane.submit(
                    "g", TopologyDelta(fail_links=(("sa1", "sa2"),))
                )
                await fail.result()
                rerouted = plane.query("g")
                recover = plane.submit(
                    "g", TopologyDelta(recover_links=(("sa1", "sa2"),))
                )
                await recover.result()
            return base, rerouted, plane.query("g")

        base, rerouted, recovered = asyncio.run(run())
        assert base.statements["x"].path == ("h1", "sa1", "sa2", "h2")
        assert rerouted.failed_links == frozenset({("sa1", "sa2")})
        assert rerouted.statements["x"].path == ("h1", "sb1", "h2")
        assert recovered.failed_links == frozenset()
        assert recovered.statements["x"].path == base.statements["x"].path

    def test_a_scenario_event_counts_the_changes_of_its_delta(self):
        """A ``to_delta()`` event commits the changes of the delta it stands
        for: a link failure is one change, as its ``TopologyDelta`` is."""

        async def run():
            plane = ControlPlane()
            await plane.open_group(
                "g",
                DUMBBELL_SOURCE,
                topology=dumbbell(),
                overlap="trust",
                add_catch_all=False,
                generate_code=False,
            )
            async with plane:
                event = LinkFailure(index=0, time=0.0, link=("sa1", "sa2"))
                await plane.submit("g", event).result()
                failed = plane.query("g")
                recover = TopologyDelta(recover_links=(("sa1", "sa2"),))
                await plane.submit("g", recover).result()
            return failed, plane.query("g")

        failed, recovered = asyncio.run(run())
        assert failed.failed_links == frozenset({("sa1", "sa2")})
        assert failed.last_batch.num_changes == 1
        assert recovered.last_batch.num_changes == 1

    def test_query_inside_a_topology_transaction_shows_committed_failures(self):
        """``query`` never tears: while a transaction that has already edited
        the live session's failed sets is still running (here: about to be
        rolled back), it reports the failed sets of the last commit."""
        inside = []

        async def run():
            plane = ControlPlane()
            await plane.open_group(
                "g",
                DUMBBELL_SOURCE,
                topology=dumbbell(),
                overlap="trust",
                add_catch_all=False,
                generate_code=False,
            )

            def refuse(*args, **kwargs):
                inside.append(plane.query("g"))
                raise ProvisioningError("refused after the topology was edited")

            plane._groups["g"].compiler._finalize = refuse
            async with plane:
                ticket = plane.submit(
                    "g", TopologyDelta(fail_links=(("sa1", "sa2"),))
                )
                with pytest.raises(ProvisioningError):
                    await ticket.result()
            return plane.query("g")

        after = asyncio.run(run())
        (during,) = inside
        assert during.revision == after.revision == 0
        assert during.failed_links == after.failed_links == frozenset()
        assert during.failed_nodes == after.failed_nodes == frozenset()

    def test_groups_are_independent(self):
        async def run():
            plane = ControlPlane()
            await _open(plane, name="g1")
            await _open(plane, name="g2")
            async with plane:
                ticket = plane.submit("g1", _add("w", 443), tenant="alice")
                await ticket.result()
            return plane

        plane = asyncio.run(run())
        assert plane.query("g1").revision == 1
        assert plane.query("g2").revision == 0
        assert "w" in plane.query("g1").statements
        assert "w" not in plane.query("g2").statements
        assert plane.query("g1").statements["w"].is_guaranteed

    def test_unknown_and_duplicate_groups_rejected(self):
        async def run():
            plane = ControlPlane()
            await _open(plane)
            with pytest.raises(ProvisioningError):
                plane.submit("nope", _add("w", 443))
            with pytest.raises(ProvisioningError):
                await _open(plane)  # duplicate group name

        asyncio.run(run())
