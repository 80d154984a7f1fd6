"""The public Session facade (MerlinCompiler.session)."""

import pytest

from repro.core import MerlinCompiler, ProvisioningSession
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.incremental import DeltaStatement, PolicyDelta, RateUpdate, TopologyDelta
from repro.scenarios import allocations_match
from repro.topology.generators import dumbbell, figure2_example
from repro.units import Bandwidth

PLACEMENTS = {"dpi": ("h1", "h2", "m1"), "nat": ("m1",)}

#: One guaranteed statement on the Figure 3 dumbbell, which keeps a
#: second disjoint path alive when a fabric link fails.
DUMBBELL_SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* ],
min(x, 50MB/s)
"""


def _compiled_dumbbell():
    compiler = MerlinCompiler(
        topology=dumbbell(),
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    compiler.compile(DUMBBELL_SOURCE)
    return compiler

SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
min(x, 25MB/s) and min(z, 50MB/s)
"""


def _compiled():
    compiler = MerlinCompiler(
        topology=figure2_example(capacity=Bandwidth.gbps(2)),
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    compiler.compile(SOURCE)
    return compiler


class _FakeEvent:
    """Anything exposing to_delta() is applicable (scenario events do)."""

    def to_delta(self):
        return PolicyDelta(
            update_rates=(RateUpdate("x", guarantee=Bandwidth.mb_per_sec(30)),)
        )


class TestSessionLifecycle:
    def test_requires_compiled_policy(self):
        compiler = MerlinCompiler(
            topology=figure2_example(capacity=Bandwidth.gbps(2)),
            placements=PLACEMENTS,
        )
        with pytest.raises(ProvisioningError, match="compile"):
            compiler.session()

    def test_context_manager_scoping_keeps_compiler_session(self):
        compiler = _compiled()
        with compiler.session() as session:
            assert isinstance(session, ProvisioningSession)
        assert compiler.has_session
        # A later handle sees the same live state.
        assert set(compiler.session().statement_ids) == {"x", "z"}


    def test_statement_ids_keep_policy_order_after_a_rolled_back_removal(self):
        """A rollback re-inserts an un-deleted entry at the end of the
        session's dict; the handle reports insertion order all the same."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        compiler = MerlinCompiler(
            topology=scenario.topology,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
        )
        compiled = compiler.compile(scenario.policy)
        session = compiler.session()
        in_policy_order = ("p0s0", "p1s0", "p2s0", "p3s0")
        assert session.statement_ids == in_policy_order

        oversized = DeltaStatement(
            compiler.session_record("p0s0").statement, guarantee=Bandwidth.gbps(1000)
        )
        with pytest.raises(ProvisioningError, match="infeasible"):
            session.apply(PolicyDelta(remove=("p0s0",), add=(oversized,)))
        assert session.statement_ids == in_policy_order
        assert session.statement_ids == tuple(
            statement.identifier for statement in compiled.policy.statements
        )


class TestApply:
    def test_policy_delta(self):
        compiler = _compiled()
        result = compiler.session().apply(
            PolicyDelta(
                update_rates=(RateUpdate("x", guarantee=Bandwidth.mb_per_sec(30)),)
            )
        )
        assert result.rates["x"].guarantee.bps_value == pytest.approx(30 * 8e6)

    def test_topology_delta_and_introspection(self):
        compiler = _compiled_dumbbell()
        session = compiler.session()
        assert session.failed_links == frozenset()
        pristine = session.topology

        session.apply(TopologyDelta(fail_links=(("sa1", "sa2"),)))
        assert session.failed_links == {("sa1", "sa2")}
        assert session.topology is not pristine

        session.apply(TopologyDelta(recover_links=(("sa1", "sa2"),)))
        assert session.failed_links == frozenset()
        assert session.topology is pristine

    def test_event_object_via_to_delta(self):
        compiler = _compiled()
        result = compiler.session().apply(_FakeEvent())
        assert result.rates["x"].guarantee.bps_value == pytest.approx(30 * 8e6)

    def test_rejects_objects_without_to_delta(self):
        compiler = _compiled()
        with pytest.raises(TypeError, match="to_delta"):
            compiler.session().apply(42)

    def test_failed_apply_rolls_back_and_stays_usable(self):
        compiler = _compiled()
        session = compiler.session()
        baseline = compiler.recompile(PolicyDelta())
        with pytest.raises(ProvisioningError):
            session.apply(
                PolicyDelta(
                    update_rates=(
                        RateUpdate("x", guarantee=Bandwidth.gbps(100)),
                    )
                )
            )
        assert compiler.has_session
        after = session.apply(PolicyDelta())
        assert allocations_match(after, baseline)


class TestCheckpointRollback:
    def test_multi_delta_unit_of_work_abandoned(self):
        compiler = _compiled_dumbbell()
        session = compiler.session()
        baseline = compiler.recompile(PolicyDelta())

        token = session.checkpoint()
        session.apply(
            PolicyDelta(
                update_rates=(RateUpdate("x", guarantee=Bandwidth.mb_per_sec(30)),)
            )
        )
        session.apply(TopologyDelta(fail_links=(("sa1", "sa2"),)))
        session.rollback(token)

        assert session.failed_links == frozenset()
        restored = session.apply(PolicyDelta())
        assert allocations_match(restored, baseline)

    def test_earlier_token_survives_later_checkpoints(self):
        compiler = _compiled()
        session = compiler.session()
        first = session.checkpoint()
        session.apply(
            PolicyDelta(
                update_rates=(RateUpdate("x", guarantee=Bandwidth.mb_per_sec(30)),)
            )
        )
        session.checkpoint()  # a later snapshot must not invalidate `first`
        session.rollback(first)
        result = session.apply(PolicyDelta())
        assert result.rates["x"].guarantee.bps_value == pytest.approx(25 * 8e6)
