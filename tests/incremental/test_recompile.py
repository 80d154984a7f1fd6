"""Tests for the compiler's recompile fast path and the negotiator trigger."""

import pytest

from repro.core import MerlinCompiler, ProvisionOptions, compile_policy
from repro.core.ast import (
    BandwidthTerm,
    FMin,
    Policy,
    Statement,
    formula_and,
    formula_clauses,
)
from repro.core.parser import parse_policy
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import (
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import DeltaStatement, PolicyDelta, RateUpdate, TopologyDelta
from repro.negotiator.negotiator import Negotiator
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.parser import parse_path_expression
from repro.topology.generators import figure2_example
from repro.units import Bandwidth

SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
min(x, 25MB/s) and min(z, 50MB/s)
"""
PLACEMENTS = {"dpi": ("h1", "h2", "m1"), "nat": ("m1",), "log": ("m1",)}


def _pair_predicate(port):
    return pred_and(
        FieldTest("eth.src", "00:00:00:00:00:01"),
        pred_and(
            FieldTest("eth.dst", "00:00:00:00:00:02"), FieldTest("tcp.dst", port)
        ),
    )


def _compiler(topology, **kwargs):
    return MerlinCompiler(
        topology=topology,
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        **kwargs,
    )


def _paths(result):
    return {identifier: p.path for identifier, p in result.paths.items()}


class TestRecompile:
    def test_recompile_without_session_rejected(self):
        compiler = _compiler(figure2_example(capacity=Bandwidth.gbps(2)))
        with pytest.raises(ProvisioningError):
            compiler.recompile(PolicyDelta())

    def test_add_matches_from_scratch_compile(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)

        added = Statement(
            "w", _pair_predicate(443), parse_path_expression(".* dpi .*")
        )
        guarantee = Bandwidth.mb_per_sec(10)
        incremental = compiler.recompile(
            PolicyDelta(add=(DeltaStatement(added, guarantee=guarantee),))
        )

        base = parse_policy(SOURCE, topology=topology)
        extended = Policy(
            statements=base.statements + (added,),
            formula=formula_and(
                *formula_clauses(base.formula),
                FMin(BandwidthTerm(identifiers=("w",)), guarantee),
            ),
        )
        scratch = compile_policy(
            extended, topology, PLACEMENTS, overlap="trust",
            add_catch_all=False, generate_code=False,
        )
        assert _paths(incremental) == _paths(scratch)
        assert {
            key: value.bps_value
            for key, value in incremental.link_reservations.items()
        } == {
            key: value.bps_value for key, value in scratch.link_reservations.items()
        }
        assert incremental.statistics.dirty_partitions <= incremental.statistics.num_partitions

    def test_remove_restores_base_allocations(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        base = compiler.compile(SOURCE)
        added = Statement(
            "w", _pair_predicate(443), parse_path_expression(".* dpi .*")
        )
        compiler.recompile(
            PolicyDelta(
                add=(DeltaStatement(added, guarantee=Bandwidth.mb_per_sec(10)),)
            )
        )
        reverted = compiler.recompile(PolicyDelta(remove=("w",)))
        assert _paths(reverted) == _paths(base)

    def test_rate_update_reflected_in_result(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        result = compiler.recompile(
            PolicyDelta(
                update_rates=(
                    RateUpdate("z", guarantee=Bandwidth.mb_per_sec(40)),
                )
            )
        )
        assert result.rates["z"].guarantee == Bandwidth.mb_per_sec(40)
        assert result.paths["z"].guaranteed_rate == Bandwidth.mb_per_sec(40)

    def test_best_effort_add_and_demotion(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        # A best-effort statement with a path constraint takes the BFS path.
        added = Statement(
            "v", _pair_predicate(8080), parse_path_expression(".* dpi .*")
        )
        result = compiler.recompile(PolicyDelta(add=(DeltaStatement(added),)))
        assert "v" in result.paths
        assert result.rates["v"].guarantee is None
        # Promote it to guaranteed: it enters the MIP.
        promoted = compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("v", guarantee=Bandwidth.mb_per_sec(5)),)
            )
        )
        assert promoted.paths["v"].guaranteed_rate == Bandwidth.mb_per_sec(5)
        # Demote it again: back to best-effort.
        demoted = compiler.recompile(
            PolicyDelta(update_rates=(RateUpdate("v"),))
        )
        assert demoted.rates["v"].guarantee is None
        assert "v" in demoted.paths

    def test_recompile_regenerates_instructions(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology)
        base = compiler.compile(SOURCE)
        assert base.instructions is not None
        result = compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("z", guarantee=Bandwidth.mb_per_sec(40)),)
            )
        )
        assert result.instructions is not None
        assert result.instructions.counts()["openflow"] > 0

    def test_prepare_incremental_requires_session(self):
        compiler = _compiler(figure2_example(capacity=Bandwidth.gbps(2)))
        with pytest.raises(ProvisioningError):
            compiler.prepare_incremental()

    def test_unknown_removal_rejected(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        with pytest.raises(ProvisioningError):
            compiler.recompile(PolicyDelta(remove=("ghost",)))


class TestPreprocessorSemantics:
    """recompile() must mirror what preprocess() would do from scratch."""

    def test_catch_all_remainder_recomputed_on_add(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology, placements=PLACEMENTS, generate_code=False
        )
        base = compiler.compile(SOURCE)
        assert "default" in {s.identifier for s in base.policy.statements}

        added = Statement(
            "w", _pair_predicate(443), parse_path_expression(".* dpi .*")
        )
        incremental = compiler.recompile(
            PolicyDelta(
                add=(DeltaStatement(added, guarantee=Bandwidth.mb_per_sec(10)),)
            )
        )
        scratch = compile_policy(
            SOURCE.replace(
                "min(x, 25MB/s)", "min(x, 25MB/s) and min(w, 10MB/s)"
            ).replace(
                "nat .* ]",
                "nat .* ; w : (eth.src = 00:00:00:00:00:01 and "
                "eth.dst = 00:00:00:00:00:02 and tcp.dst = 443) -> .* dpi .* ]",
            ),
            topology,
            PLACEMENTS,
            generate_code=False,
        )
        by_id = {s.identifier: s for s in incremental.policy.statements}
        scratch_by_id = {s.identifier: s for s in scratch.policy.statements}
        # The catch-all's remainder now also excludes w's packets, exactly
        # as a from-scratch preprocess computes it.
        assert by_id["default"].predicate == scratch_by_id["default"].predicate
        assert _paths(incremental) == _paths(scratch)

    def test_generated_catch_all_cannot_be_removed(self):
        """The generated catch-all is not a user statement: removing it
        would silently no-op (the refresh recreates it), so it is rejected
        like any other unknown identifier."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology, placements=PLACEMENTS, generate_code=False
        )
        base = compiler.compile(SOURCE)
        assert "default" in {s.identifier for s in base.policy.statements}
        with pytest.raises(ProvisioningError, match="unknown statement"):
            compiler.recompile(PolicyDelta(remove=("default",)))
        assert compiler.has_session

    def test_overlapping_add_rejected_in_reject_mode(self):
        from repro.errors import PolicyError

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology, placements=PLACEMENTS, generate_code=False
        )
        compiler.compile(SOURCE)
        clashing = Statement(
            "w", _pair_predicate(80), parse_path_expression(".*")
        )  # same predicate shape as z
        with pytest.raises(PolicyError):
            compiler.recompile(PolicyDelta(add=(DeltaStatement(clashing),)))

    def test_priority_mode_narrows_added_statement(self):
        from repro.predicates.sat import overlaps

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology,
            placements=PLACEMENTS,
            overlap="priority",
            add_catch_all=False,
            generate_code=False,
        )
        compiler.compile(SOURCE)
        # Overlaps z (tcp.dst = 80 is included in "no port constraint").
        broad = Statement(
            "w",
            pred_and(
                FieldTest("eth.src", "00:00:00:00:00:01"),
                FieldTest("eth.dst", "00:00:00:00:00:02"),
            ),
            parse_path_expression(".*"),
        )
        result = compiler.recompile(PolicyDelta(add=(DeltaStatement(broad),)))
        narrowed = next(
            s for s in result.policy.statements if s.identifier == "w"
        )
        assert narrowed.predicate != broad.predicate
        for statement in result.policy.statements:
            if statement.identifier != "w":
                assert not overlaps(narrowed.predicate, statement.predicate)

    @pytest.mark.parametrize(
        "overlap, message",
        [
            (
                "reject",
                "statement 'w' overlaps existing statements: z; use "
                "overlap='priority' or recompile from scratch",
            ),
            ("priority", "statement 'w' is completely shadowed by existing statements"),
        ],
    )
    def test_added_statement_meets_the_overlap_discipline(self, overlap, message):
        """The add path asks the forced-equality index which existing
        statements the addition can touch: a clash reads as it always did,
        and a disjoint addition lands exactly as a from-scratch compile
        would place it (in priority mode too: nothing to subtract)."""
        from repro.errors import PolicyError

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology, placements=PLACEMENTS, overlap=overlap, generate_code=False
        )
        compiler.compile(SOURCE)
        clashing = Statement("w", _pair_predicate(80), parse_path_expression(".*"))
        with pytest.raises(PolicyError) as raised:
            compiler.recompile(PolicyDelta(add=(DeltaStatement(clashing),)))
        assert str(raised.value) == message

        disjoint = Statement("w", _pair_predicate(443), parse_path_expression(".* dpi .*"))
        incremental = compiler.recompile(PolicyDelta(add=(DeltaStatement(disjoint),)))
        scratch = compile_policy(
            SOURCE.replace(
                "nat .* ]",
                "nat .* ; w : (eth.src = 00:00:00:00:00:01 and "
                "eth.dst = 00:00:00:00:00:02 and tcp.dst = 443) -> .* dpi .* ]",
            ),
            topology,
            PLACEMENTS,
            overlap=overlap,
            generate_code=False,
        )
        assert incremental.policy.statements == scratch.policy.statements
        assert _paths(incremental) == _paths(scratch)
        assert incremental.link_reservations == scratch.link_reservations

    def test_priority_mode_refuses_incremental_removal(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology,
            placements=PLACEMENTS,
            overlap="priority",
            add_catch_all=False,
            generate_code=False,
        )
        compiler.compile(SOURCE)
        with pytest.raises(ProvisioningError):
            compiler.recompile(PolicyDelta(remove=("x",)))


class TestSessionHygiene:
    def test_failed_compile_invalidates_previous_session(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        assert compiler.has_session
        infeasible = SOURCE.replace("min(z, 50MB/s)", "min(z, 900MB/s)")
        with pytest.raises(ProvisioningError):
            compiler.compile(infeasible)
        assert not compiler.has_session
        with pytest.raises(ProvisioningError):
            compiler.recompile(PolicyDelta())

    def test_rejected_delta_is_side_effect_free(self):
        """A delta that fails validation must leave the session untouched,
        even when an earlier entry of the same delta was valid."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology, placements=PLACEMENTS, generate_code=False
        )  # overlap="reject"
        base = compiler.compile(SOURCE)
        fine = Statement("w", _pair_predicate(443), parse_path_expression(".*"))
        clashing = Statement(
            "v", _pair_predicate(80), parse_path_expression(".*")
        )  # overlaps z
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            compiler.recompile(
                PolicyDelta(
                    add=(
                        DeltaStatement(fine, guarantee=Bandwidth.mb_per_sec(10)),
                        DeltaStatement(clashing),
                    )
                )
            )
        # Neither statement entered the session: a no-op recompile still
        # reproduces the base allocations and statement population.
        unchanged = compiler.recompile(PolicyDelta())
        assert _paths(unchanged) == _paths(base)
        assert {s.identifier for s in unchanged.policy.statements} == {
            s.identifier for s in base.policy.statements
        }

    def test_add_vs_add_overlap_within_one_delta_rejected(self):
        from repro.errors import PolicyError

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology, placements=PLACEMENTS, generate_code=False
        )
        compiler.compile(SOURCE)
        first = Statement("w", _pair_predicate(443), parse_path_expression(".*"))
        duplicate = Statement(
            "v", _pair_predicate(443), parse_path_expression(".*")
        )
        with pytest.raises(PolicyError):
            compiler.recompile(
                PolicyDelta(
                    add=(DeltaStatement(first), DeltaStatement(duplicate))
                )
            )

    def test_infeasible_delta_rolls_back_the_session(self):
        """recompile() is a transaction: a solve-time failure rolls the
        session back to its exact pre-delta state instead of invalidating
        it — the error propagates, but the session stays usable."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        base = compiler.compile(SOURCE)
        with pytest.raises(ProvisioningError):
            compiler.recompile(
                PolicyDelta(
                    update_rates=(
                        RateUpdate("z", guarantee=Bandwidth.mb_per_sec(900)),
                    )
                )
            )
        assert compiler.has_session
        unchanged = compiler.recompile(PolicyDelta())
        assert _paths(unchanged) == _paths(base)
        assert unchanged.rates["z"].guarantee == Bandwidth.mb_per_sec(50)
        # A rollback restores the cached component solutions too: nothing
        # is dirty afterwards.
        assert unchanged.statistics.dirty_partitions == 0
        # And the session keeps accepting (feasible) deltas normally.
        result = compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("z", guarantee=Bandwidth.mb_per_sec(40)),)
            )
        )
        assert result.rates["z"].guarantee == Bandwidth.mb_per_sec(40)

    def test_revert_delta_is_a_cache_hit(self):
        """Oscillating deltas (add then revert) must reuse the component
        solutions cached before the add, not re-solve them."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        added = Statement(
            "w", _pair_predicate(443), parse_path_expression(".* dpi .*")
        )
        compiler.recompile(
            PolicyDelta(
                add=(DeltaStatement(added, guarantee=Bandwidth.mb_per_sec(10)),)
            )
        )
        reverted = compiler.recompile(PolicyDelta(remove=("w",)))
        assert reverted.statistics.dirty_partitions == 0

    def test_codegen_failure_rolls_back_the_session(self, monkeypatch):
        """recompile() is atomic from the caller's view: a post-solve
        failure (code generation) rolls the session back rather than
        leaving it silently diverged from what the caller observed — and
        once codegen recovers, the same delta applies cleanly."""
        import repro.core.compiler as compiler_module

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology)  # generate_code=True
        base = compiler.compile(SOURCE)

        class ExplodingGenerator:
            def __init__(self, topology):
                pass

            def generate(self, *args, **kwargs):
                raise RuntimeError("codegen backend unavailable")

        delta = PolicyDelta(
            update_rates=(RateUpdate("z", guarantee=Bandwidth.mb_per_sec(40)),)
        )
        monkeypatch.setattr(compiler_module, "CodeGenerator", ExplodingGenerator)
        with pytest.raises(RuntimeError):
            compiler.recompile(delta)
        monkeypatch.undo()
        assert compiler.has_session
        unchanged = compiler.recompile(PolicyDelta())
        assert _paths(unchanged) == _paths(base)
        assert unchanged.rates["z"].guarantee == Bandwidth.mb_per_sec(50)
        retried = compiler.recompile(delta)
        assert retried.rates["z"].guarantee == Bandwidth.mb_per_sec(40)
        assert retried.instructions is not None

    def test_unprovisionable_delta_rejected_without_side_effects(self):
        """A guarantee on a statement with no inferable endpoints is
        statically rejected by validation — the session survives."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        base = compiler.compile(SOURCE)
        # tcp-only predicate + unconstrained path: endpoints are unknowable.
        vague = Statement(
            "vague", FieldTest("tcp.dst", 9999), parse_path_expression(".*")
        )
        with pytest.raises(ProvisioningError, match="cannot be determined"):
            compiler.recompile(
                PolicyDelta(
                    add=(DeltaStatement(vague, guarantee=Bandwidth.mb_per_sec(10)),)
                )
            )
        assert compiler.has_session
        # Same for a promotion of an endpoint-less best-effort statement.
        compiler.recompile(PolicyDelta(add=(DeltaStatement(vague),)))
        with pytest.raises(ProvisioningError, match="cannot be determined"):
            compiler.recompile(
                PolicyDelta(
                    update_rates=(
                        RateUpdate("vague", guarantee=Bandwidth.mb_per_sec(10)),
                    )
                )
            )
        assert compiler.has_session
        unchanged = compiler.recompile(PolicyDelta(remove=("vague",)))
        assert _paths(unchanged) == _paths(base)

    def test_cap_only_update_keeps_partition_clean(self):
        """The cap never enters the provisioning MIP: changing it must not
        dirty the statement's partition or discard its cached solution."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        result = compiler.recompile(
            PolicyDelta(
                update_rates=(
                    RateUpdate(
                        "z",
                        guarantee=Bandwidth.mb_per_sec(50),
                        cap=Bandwidth.mb_per_sec(80),
                    ),
                )
            )
        )
        assert result.rates["z"].cap == Bandwidth.mb_per_sec(80)
        assert result.statistics.dirty_partitions == 0

    def test_merged_best_bound_respects_min_max_objective(self):
        """best_bound across min-max components is a max, not a sum: it can
        never exceed 1.0 for the utilization-fraction objective."""
        from repro.experiments.reprovisioning import pod_tenant_scenario

        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        compiler = MerlinCompiler(
            topology=scenario.topology,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
        )
        result = compiler.compile(scenario.policy)
        assert result.statistics.num_partitions == 4
        bound = result.statistics.mip_best_bound
        if bound is not None:
            assert bound <= 1.0 + 1e-6


class TestSinkTreeMaintenance:
    """Sink trees must track the best-effort/unconstrained statement set."""

    def test_sink_trees_follow_unconstrained_best_effort(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        assert not compiler._session.sink_trees
        wild = Statement("w", _pair_predicate(443), parse_path_expression(".*"))
        compiler.recompile(PolicyDelta(add=(DeltaStatement(wild),)))
        assert compiler._session.sink_trees
        compiler.recompile(PolicyDelta(remove=("w",)))
        # From-scratch compile of the remaining (all-guaranteed) policy has
        # no sink trees; the session must drop them too.
        assert not compiler._session.sink_trees

    def test_demotion_to_unconstrained_restores_sink_trees(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(SOURCE)
        wild = Statement("w", _pair_predicate(443), parse_path_expression(".*"))
        compiler.recompile(
            PolicyDelta(
                add=(DeltaStatement(wild, guarantee=Bandwidth.mb_per_sec(5)),)
            )
        )
        assert not compiler._session.sink_trees  # guaranteed: enters the MIP
        compiler.recompile(PolicyDelta(update_rates=(RateUpdate("w"),)))
        assert compiler._session.sink_trees  # demoted: default forwarding

    def test_demoted_unconstrained_statement_rides_sink_trees_through_a_failure(
        self,
    ):
        """A demoted ``.*`` statement keeps the footprint its guarantee
        recorded; a failure on that footprint used to hand it a private
        product-graph path, which a statement that was best-effort all
        along never gets."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        wild = unconstrained_statement(scenario)
        fabric_link = next(
            (link.source, link.target)
            for link in scenario.topology.links()
            if not scenario.topology.node(link.source).is_host
            and not scenario.topology.node(link.target).is_host
        )
        failure = TopologyDelta(fail_links=(fabric_link,))

        def session_with(*deltas):
            compiler = MerlinCompiler(
                topology=scenario.topology, overlap="trust", add_catch_all=False
            )
            compiler.compile(scenario.policy)
            for delta in deltas:
                result = compiler.recompile(delta)
            return result

        demoted = session_with(
            PolicyDelta(add=(DeltaStatement(wild, guarantee=Bandwidth.mbps(10)),)),
            PolicyDelta(update_rates=(RateUpdate("wild"),)),
            failure,
        )
        always_best_effort = session_with(
            PolicyDelta(add=(DeltaStatement(wild),)), failure
        )
        assert "wild" not in demoted.paths
        assert demoted.instructions == always_best_effort.instructions

    def test_catch_all_reappearance_restores_sink_trees(self):
        from repro.predicates.ast import TRUE

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = MerlinCompiler(
            topology=topology,
            placements=PLACEMENTS,
            overlap="trust",
            generate_code=False,
        )  # add_catch_all=True
        compiler.compile(SOURCE)
        assert compiler._session.sink_trees
        # A guaranteed statement matching all packets displaces the
        # catch-all; no unconstrained best-effort statement remains.
        blanket = Statement("w", TRUE, parse_path_expression("h1 .* h2"))
        compiler.recompile(
            PolicyDelta(
                add=(DeltaStatement(blanket, guarantee=Bandwidth.mb_per_sec(5)),)
            )
        )
        assert not compiler._session.sink_trees
        # Removing it brings the catch-all (and its sink trees) back.
        compiler.recompile(PolicyDelta(remove=("w",)))
        assert compiler._session.entries["default"].generated
        assert compiler._session.sink_trees


class TestSolverProtocolCompatibility:
    def test_custom_solver_without_warm_start_parameter(self):
        from repro.lp import ScipySolver

        class LegacySolver:
            """A third-party backend: ``solve(form)`` and nothing else."""

            def solve(self, form):
                return ScipySolver().solve(form)

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        compiler = _compiler(
            topology,
            generate_code=False,
            options=ProvisionOptions(solver=LegacySolver()),
        )
        compiler.compile(SOURCE)
        # A rate update re-solves the dirty component through the same
        # one-argument call the compile made.
        result = compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("z", guarantee=Bandwidth.mb_per_sec(40)),)
            )
        )
        assert result.rates["z"].guarantee == Bandwidth.mb_per_sec(40)


class TestNegotiatorTrigger:
    def _root(self, topology):
        policy = parse_policy(SOURCE, topology=topology)
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(policy)
        return Negotiator(name="root", policy=policy, compiler=compiler)

    def test_path_refinement_triggers_reprovision(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        refined = parse_policy(
            SOURCE.replace(".* dpi .* ;", ".* m1 dpi .* ;"), topology=topology
        )
        report = root.propose(refined)
        assert report.valid
        assert root.last_reprovision is not None
        assert "m1" in root.last_reprovision.paths["x"].path

    def test_rate_refinement_triggers_update(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        refined = parse_policy(
            SOURCE.replace("min(z, 50MB/s)", "min(z, 40MB/s)"), topology=topology
        )
        assert root.propose(refined).valid
        assert root.last_reprovision.rates["z"].guarantee == Bandwidth.mb_per_sec(40)

    def test_identical_refinement_does_not_recompile(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        assert root.propose(parse_policy(SOURCE, topology=topology)).valid
        assert root.last_reprovision is None

    def test_cap_reallocation_stays_recompile_free(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        report = root.reallocate_caps({"x": Bandwidth.mb_per_sec(10)})
        assert report.valid
        assert root.last_reprovision is None

    def test_child_finds_compiler_at_root(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        child = root.delegate_to("tenant", root.policy.statements[1].predicate)
        refined = child.policy.with_formula(
            formula_and(
                *[
                    clause
                    for clause in formula_clauses(child.policy.formula)
                    if not (
                        isinstance(clause, FMin)
                        and clause.term.identifiers == ("z",)
                    )
                ],
                FMin(BandwidthTerm(identifiers=("z",)), Bandwidth.mb_per_sec(30)),
            )
        )
        assert child.propose(refined).valid
        assert child.last_reprovision is not None
        assert root.last_reprovision is child.last_reprovision

    def test_child_path_refinement_keeps_global_predicate(self):
        """A delegated tenant's path refinement must not splice its
        scope-narrowed predicate into the global session."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        global_z = root.compiler.session_statement("z").predicate
        # The scope keeps z (tcp.dst = 80) and drops x (tcp.dst = 20).
        child = root.delegate_to("tenant", FieldTest("tcp.dst", 80))
        assert {s.identifier for s in child.policy.statements} == {"z"}
        refined = Policy(
            statements=tuple(
                Statement(
                    s.identifier,
                    s.predicate,
                    parse_path_expression(".* m1 dpi .* nat .*"),
                )
                for s in child.policy.statements
            ),
            formula=child.policy.formula,
        )
        assert child.propose(refined).valid
        # The path refinement landed...
        assert "m1" in child.last_reprovision.paths["z"].path
        # ...but the session's predicate is still the root's full one, not
        # the tenant's (z AND tcp.dst=80) projection.
        assert root.compiler.session_statement("z").predicate == global_z

    def test_child_path_refinement_keeps_global_guarantee(self):
        """Delegation drops bandwidth clauses that reference out-of-scope
        identifiers, so the tenant's localized view of a statement may show
        no guarantee where the global session reserves one.  A tenant path
        refinement must not silently demote the statement to best-effort."""
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        base = parse_policy(SOURCE, topology=topology)
        # One aggregate clause across both statements: localize() splits it
        # 20 MB/s each; delegation of a scope covering only z drops it.
        policy = base.with_formula(
            formula_and(
                FMin(BandwidthTerm(identifiers=("x", "z")), Bandwidth.mb_per_sec(40))
            )
        )
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(policy)
        root = Negotiator(name="root", policy=policy, compiler=compiler)
        child = root.delegate_to("tenant", FieldTest("tcp.dst", 80))
        assert {s.identifier for s in child.policy.statements} == {"z"}
        assert not formula_clauses(child.policy.formula)  # clause dropped
        refined = Policy(
            statements=tuple(
                Statement(
                    s.identifier,
                    s.predicate,
                    parse_path_expression(".* m1 dpi .* nat .*"),
                )
                for s in child.policy.statements
            ),
            formula=child.policy.formula,
        )
        assert child.propose(refined).valid
        result = child.last_reprovision
        # The refined path landed with the global 20 MB/s guarantee intact.
        assert "m1" in result.paths["z"].path
        assert result.rates["z"].guarantee == Bandwidth.mb_per_sec(20)
        assert result.paths["z"].guaranteed_rate == Bandwidth.mb_per_sec(20)

    def test_child_cap_refinement_keeps_global_guarantee(self):
        """A cap-only tenant refinement must not demote a statement whose
        guarantee clause was dropped at delegation: rates merge per field,
        so the changed cap lands while the session guarantee survives."""
        from repro.core.ast import FMax

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        base = parse_policy(SOURCE, topology=topology)
        mb = Bandwidth.mb_per_sec
        policy = base.with_formula(
            formula_and(
                FMin(BandwidthTerm(identifiers=("x", "z")), mb(40)),
                FMax(BandwidthTerm(identifiers=("z",)), mb(80)),
            )
        )
        compiler = _compiler(topology, generate_code=False)
        compiler.compile(policy)
        root = Negotiator(name="root", policy=policy, compiler=compiler)
        # Scope keeps z only: the min(x+z) clause is dropped, max(z) survives.
        child = root.delegate_to("tenant", FieldTest("tcp.dst", 80))
        assert {s.identifier for s in child.policy.statements} == {"z"}
        refined = child.policy.with_formula(
            formula_and(FMax(BandwidthTerm(identifiers=("z",)), mb(60)))
        )
        assert child.propose(refined).valid
        result = child.last_reprovision
        # The cap refinement landed; the 20 MB/s guarantee (half of the
        # aggregate 40 MB/s clause) was not silently released.
        assert result.rates["z"].cap == mb(60)
        assert result.rates["z"].guarantee == mb(20)
        assert result.paths["z"].guaranteed_rate == mb(20)

    def test_child_statement_split_refused_incrementally(self):
        """A tenant splitting a statement (a verified, coverage-preserving
        refinement) cannot be applied incrementally: removing the original
        identifier would drop the traffic the global session covers beyond
        the tenant's scope-narrowed projection."""
        from repro.errors import DelegationError
        from repro.predicates.ast import pred_not

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        global_z = root.compiler.session_statement("z").predicate
        # A strictly narrowing scope: the child's z covers only tcp.src=7777.
        child = root.delegate_to("tenant", FieldTest("tcp.src", 7777))
        by_id = {s.identifier: s for s in child.policy.statements}
        z = by_id["z"]
        split = (
            Statement("z1", pred_and(z.predicate, FieldTest("vlan.id", 10)), z.path),
            Statement(
                "z2", pred_and(z.predicate, pred_not(FieldTest("vlan.id", 10))), z.path
            ),
        )
        mb = Bandwidth.mb_per_sec
        refined = Policy(
            statements=tuple(
                s for s in child.policy.statements if s.identifier != "z"
            )
            + split,
            formula=formula_and(
                FMin(BandwidthTerm(identifiers=("x",)), mb(25)),
                FMin(BandwidthTerm(identifiers=("z1",)), mb(25)),
                FMin(BandwidthTerm(identifiers=("z2",)), mb(25)),
            ),
        )
        original = child.policy
        with pytest.raises(DelegationError):
            child.propose(refined)
        # Withdrawn, and the global session is untouched and still active.
        assert child.policy is original
        assert root.compiler.has_session
        assert root.compiler.session_statement("z").predicate == global_z

    def test_failed_reprovision_withdraws_refinement(self, monkeypatch):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        root = self._root(topology)
        original = root.policy
        refined = parse_policy(
            SOURCE.replace("min(z, 50MB/s)", "min(z, 40MB/s)"),
            topology=topology,
        )

        def no_capacity(delta):
            raise ProvisioningError("network lacks capacity")

        monkeypatch.setattr(root.compiler, "recompile", no_capacity)
        with pytest.raises(ProvisioningError):
            root.propose(refined)
        # The refinement was withdrawn, not half-adopted.
        assert root.policy is original
        assert root.last_reprovision is None
        # Once capacity exists again the same refinement lands normally.
        monkeypatch.undo()
        assert root.propose(refined).valid
        assert root.policy is refined
        assert root.last_reprovision is not None

    def test_unattached_negotiator_skips_reprovisioning(self):
        topology = figure2_example(capacity=Bandwidth.gbps(2))
        policy = parse_policy(SOURCE, topology=topology)
        root = Negotiator(name="root", policy=policy)
        refined = parse_policy(
            SOURCE.replace("min(z, 50MB/s)", "min(z, 40MB/s)"), topology=topology
        )
        assert root.propose(refined).valid
        assert root.last_reprovision is None
