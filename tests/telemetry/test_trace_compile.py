"""End-to-end trace acceptance: one fat-tree k=4 compile, one coherent trace.

This is the issue's acceptance criterion for the tracer: compiling the
Figure-8 smoke workload (fat tree k=4, 5% guaranteed classes) with a
JSON-lines recorder must emit a *single* trace whose nested spans account
for the reported wall time, with per-component solver backend names on
the ``component_solve`` spans.  Components are solved one after another in
the compiling process, so those spans are the solves' real intervals:
inside their ``solve`` parent, apart from each other, and the source of
``statistics.component_solve_seconds``.  The block counters
(``model_blocks_built`` / ``_reused``) say which component models were
assembled from cached Equation-1 blocks.
"""

import json
from collections import Counter

import pytest

from repro import telemetry
from repro.core.compiler import MerlinCompiler
from repro.experiments.policy_builders import all_pairs_policy
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.incremental import PolicyDelta, RateUpdate, TopologyDelta
from repro.telemetry import SpanRecord, Telemetry
from repro.topology.generators import fat_tree
from repro.units import Bandwidth


@pytest.fixture(scope="module")
def traced_compile(tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("traces") / "compile.jsonl"
    topology = fat_tree(4)
    policy = all_pairs_policy(
        topology, guarantee_fraction=0.05, max_classes=60, seed=0
    )
    compiler = MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    bundle = Telemetry.recording(trace_path=str(trace_path))
    with bundle.use():
        result = compiler.compile(policy)
    bundle.recorder.close()
    with open(trace_path, encoding="utf-8") as lines:
        spans = [SpanRecord(**json.loads(line)) for line in lines]
    return spans, result, bundle


class TestCompileTrace:
    def test_single_trace_rooted_at_compile(self, traced_compile):
        spans, result, _ = traced_compile
        assert len({s.trace_id for s in spans}) == 1
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["compile"]

    def test_root_duration_is_the_reported_wall_time(self, traced_compile):
        spans, result, _ = traced_compile
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.duration == result.statistics.total_seconds
        assert root.duration > 0

    def test_children_nest_inside_their_parents_and_sum_within_tolerance(
        self, traced_compile
    ):
        spans, result, _ = traced_compile
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start and span.end <= parent.end
        (root,) = [s for s in spans if s.parent_id is None]
        direct = [s for s in spans if s.parent_id == root.span_id]
        covered = sum(s.duration for s in direct)
        # The phase spans account for the compile wall time: nothing
        # big happens outside them, and they never overcount.
        assert covered <= root.duration * 1.01
        assert covered >= root.duration * 0.5

    def test_component_solves_carry_backend_names(self, traced_compile):
        spans, result, _ = traced_compile
        solves = [s for s in spans if s.name == "component_solve"]
        assert solves, "partitioned compile must record component_solve spans"
        assert all(s.attributes.get("backend") for s in solves)
        assert all(s.attributes.get("status") for s in solves)
        # Span durations are the source of the statistics' per-component
        # timings (same count; the tuple is truncated/ordered upstream).
        assert len(solves) >= len(result.statistics.component_solve_seconds)

    def test_metrics_counted_alongside_the_trace(self, traced_compile):
        _, result, bundle = traced_compile
        snapshot = bundle.snapshot()
        assert snapshot.counter_total("solver_calls") > 0
        # One product graph per guaranteed class; the best-effort classes
        # are unconstrained, so none is built or even searched for them.
        guaranteed = result.statistics.num_guaranteed_statements
        assert guaranteed > 0
        assert snapshot.counter_total("logical_builds") == guaranteed
        assert snapshot.counter_total("logical_searches") == 0
        solve_summary = [
            summary
            for key, summary in snapshot.histograms.items()
            if key.startswith("solve_seconds")
        ]
        assert solve_summary and all(s.count > 0 for s in solve_summary)

    def test_one_compile_span_and_component_solves(self, traced_compile):
        spans, _, _ = traced_compile
        names = Counter(span.name for span in spans)
        assert names["compile"] == 1
        assert names["component_solve"] > 0


@pytest.fixture(scope="module")
def traced_pod_compile():
    """A compile of eight link-disjoint pod components, traced in memory."""
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    bundle = Telemetry.recording()
    with bundle.use():
        result = compiler.compile(scenario.policy)
    spans = bundle.recorder.spans
    solves = [s for s in spans if s.name == "component_solve"]
    return {s.span_id: s for s in spans}, solves, result, bundle.snapshot()


class TestComponentSolveSpans:
    """Every component is solved inside its own span, one after another,
    so the trace needs no tolerance anywhere."""

    def test_each_lies_exactly_inside_its_solve_parent(self, traced_pod_compile):
        by_id, solves, result, _ = traced_pod_compile
        assert len(solves) == result.statistics.num_partitions == 8
        for span in solves:
            parent = by_id[span.parent_id]
            assert parent.name == "solve"
            assert parent.start <= span.start and span.end <= parent.end

    def test_siblings_do_not_overlap(self, traced_pod_compile):
        _, solves, _, _ = traced_pod_compile
        for earlier, later in zip(solves, solves[1:]):
            assert earlier.end <= later.start

    def test_durations_are_the_component_solve_seconds_in_order(
        self, traced_pod_compile
    ):
        _, solves, result, snapshot = traced_pod_compile
        durations = tuple(span.duration for span in solves)
        assert durations == result.statistics.component_solve_seconds
        (histogram,) = [
            summary
            for key, summary in snapshot.histograms.items()
            if key.startswith("solve_seconds")
        ]
        assert histogram.count == len(durations)
        assert (histogram.minimum, histogram.maximum) == (
            min(durations),
            max(durations),
        )

    def test_attributes_name_backend_status_and_members(self, traced_pod_compile):
        _, solves, result, _ = traced_pod_compile
        assert {s.attributes["backend"] for s in solves} == {"scipy"}
        assert {s.attributes["status"] for s in solves} == {"optimal"}
        members = [m for s in solves for m in s.attributes["members"].split(",")]
        assert sorted(members) == sorted(result.paths)


def _counted(call):
    """``call()`` under a recording bundle, with the two block counters."""
    bundle = Telemetry.recording()
    with bundle.use():
        result = call()
    snapshot = bundle.snapshot()
    return (
        result,
        snapshot.counter_total("model_blocks_built"),
        snapshot.counter_total("model_blocks_reused"),
    )


class TestModelBlocks:
    """A view's Equation-1 block is built by the first model that needs it
    and reused by every later one: a rate update builds none, a replaced
    product graph builds its own."""

    def test_a_rate_update_reuses_and_a_new_product_graph_builds(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
        compiler = MerlinCompiler(
            topology=scenario.topology,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
        )
        compiled, built, reused = _counted(lambda: compiler.compile(scenario.policy))
        assert (built, reused) == (compiled.statistics.num_guaranteed_statements, 0)

        updated, built, reused = _counted(
            lambda: compiler.recompile(
                PolicyDelta(update_rates=(RateUpdate("p0s0", Bandwidth.mbps(60)),))
            )
        )
        assert updated.statistics.dirty_partitions == 1
        assert built == 0 and reused >= 1

        pod = scenario.pods[0]
        failed = tuple(sorted((pod["edge"][0], pod["aggregation"][0])))
        degraded, built, _ = _counted(
            lambda: compiler.recompile(TopologyDelta(fail_links=(failed,)))
        )
        assert degraded.statistics.dirty_partitions >= 1
        assert built >= 1
