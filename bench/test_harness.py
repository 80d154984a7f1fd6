"""Tests of the benchmark harness itself (no workload is run)."""

from __future__ import annotations

import contextvars
import json
import os
import re
import sys
import threading
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:  # tier-1 sets PYTHONPATH=src already
    sys.path.insert(0, os.path.join(ROOT, "src"))

import check
import compare
import reference
import run
import stats
import trace as tracing


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_including_cross_thread():
    # (layer, parent id, start, end, op id, span id)
    root = ("core.compiler", tracing.NO_PARENT, 0.0, 10.0, 0, 0)
    child = ("lp", 0, 1.0, 4.0, 0, 1)
    grandchild = ("codegen", 1, 2.0, 3.0, 0, 2)
    # A child recorded on another thread overlaps its sibling and outlives
    # the parent: it is clipped, and the overlap is subtracted only once.
    other_thread = ("rateless", 0, 3.0, 12.0, 0, 3)
    spans = [grandchild, child, other_thread, root]
    own = tracing.self_times(spans)
    assert own == {0: 10.0 - 9.0, 1: 2.0, 2: 1.0, 3: 9.0}

    summary = tracing.summarize(spans)
    assert summary["lp"] == {"self_s": 2.0, "calls": 1}
    assert summary["__root__"]["total_s"] == 10.0
    assert summary["__root__"]["self_s"] == 1.0


def test_parent_survives_the_thread_hop_and_same_layer_calls_are_not_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b", lambda: "done")

    def hop():
        # What asyncio.to_thread does: run in a copy of the caller's context.
        context = contextvars.copy_context()
        thread = threading.Thread(target=context.run, args=(inner,))
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        return nested()

    nested = tracer.wrap("a", lambda: inner())
    outer = tracer.wrap("a", hop)
    outer()
    layers = [span[tracing.LAYER] for span in tracer.spans]
    assert layers.count("a") == 1  # nested() ran inside layer "a": no boundary
    assert layers.count("b") == 2
    (root,) = [span for span in tracer.spans if span[tracing.LAYER] == "a"]
    assert root[tracing.PARENT] == tracing.NO_PARENT
    children = [span for span in tracer.spans if span is not root]
    assert all(span[tracing.PARENT] == root[tracing.ID] for span in children)
    assert {span[tracing.OP] for span in tracer.spans} == {root[tracing.OP]}


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.supported_percentile(19) == 50
    assert stats.supported_percentile(20) == 50
    assert stats.supported_percentile(40) == 75
    assert stats.supported_percentile(100) == 90
    assert stats.supported_percentile(200) == 95
    assert stats.supported_percentile(1000) == 99
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile(range(1, 101), 95) == 95


# -- reference speed ----------------------------------------------------------


def test_ops_in_a_slow_stretch_read_the_same_at_reference_speed():
    quiet = reference.QUIET_S
    ref = reference.Reference()
    # The loop timed at every half second of timed work: quiet for ten
    # seconds, then half as slow again.
    ref.at = [0.5 * i for i in range(1, 41)]
    ref.took = [quiet if at <= 10.0 else 1.5 * quiet for at in ref.at]
    assert ref.slowdown(4.0, 4.1) == 1.0
    assert abs(ref.slowdown(15.0, 15.1) - 1.5) < 1e-9
    # 100 ops of 0.1 s, then the same ops taking 0.15 s in the slow stretch.
    seconds = [0.1] * 100 + [0.15] * 60
    walls, busy = reference.at_reference_speed(ref, seconds, seconds)
    away_from_the_change = walls[:85] + walls[115:]
    assert all(abs(wall - 0.1) < 1e-9 for wall in away_from_the_change)
    assert busy == walls

    # No timing within the window: the nearest one counts; none at all: 1.
    sparse = reference.Reference()
    sparse.at, sparse.took = [1.0, 9.0], [quiet, 2.0 * quiet]
    assert sparse.slowdown(4.0, 4.2) == 1.0
    assert sparse.slowdown(6.0, 6.2) == 2.0
    assert reference.Reference().slowdown(0.0, 1.0) == 1.0


def test_the_loop_is_timed_only_when_due():
    ref = reference.Reference()
    for timed_s in (0.01, 0.02, 0.01 + reference.EVERY_S, 0.02 + reference.EVERY_S):
        ref.sample(timed_s)
    assert ref.at == [0.01, 0.01 + reference.EVERY_S]
    assert all(took > 0 for took in ref.took)


# -- wrapper install / uninstall ---------------------------------------------


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    import repro
    import repro.core.compiler as compiler
    import repro.core.parser as parser
    import repro.negotiator.verification as verification

    before = {
        "alias": compiler.parse_policy,
        "home": parser.parse_policy,
        "package": repro.verify_refinement,
        "method": compiler.MerlinCompiler.__dict__["compile"],
    }
    assert before["alias"] is before["home"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unresolved == []
        assert compiler.parse_policy is parser.parse_policy is not before["home"]
        assert repro.verify_refinement is verification.verify_refinement is not before["package"]
        assert compiler.MerlinCompiler.__dict__["compile"] is not before["method"]
    finally:
        tracer.uninstall()
    assert compiler.parse_policy is parser.parse_policy is before["home"]
    assert repro.verify_refinement is before["package"]
    assert compiler.MerlinCompiler.__dict__["compile"] is before["method"]


def test_unresolved_targets_are_listed_not_fatal():
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("gone", "repro.no_such_module", "f", ()),
            ("gone", "repro.core.parser", "no_such_function", ()),
            ("gone", "repro.core.compiler", "MerlinCompiler.no_such_method", ()),
        )
    )
    tracer.uninstall()
    assert len(tracer.unresolved) == 3
    assert tracing.summarize(tracer.spans) == {
        "__root__": {"total_s": 0.0, "self_s": 0.0, "attributed_s": 0.0, "calls": 0}
    }


# -- BENCHMARK.json names -----------------------------------------------------


def test_manifest_names_are_the_ones_the_harness_emits():
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    workloads = [entry["name"] for entry in manifest["workloads"]]
    end_to_end = {entry["name"]: entry["unit"] for entry in manifest["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in manifest["per_layer"]}
    assert all(name.fullmatch(n) for n in [*workloads, *end_to_end, *per_layer])
    # The manifest gates a subset of the harness's workloads, in its order.
    assert workloads == [n for n in WORKLOADS if n in workloads]
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert manifest["paths"] == ["bench"]
    assert any(e["name"] == "setup_s" and e["better"] == "lower" for e in manifest["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])


# -- the allocation checker ---------------------------------------------------


def _small_compile():
    """A real six-statement compile on the campus topology (milliseconds)."""
    import inputs
    from workloads import CompileCampusDefault

    workload = CompileCampusDefault(seed=1)
    topology = workload.build_topology()
    hosts = topology.host_names()[:3]
    macs = {host: topology.node(host).mac for host in hosts}
    policy = inputs.campus_policy(hosts, macs, inputs.rng_for("test", 1), share=0.5)
    workload.topology = topology
    result = workload.compile(policy.source)
    return check.network_view(topology), policy.expected, workload.placements, result


def test_checker_accepts_a_real_allocation_and_rejects_corrupted_ones():
    network, expected, placements, result = _small_compile()
    assert check.check_allocation(network, expected, placements, result) == []

    # One reservation raised above its link's capacity.
    link, reserved = next(
        (link, value) for link, value in result.link_reservations.items() if value.bps_value > 0
    )
    over = dict(result.link_reservations)
    over[link] = SimpleNamespace(bps_value=network.links[check.link_key(*link)] + 5e6)
    corrupted = SimpleNamespace(
        paths=result.paths, link_reservations=over, sink_trees=result.sink_trees
    )
    problems = check.check_allocation(network, expected, placements, corrupted)
    assert any("over capacity" in problem for problem in problems)

    # One hop removed from a path.
    identifier, assignment = next(
        (i, a) for i, a in result.paths.items() if len(a.path) > 3
    )
    cut = SimpleNamespace(
        path=assignment.path[:2] + assignment.path[3:],
        function_placements=assignment.function_placements,
    )
    corrupted = SimpleNamespace(
        paths={**result.paths, identifier: cut},
        link_reservations=result.link_reservations,
        sink_trees=result.sink_trees,
    )
    problems = check.check_allocation(network, expected, placements, corrupted)
    assert any(problem.startswith(f"{identifier}:") for problem in problems)


def test_path_pattern_expands_functions_and_respects_precedence():
    pattern = check.path_pattern(".* dpi (a|b)*", {"dpi": ("m1", "m2")})
    assert pattern.fullmatch("h1,s1,m2,a,b,a,")
    assert pattern.fullmatch("m1,")
    assert not pattern.fullmatch("h1,s1,a,")
    assert not pattern.fullmatch("h1,m1,c,")


# -- compare.py ---------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(steady, [x * 1.30 for x in steady], "lower", 0.10)[0] == "regression"
    assert compare.verdict(steady, [x * 0.70 for x in steady], "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, [x * 0.70 for x in steady], "higher", 0.10)[0] == "regression"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [90.0, 100.0, 115.0, 150.0], "lower", 0.10)[0] == "unresolved"
    # Noisy, but every run of B beats every run of A.
    assert compare.verdict(noisy, [40.0, 50.0, 60.0, 70.0], "lower", 0.10)[0] == "better"
