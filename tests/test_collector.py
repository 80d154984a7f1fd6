"""The cyclic garbage collector around one compile, recompile and verdict.

Each of the three operations runs with the collector paused
(``repro.collector.collector_paused``): no collection runs inside it, and
afterwards the collector is in the state the caller left it in, whether the
operation returned, raised or ran nested in another or beside one on
another thread.  Pausing it costs nothing only if the operations make no
reference cycles, so each is run under ``gc.DEBUG_SAVEALL`` and must leave
the collector nothing to find.
"""

import collections
import contextlib
import gc
import sys
import threading

import pytest

from repro.core import MerlinCompiler
from repro.core.options import ProvisionOptions
from repro.core.ast import BandwidthTerm, FMax, Policy, Statement, formula_and
from repro.core.parser import parse_policy
from repro.errors import MerlinError, ProvisioningError
from repro.experiments.policy_builders import (
    FIGURE4_PLACEMENTS,
    all_pairs_policy,
    combination_policy,
    stanford_with_middleboxes,
)
from repro.incremental import PolicyDelta, RateUpdate
from repro.lp import ScipySolver
from repro.negotiator import verification, verify_refinement
from repro.negotiator.negotiator import Negotiator
from repro.predicates.ast import FieldTest, pred_and, pred_not, pred_or
from repro.regex.ast import Symbol, any_path, concat
from repro.scenarios.generator import ScenarioConfig, generate_scenario
from repro.topology.generators import fat_tree, figure2_example
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
TCP = FieldTest("ip.proto", 6)


def _compiler(**kwargs):
    return MerlinCompiler(
        topology=figure2_example(capacity=Bandwidth.gbps(2)),
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        **kwargs,
    )


def _rate(mb_per_sec):
    return PolicyDelta(
        update_rates=(RateUpdate("z", guarantee=Bandwidth.mb_per_sec(mb_per_sec)),)
    )


def _verdict_pair():
    original = parse_policy(SOURCE)
    return original, parse_policy(SOURCE.replace("50MB/s", "40MB/s"))


@contextlib.contextmanager
def _collector_state(enabled):
    """The collector on or off for the block, as it was after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class _Probe:
    """The scipy backend, recording whether the collector is on at each solve."""

    name = "probe"

    def __init__(self):
        self.states = []

    def solve(self, form):
        self.states.append(gc.isenabled())
        return ScipySolver().solve(form)


def _compile(monkeypatch):
    probe = _Probe()
    compiler = _compiler(generate_code=False, options=ProvisionOptions(solver=probe))
    return probe.states, lambda: compiler.compile(SOURCE)


def _recompile(monkeypatch):
    probe = _Probe()
    compiler = _compiler(generate_code=False, options=ProvisionOptions(solver=probe))
    compiler.compile(SOURCE)
    probe.states.clear()
    delta = _rate(40)
    return probe.states, lambda: compiler.recompile(delta)


def _verify(monkeypatch):
    states = []
    overlapping = verification.find_overlapping_between

    def probe(*args):
        states.append(gc.isenabled())
        return overlapping(*args)

    monkeypatch.setattr(verification, "find_overlapping_between", probe)
    original, refined = _verdict_pair()
    return states, lambda: verify_refinement(original, refined)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("operation", [_compile, _recompile, _verify], ids=["compile", "recompile", "verify"])
def test_the_collector_is_off_inside_and_as_the_caller_left_it_after(
    operation, enabled, monkeypatch
):
    states, call = operation(monkeypatch)
    with _collector_state(enabled):
        call()
        assert gc.isenabled() is enabled
    assert states and not any(states), states


def _parse_error():
    with pytest.raises(MerlinError):
        _compiler().compile("[ x : tcp.dst = -> .* ]")


def _refused_delta():
    compiler = _compiler(generate_code=False)
    compiler.compile(SOURCE)
    with pytest.raises(ProvisioningError):
        compiler.recompile(PolicyDelta(remove=("ghost",)))


def _infeasible_recompile():
    compiler = _compiler(generate_code=False)
    compiler.compile(SOURCE)
    with pytest.raises(ProvisioningError):
        compiler.recompile(_rate(900))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "raising", [_parse_error, _refused_delta, _infeasible_recompile],
    ids=["parse-error", "refused-delta", "infeasible-recompile"],
)
def test_a_raising_operation_restores_the_collector(raising, enabled):
    with _collector_state(enabled):
        raising()
        assert gc.isenabled() is enabled


def test_a_proposal_that_recompiles_restores_the_collector():
    compiler = _compiler(generate_code=False)
    policy = parse_policy(SOURCE, topology=compiler.topology)
    compiler.compile(policy)
    root = Negotiator(name="root", policy=policy, compiler=compiler)
    refined = parse_policy(SOURCE.replace("50MB/s", "40MB/s"), topology=compiler.topology)
    with _collector_state(True):
        assert root.propose(refined).valid
        assert root.last_reprovision is not None
        assert gc.isenabled()


class _VerdictInsideSolve:
    """The scipy backend, delivering one refinement verdict inside its
    first solve and recording the collector's state around it."""

    name = "verdict-inside"

    def __init__(self):
        self.states = None

    def solve(self, form):
        if self.states is None:
            before = gc.isenabled()
            assert verify_refinement(*_verdict_pair()).valid
            self.states = (before, gc.isenabled())
        return ScipySolver().solve(form)


def test_a_nested_operation_leaves_the_collector_to_the_outer_one():
    backend = _VerdictInsideSolve()
    compiler = _compiler(generate_code=False, options=ProvisionOptions(solver=backend))
    compiler.compile(SOURCE)
    assert backend.states == (False, False)
    backend.states = None
    with _collector_state(True):
        compiler.recompile(_rate(40))
        assert gc.isenabled()
    assert backend.states == (False, False)


def test_concurrent_compiles_leave_the_collector_on():
    threads, rounds = 4, 3
    results = [[] for _ in range(threads)]
    errors = []

    def work(slot):
        try:
            compiler = _compiler(generate_code=False)
            for _ in range(rounds):
                result = compiler.compile(SOURCE)
                results[slot].append(
                    {key: tuple(path.path) for key, path in result.paths.items()}
                )
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _collector_state(True):
            workers = [threading.Thread(target=work, args=(slot,)) for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(worker.is_alive() for worker in workers)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert all(len(rounds_done) == rounds for rounds_done in results)
    assert all(paths == results[0][0] for rounds_done in results for paths in rounds_done)


# -- no reference cycles --------------------------------------------------------


def _cyclic_garbage(run):
    """Type names of every object the cyclic collector finds unreachable
    among those ``run()`` made, most common first."""
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = collections.Counter(
            getattr(thing, "__qualname__", None) or type(thing).__name__
            for thing in gc.garbage
        )
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
    return found.most_common()


def test_a_guaranteed_compile_makes_no_cycles():
    topology = fat_tree(4)
    # Source text, as a tenant submits it: the parser conjoins the clauses.
    source = str(all_pairs_policy(topology, guarantee_fraction=0.1, seed=1))
    compiler = MerlinCompiler(topology=topology, overlap="trust", add_catch_all=False)
    assert _cyclic_garbage(lambda: compiler.compile(source)) == []


def test_a_campus_compile_with_defaults_makes_no_cycles():
    topology = stanford_with_middleboxes(subnets=6)
    policy = combination_policy(topology, seed=1)
    compiler = MerlinCompiler(topology=topology, placements=FIGURE4_PLACEMENTS)
    assert _cyclic_garbage(lambda: compiler.compile(policy)) == []


def test_a_churn_event_makes_no_cycles():
    scenario = generate_scenario(ScenarioConfig(seed=1, events=7, arity=4))
    events = scenario.events
    # The last event recovers the link the one before it failed: the apply
    # drops the degraded topology the failure made.
    assert [event.kind for event in events[-2:]] == ["link-failure", "link-recovery"]
    population = scenario.population
    compiler = MerlinCompiler(
        topology=population.topology, placements=population.placements,
        overlap="trust", add_catch_all=False,
    )
    compiler.compile(population.policy)
    session = compiler.session()
    for event in events[:-1]:
        session.apply(event)
    assert _cyclic_garbage(lambda: session.apply(events[-1])) == []


def _chain(names):
    expression = any_path()
    for name in names:
        expression = concat(expression, Symbol(name), any_path())
    return expression


def _ports(valid):
    ports = range(1, 9)
    kept = ports if valid else ports[:-1]
    statements = [
        Statement(f"p{port}", pred_and(TCP, FieldTest("tcp.dst", port)), any_path())
        for port in kept
    ]
    rest = pred_and(TCP, pred_not(pred_or(*[FieldTest("tcp.dst", port) for port in ports])))
    statements.append(Statement("rest", rest, any_path()))
    return Policy(statements=(Statement("all", TCP, any_path()),)), Policy(statements=tuple(statements))


def _waypoints(valid):
    names = [f"f{index}" for index in range(4)]
    refined = names + ["extra"] if valid else names[:-1] + ["other"]
    return (
        Policy(statements=(Statement("x", TCP, _chain(names)),)),
        Policy(statements=(Statement("x", TCP, _chain(refined)),)),
    )


def _caps(valid):
    statements = tuple(
        Statement(f"o{index}", FieldTest("tcp.dst", index + 1), any_path()) for index in range(6)
    )

    def capped(rates):
        return Policy(
            statements=statements,
            formula=formula_and(
                *[
                    FMax(BandwidthTerm((f"o{index}",)), Bandwidth.mbps(rate))
                    for index, rate in enumerate(rates)
                ]
            ),
        )

    tightened = [5.0] * len(statements)
    if not valid:
        tightened[-1] = 20.0
    return capped([10.0] * len(statements)), capped(tightened)


@pytest.mark.parametrize("valid", [True, False])
@pytest.mark.parametrize("family", [_ports, _waypoints, _caps], ids=["ports", "waypoints", "caps"])
def test_a_refinement_verdict_makes_no_cycles(family, valid):
    original, refined = family(valid)
    verdicts = []
    assert _cyclic_garbage(lambda: verdicts.append(verify_refinement(original, refined).valid)) == []
    assert verdicts == [valid]
