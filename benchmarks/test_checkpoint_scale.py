"""Checkpoint cost at scale: undo-journal marks vs copying snapshots.

The shadow checkpoints of PR 5 copied every session dict per transaction —
exact, but O(population), which dominates once a long-running provisioner
carries 100k+ statements and each delta touches a handful.  The undo
journal (``repro.incremental.journal``) replaces the copies with an
inverse-operation log: O(1) marks, O(delta) rollback, O(1) commit.

This benchmark measures that claim on the engine's bookkeeping layer, the
layer checkpoints protect (solves are deliberately excluded — a 100k-
statement MIP is a solver benchmark, not a checkpoint one).  A population
of guaranteed statements sharing one rebadged product graph is built at a
small and a large size, and at each size we take the minimum over repeated
runs of:

* ``mark`` — ``checkpoint()`` + ``release()``: the per-delta overhead the
  journal charges ("after");
* ``snapshot`` — copying the state a transaction protects, as the
  shadow checkpoints did ("before"; the copy is the journal tests' oracle,
  ``tests/incremental/test_journal.py::_engine_state``, repeated here);
* ``transaction`` — a full churn transaction (rate renegotiation + tenant
  join + tenant leave, rolled back and committed), the realistic per-delta
  cost including the undo replay.

Acceptance (the O(delta) guard): the large-population mark and transaction
costs stay within 2x of the small-population costs (plus a small absolute
epsilon for timer noise) — i.e. checkpoint cost does not grow with the
population.  The large engine's solution memo is filled to its bound and
the small one's left empty, so the same guard shows a mark does not pay
for the memo either.  The large population then sustains a seeded
join/leave/renegotiation event stream end-to-end, every event inside a
mark/rollback-or-commit transaction, with the journal fully truncated at
the end.

Quick tier: 1k vs 100k, 200-event stream.  ``MERLIN_BENCH_SCALE=full``:
1k vs 250k, 1000-event stream.
"""

import random
import time

from repro.analysis.reporting import format_table
from repro.core.ast import Statement
from repro.core.logical import build_logical_topology
from repro.core.options import ProvisionOptions
from repro.incremental import IncrementalProvisioner
from repro.incremental.solve import SOLUTION_MEMO_LIMIT
from repro.predicates.ast import FieldTest
from repro.regex.parser import parse_path_expression
from repro.topology.generators import figure2_example
from repro.units import Bandwidth

from conftest import is_full_scale

SMALL_POPULATION = 1_000
QUICK_LARGE_POPULATION = 100_000
FULL_LARGE_POPULATION = 250_000
QUICK_EVENTS = 200
FULL_EVENTS = 1_000
TIMING_REPS = 5
#: Absolute slop added to the 2x relative guard: shared-machine timer noise
#: on a sub-millisecond measurement should not fail an asymptotic claim.
EPSILON_SECONDS = 0.002

_PATH = parse_path_expression(".*")
_GUARANTEE = Bandwidth.mbps(1)


def _engine_with_population(count):
    """An engine carrying ``count`` guaranteed statements, ready to churn.

    Every statement shares one prebuilt product graph (rebadged per
    identifier — structure shared, never copied), so population cost is
    pure bookkeeping and the benchmark scales to 250k statements without
    re-running graph construction 250k times.
    """
    topology = figure2_example(capacity=Bandwidth.gbps(100))
    seed_statement = Statement("seed", FieldTest("tcp.dst", 1), _PATH)
    logical = build_logical_topology(
        seed_statement, topology, {}, source="h1", destination="h2"
    )
    engine = IncrementalProvisioner(
        topology, options=ProvisionOptions(footprint_slack=None)
    )
    for index in range(count):
        identifier = f"s{index}"
        engine.add_statement(
            Statement(identifier, FieldTest("tcp.dst", index % 60_000), _PATH),
            guarantee=_GUARANTEE,
            logical=logical.rebadged(identifier),
        )
    return engine, logical


def _best_of(reps, run):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _mark_cost(engine):
    def run():
        saved = engine.checkpoint()
        engine.release(saved)

    return _best_of(TIMING_REPS, run)


def _engine_state(engine):
    """A shadow copy of every piece of engine state a transaction protects."""
    return {
        "records": dict(engine._records),
        "last_values": dict(engine._last_values),
        "topology": engine.topology,
        "capacities": dict(engine._capacity_mbps),
    }


def _snapshot_cost(engine):
    return _best_of(TIMING_REPS, lambda: _engine_state(engine))


def _transaction_cost(engine, logical):
    """One churn transaction — renegotiate + join + leave — rolled back.

    Rolling back (rather than committing) keeps the engine byte-identical
    across repetitions, so min-of-reps measures the same work every time;
    the rollback's undo replay is part of the realistic per-delta cost.
    """

    def run():
        saved = engine.checkpoint()
        engine.update_rates("s5", guarantee=Bandwidth.mbps(2))
        engine.add_statement(
            Statement("bench_fresh", FieldTest("tcp.dst", 7), _PATH),
            guarantee=_GUARANTEE,
            logical=logical.rebadged("bench_fresh"),
        )
        engine.remove_statement("s9")
        engine.restore(saved)
        engine.release(saved)

    return _best_of(TIMING_REPS, run)


def _sustain_stream(engine, logical, events, seed=20140402):
    """Replay a join/leave/renegotiation stream, one transaction per event.

    A quarter of the events roll back instead of committing (an admission
    veto, a failed solve) — the stream must survive those too.  Returns
    (committed, rolled_back); the caller checks the mirror population.
    """
    rng = random.Random(seed)
    population = set(engine.statement_ids())
    mirror = set(population)
    next_join = len(population)
    committed = rolled_back = 0
    for _ in range(events):
        saved = engine.checkpoint()
        kind = rng.choice(("join", "leave", "renegotiate"))
        if kind == "join":
            identifier = f"j{next_join}"
            next_join += 1
            engine.add_statement(
                Statement(identifier, FieldTest("tcp.dst", next_join % 60_000), _PATH),
                guarantee=_GUARANTEE,
                logical=logical.rebadged(identifier),
            )
            touched = ("add", identifier)
        elif kind == "leave":
            identifier = rng.choice(tuple(mirror))
            engine.remove_statement(identifier)
            touched = ("remove", identifier)
        else:
            identifier = rng.choice(tuple(mirror))
            engine.update_rates(
                identifier, guarantee=Bandwidth.mbps(rng.randint(1, 50))
            )
            touched = ("update", identifier)
        if rng.random() < 0.25:
            engine.restore(saved)
            rolled_back += 1
        else:
            if touched[0] == "add":
                mirror.add(touched[1])
            elif touched[0] == "remove":
                mirror.discard(touched[1])
            committed += 1
        engine.release(saved)
    assert set(engine.statement_ids()) == mirror
    return committed, rolled_back


def _run():
    large_population = (
        FULL_LARGE_POPULATION if is_full_scale() else QUICK_LARGE_POPULATION
    )
    events = FULL_EVENTS if is_full_scale() else QUICK_EVENTS
    rows = []
    measured = {}
    for population in (SMALL_POPULATION, large_population):
        engine, logical = _engine_with_population(population)
        if population == large_population:
            engine._memo.update(
                (("filler", (index,), (None,)), object())
                for index in range(SOLUTION_MEMO_LIMIT)
            )
        mark = _mark_cost(engine)
        snapshot = _snapshot_cost(engine)
        transaction = _transaction_cost(engine, logical)
        measured[population] = (mark, transaction, engine, logical)
        rows.append(
            {
                "statements": population,
                "mark_us": mark * 1e6,
                "transaction_us": transaction * 1e6,
                "legacy_snapshot_us": snapshot * 1e6,
                "snapshot_over_mark": snapshot / mark if mark else float("inf"),
            }
        )
    stream = _sustain_stream(*measured[large_population][2:], events=events)
    return large_population, events, rows, measured, stream


def test_checkpoint_cost_stays_o_delta(benchmark, report):
    large_population, events, rows, measured, stream = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    committed, rolled_back = stream
    report(
        "checkpoint_scale",
        format_table(
            rows,
            [
                "statements",
                "mark_us",
                "transaction_us",
                "legacy_snapshot_us",
                "snapshot_over_mark",
            ],
            title=(
                "Checkpoint cost: undo-journal mark vs legacy copying "
                "snapshot (min of %d reps)" % TIMING_REPS
            ),
        )
        + (
            f"\nstream @ {large_population} statements: {events} events, "
            f"{committed} committed, {rolled_back} rolled back"
        ),
    )
    small_mark, small_tx, _, _ = measured[SMALL_POPULATION]
    large_mark, large_tx, engine, _ = measured[large_population]
    # The O(delta) guard: a 100x larger population must not make the
    # per-delta checkpoint or transaction measurably more expensive.
    assert large_mark <= max(2 * small_mark, small_mark + EPSILON_SECONDS)
    assert large_tx <= max(2 * small_tx, small_tx + EPSILON_SECONDS)
    # The stream ran end-to-end and the journal was truncated behind it:
    # nothing leaks between transactions.
    assert committed + rolled_back == events
    assert not engine.journal.active
    assert len(engine.journal) == 0
