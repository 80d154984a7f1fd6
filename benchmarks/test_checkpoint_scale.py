"""Checkpoint cost at scale: undo-journal marks vs copying snapshots.

The shadow checkpoints of PR 5 copied every session dict per transaction —
exact, but O(population), which dominates once a long-running provisioner
carries 100k+ statements and each delta touches a handful.  The undo
journal (``repro.incremental.journal``) replaces the copies with an
inverse-operation log: O(1) marks, O(delta) rollback, O(1) commit.

This figure checks that claim on the engine's bookkeeping layer, the
layer checkpoints protect (solves are deliberately excluded — a 100k-
statement MIP is a solver benchmark, not a checkpoint one).  A population
of guaranteed statements sharing one product graph is built at a
small and a large size, and at each size we run, once each under one
``telemetry.span``:

* ``mark`` — ``journal.mark()`` + ``journal.release()``: the per-delta overhead the
  journal charges ("after");
* ``snapshot`` — copying the state a transaction protects, as the
  shadow checkpoints did ("before"; the copy is the journal tests' oracle,
  ``tests/incremental/test_journal.py::_engine_state``, repeated here);
* ``transaction`` — a full churn transaction (rate renegotiation + tenant
  join + tenant leave, rolled back and committed), the realistic per-delta
  cost including the undo replay.

Acceptance (the O(delta) guard), counted in journal entries: a mark records
nothing (the journal is still empty after ``journal.mark()``), and the churn
transaction journals the same three entries (one per mutator) at the small
population as at the 100x larger one — what a checkpoint costs is what the
delta touched, never the population.  The large engine's solution memo is filled to its
bound and the small one's left empty, so the same count shows a mark does
not pay for the memo either.  The span durations are printed beside the
counts and not asserted.  The large population then sustains a seeded
join/leave/renegotiation event stream end-to-end, every event inside a
mark/rollback-or-commit transaction, with the journal fully truncated at
the end.

Quick tier: 1k vs 100k, 200-event stream.  ``MERLIN_BENCH_SCALE=full``:
1k vs 250k, 1000-event stream.
"""

import dataclasses
import random

from repro import telemetry
from repro.core.ast import Statement
from repro.core.logical import build_logical_topology
from repro.core.options import ProvisionOptions
from repro.incremental import IncrementalProvisioner
from repro.incremental.solve import SOLUTION_MEMO_LIMIT
from repro.predicates.ast import FieldTest
from repro.regex.parser import parse_path_expression
from repro.topology.generators import figure2_example
from repro.units import Bandwidth

from conftest import format_table, is_full_scale

SMALL_POPULATION = 1_000
QUICK_LARGE_POPULATION = 100_000
FULL_LARGE_POPULATION = 250_000
QUICK_EVENTS = 200
FULL_EVENTS = 1_000

_PATH = parse_path_expression(".*")
_GUARANTEE = Bandwidth.mbps(1)


def _engine_with_population(count):
    """An engine carrying ``count`` guaranteed statements, ready to churn.

    Every statement shares one prebuilt product graph (replaced under its
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
            logical=dataclasses.replace(logical, statement_id=identifier),
        )
    return engine, logical


def _mark(engine):
    """``journal.mark()`` + ``journal.release()``: (journal entries at the mark, us)."""
    with telemetry.span("mark") as span:
        saved = engine.journal.mark()
        entries = len(engine.journal)
        engine.journal.release(saved)
    return entries, span.duration * 1e6


def _engine_state(engine):
    """A shadow copy of every piece of engine state a transaction protects."""
    return {
        "records": dict(engine.records),
        "topology": engine.topology,
        "capacities": dict(engine._capacity_mbps),
    }


def _snapshot_us(engine):
    with telemetry.span("legacy_snapshot") as span:
        _engine_state(engine)
    return span.duration * 1e6


def _transaction(engine, logical):
    """One churn transaction — renegotiate + join + leave — rolled back:
    (journal entries it recorded, us).

    Rolling back (rather than committing) leaves the engine as it was for
    the stream that follows; the rollback's undo replay is part of the
    realistic per-delta cost.
    """
    with telemetry.span("transaction") as span:
        saved = engine.journal.mark()
        engine.update_rates("s5", guarantee=Bandwidth.mbps(2))
        engine.add_statement(
            Statement("bench_fresh", FieldTest("tcp.dst", 7), _PATH),
            guarantee=_GUARANTEE,
            logical=dataclasses.replace(logical, statement_id="bench_fresh"),
        )
        engine.remove_statement("s9")
        entries = len(engine.journal)
        engine.journal.rollback(saved)
        engine.journal.release(saved)
    return entries, span.duration * 1e6


def _sustain_stream(engine, logical, events, seed=20140402):
    """Replay a join/leave/renegotiation stream, one transaction per event.

    A quarter of the events roll back instead of committing (an admission
    veto, a failed solve) — the stream must survive those too.  Returns
    (committed, rolled_back); the caller checks the mirror population.
    """
    rng = random.Random(seed)
    population = set(engine.records)
    mirror = set(population)
    next_join = len(population)
    committed = rolled_back = 0
    for _ in range(events):
        saved = engine.journal.mark()
        kind = rng.choice(("join", "leave", "renegotiate"))
        if kind == "join":
            identifier = f"j{next_join}"
            next_join += 1
            engine.add_statement(
                Statement(identifier, FieldTest("tcp.dst", next_join % 60_000), _PATH),
                guarantee=_GUARANTEE,
                logical=dataclasses.replace(logical, statement_id=identifier),
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
            engine.journal.rollback(saved)
            rolled_back += 1
        else:
            if touched[0] == "add":
                mirror.add(touched[1])
            elif touched[0] == "remove":
                mirror.discard(touched[1])
            committed += 1
        engine.journal.release(saved)
    assert set(engine.records) == mirror
    return committed, rolled_back


def test_checkpoint_cost_stays_o_delta(report):
    large_population = (
        FULL_LARGE_POPULATION if is_full_scale() else QUICK_LARGE_POPULATION
    )
    events = FULL_EVENTS if is_full_scale() else QUICK_EVENTS
    rows = []
    for population in (SMALL_POPULATION, large_population):
        engine, logical = _engine_with_population(population)
        if population == large_population:
            engine._memo.update(
                (("filler", (index,), (None,)), object())
                for index in range(SOLUTION_MEMO_LIMIT)
            )
        mark_entries, mark_us = _mark(engine)
        snapshot_us = _snapshot_us(engine)
        transaction_entries, transaction_us = _transaction(engine, logical)
        rows.append(
            {
                "statements": population,
                "mark_entries": mark_entries,
                "transaction_entries": transaction_entries,
                "mark_us": mark_us,
                "transaction_us": transaction_us,
                "legacy_snapshot_us": snapshot_us,
                "snapshot_over_mark": snapshot_us / mark_us if mark_us else float("inf"),
            }
        )
    # ``engine`` is now the large one, its memo full.
    committed, rolled_back = _sustain_stream(engine, logical, events=events)
    report(
        "checkpoint_scale",
        format_table(
            rows,
            [
                "statements",
                "mark_entries",
                "transaction_entries",
                "mark_us",
                "transaction_us",
                "legacy_snapshot_us",
                "snapshot_over_mark",
            ],
            title="Checkpoint cost: undo-journal mark vs legacy copying snapshot",
        )
        + (
            f"\nstream @ {large_population} statements: {events} events, "
            f"{committed} committed, {rolled_back} rolled back"
        ),
    )
    small, large = rows
    # The O(delta) guard: a mark journals nothing, and a 100x larger
    # population (with a full solution memo) adds no entry to a transaction.
    assert small["mark_entries"] == large["mark_entries"] == 0
    # The count itself: one entry per mutator (renegotiate, join, leave) —
    # the record dict is all the engine keeps per statement.
    assert small["transaction_entries"] == large["transaction_entries"] == 3
    # The stream ran end-to-end and the journal was truncated behind it:
    # nothing leaks between transactions.
    assert committed + rolled_back == events
    assert not engine.journal.active
    assert len(engine.journal) == 0
