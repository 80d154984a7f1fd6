"""SolveFabric: pool persistence, crash containment, speculation.

The fabric's contract is behavioural — workers persist across ``solve``
calls, a dying pool degrades to correct serial answers rather than
``BrokenProcessPool``, and speculative duplicates only win when the exact
solve is not already done — so these tests drive it with small picklable
fake tasks instead of real MIP payloads.
"""

import os
import time

import pytest

from repro.fabric import SolveFabric
from repro.lp.backends import backend_name

PARENT_PID = os.getpid()


def _double(payload):
    return payload * 2


def _crash_in_worker(payload):
    # Crash hard (no exception the pool could catch) — but only inside a
    # worker process, so the fabric's final in-process fallback succeeds.
    if os.getpid() != PARENT_PID:
        os._exit(1)
    return payload * 2


def _sleepy_exact(payload):
    _model, solver, _warm = payload
    if backend_name(solver) == "heuristic":
        return "heuristic"
    time.sleep(1.5)
    return "exact"


def _quick_exact(payload):
    _model, solver, _warm = payload
    if backend_name(solver) == "heuristic":
        time.sleep(5.0)
        return "heuristic"
    time.sleep(0.3)
    return "exact"


class TestInProcessFastPaths:
    def test_single_payload_never_spawns_workers(self):
        with SolveFabric(max_workers=4, task=_double) as fabric:
            assert fabric.solve([21]) == [42]
            assert fabric.spawned == 0

    def test_one_worker_fabric_solves_in_process(self):
        with SolveFabric(max_workers=1, task=_double) as fabric:
            assert fabric.solve([1, 2, 3]) == [2, 4, 6]
            assert fabric.spawned == 0

    def test_empty_batch(self):
        with SolveFabric(max_workers=2, task=_double) as fabric:
            assert fabric.solve([]) == []


class TestPersistence:
    def test_pool_is_reused_across_solve_calls(self):
        with SolveFabric(max_workers=2, task=_double) as fabric:
            first = fabric.solve([1, 2, 3], estimates=[3.0, 1.0, 2.0])
            second = fabric.solve([4, 5])
            third = fabric.solve([6, 7])
            assert first == [2, 4, 6]  # input order, despite dispatch order
            assert second == [8, 10]
            assert third == [12, 14]
            assert fabric.spawned == 1  # one pool served all three calls
            assert fabric.tasks == 7

    def test_shutdown_leaves_the_fabric_usable(self):
        fabric = SolveFabric(max_workers=2, task=_double)
        assert fabric.solve([1, 2]) == [2, 4]
        fabric.shutdown()
        assert fabric.solve([3, 4]) == [6, 8]  # lazily respawned
        assert fabric.spawned == 2
        fabric.shutdown()

    def test_rejects_nonsense_widths(self):
        with pytest.raises(ValueError):
            SolveFabric(max_workers=0)
        with pytest.raises(ValueError):
            SolveFabric(max_workers=2, max_respawns=-1)


class TestCrashContainment:
    def test_dying_pool_degrades_to_serial_answers(self):
        fabric = SolveFabric(max_workers=2, max_respawns=1, task=_crash_in_worker)
        try:
            # Workers exit on sight of a payload; the fabric respawns, gives
            # up, and finishes in-process — the caller still gets answers.
            assert fabric.solve([1, 2, 3]) == [2, 4, 6]
            assert fabric.respawns >= 1
            assert fabric.serial_fallbacks == 1
        finally:
            fabric.shutdown(wait=False)


class TestSpeculation:
    def test_stragglers_fall_back_to_the_heuristic_duplicate(self):
        fabric = SolveFabric(
            max_workers=2, speculate_after_seconds=0.05, task=_sleepy_exact
        )
        try:
            payloads = [("m1", None, None), ("m2", None, None)]
            results = fabric.solve(payloads)
            assert results == ["heuristic", "heuristic"]
            assert fabric.speculations == 2
            assert fabric.speculation_wins == 2
        finally:
            fabric.shutdown(wait=False)

    def test_finished_exact_solve_beats_the_unproven_duplicate(self):
        fabric = SolveFabric(
            max_workers=2, speculate_after_seconds=0.05, task=_quick_exact
        )
        try:
            payloads = [("m1", None, None), ("m2", None, None)]
            results = fabric.solve(payloads)
            # Both payloads missed the deadline (so duplicates launched),
            # but the exact solves finish long before the slow heuristic —
            # proof-aware preference takes them.
            assert results == ["exact", "exact"]
            assert fabric.speculations == 2
            assert fabric.speculation_wins == 0
        finally:
            fabric.shutdown(wait=False)
