"""SolveFabric: pool persistence, crash containment.

The fabric's contract is behavioural — workers persist across ``solve``
calls and a dying pool degrades to correct serial answers rather than
``BrokenProcessPool`` — so these tests drive it with small picklable fake
tasks instead of real MIP payloads.
"""

import os

import pytest

from repro.fabric import SolveFabric

PARENT_PID = os.getpid()


def _double(payload):
    return payload * 2


def _crash_in_worker(payload):
    # Crash hard (no exception the pool could catch) — but only inside a
    # worker process, so the fabric's final in-process fallback succeeds.
    if os.getpid() != PARENT_PID:
        os._exit(1)
    return payload * 2


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


class TestCrashContainment:
    def test_dying_pool_degrades_to_serial_answers(self):
        fabric = SolveFabric(max_workers=2, task=_crash_in_worker)
        try:
            # Workers exit on sight of a payload; the fabric respawns, gives
            # up, and finishes in-process — the caller still gets answers.
            assert fabric.solve([1, 2, 3]) == [2, 4, 6]
            assert fabric.respawns >= 1
            assert fabric.serial_fallbacks == 1
        finally:
            fabric.shutdown(wait=False)
