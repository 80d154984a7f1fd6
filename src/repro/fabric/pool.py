"""The persistent solve pool (see the package docstring).

A :class:`SolveFabric` owns one long-lived ``ProcessPoolExecutor`` — the
only place in the tree allowed to construct one (``make lint-pool``) — and
schedules component solves onto it:

* **Largest-first dispatch.**  ``solve`` submits payloads in descending
  size order (the caller's variables x constraints estimate), so the
  models that dominate the makespan start immediately and idle workers
  steal the remaining smaller tail from the shared queue.

* **Crash containment.**  A worker death surfaces as ``BrokenExecutor`` on
  every pending future.  The fabric keeps the results it already collected,
  respawns the pool (at most :data:`MAX_RESPAWNS` times), resubmits only the
  unfinished payloads, and — if the pool keeps dying — finishes them
  serially in-process.  Callers never see the raw executor error.

The pool is lazy: no processes exist until the first multi-payload
``solve``, and ``shutdown()`` reaps them while leaving the fabric usable
(the next solve respawns).  A fabric belongs to whoever created it and
reaches the solver as ``ProvisionOptions.fabric``; there is no
process-wide instance.

Which answer a component gets never depends on the wall clock: every
payload is solved by the backend it names and the fabric waits for it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from .. import telemetry

__all__ = ["SolveFabric"]

#: How often a solve call replaces a pool whose worker died before it gives
#: up on processes and finishes the remaining payloads in-process.
MAX_RESPAWNS = 1


def _default_task(payload):
    """Solve one ``(standard form, solver)`` component payload."""
    from ..incremental.solve import _solve_model_payload

    return _solve_model_payload(payload)


class SolveFabric:
    """A persistent, crash-tolerant worker pool for component solves.

    ``max_workers`` fixes the pool width (default: the machine's core
    count).  ``task`` is the per-payload worker function — overridable for
    tests; the default solves ``(standard form, solver)`` payloads.
    All counters (``tasks``, ``respawns``, ``serial_fallbacks``,
    ``spawned``) are cumulative over the fabric's lifetime and mirrored
    into ``repro.telemetry``.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        task: Optional[Callable] = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._task = task if task is not None else _default_task
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self.spawned = 0
        self.tasks = 0
        self.respawns = 0
        self.serial_fallbacks = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _executor_handle(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self._max_workers)
                self.spawned += 1
                telemetry.counter("fabric_pool_spawns")
            return self._executor

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        """Reap the worker processes.  The fabric stays usable: a later
        ``solve`` lazily respawns the pool."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "SolveFabric":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- solving -----------------------------------------------------------------

    def solve(
        self,
        payloads: Sequence,
        estimates: Optional[Sequence[float]] = None,
        task: Optional[Callable] = None,
    ) -> List:
        """Run ``task`` over every payload; results come back in input order.

        ``estimates`` (model size proxies) drive largest-first dispatch.
        Single payloads — and one-worker fabrics — run in-process: the
        common single-dirty-component delta never pays IPC.
        """
        task = task if task is not None else self._task
        count = len(payloads)
        results: List = [None] * count
        if count == 0:
            return results
        self.tasks += count
        if count == 1 or self._max_workers <= 1:
            for index, payload in enumerate(payloads):
                results[index] = task(payload)
            return results
        if estimates is None:
            estimates = [0.0] * count
        order = sorted(range(count), key=lambda index: (-estimates[index], index))

        pending = list(order)
        for _attempt in range(MAX_RESPAWNS + 1):
            executor = self._executor_handle()
            try:
                futures = {
                    index: executor.submit(task, payloads[index])
                    for index in pending
                }
                for index, future in futures.items():
                    results[index] = future.result()
            except BrokenExecutor:
                self._discard(executor)
                self.respawns += 1
                telemetry.counter("fabric_pool_respawns")
                pending = [index for index in pending if results[index] is None]
                if not pending:
                    return results
                continue
            return results

        # The pool died on every respawn; finish what is left in-process so
        # the caller gets answers, not executor plumbing.
        self.serial_fallbacks += 1
        telemetry.counter("fabric_serial_fallbacks")
        for index in pending:
            if results[index] is None:
                results[index] = task(payloads[index])
        return results
