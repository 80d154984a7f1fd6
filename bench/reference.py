"""A reference loop that tells how fast the machine is running right now.

The benchmark runs on a few cores of a shared host, and that host changes
speed: for seconds or minutes at a time everything — this loop, the
interpreter, the solver — runs 30-70% slower, then recovers.  A run that falls
into a slow stretch reads that much worse for no fault of the program.  So a
fixed loop is timed between ops, and every op's time is divided by how much
slower than ``QUIET_S`` the loop ran around that op: timings are reported *at
reference speed*.  The loop is benchmark code and does nothing the program
does, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

clock = time.perf_counter

#: Seconds the loop takes on the 2-core box while nothing else runs there.
QUIET_S = 1.12e-3
#: The loop is timed again once this much timed work has passed since it last was.
EVERY_S = 0.05
#: An op is judged by the loop timings within this span of timed work around it.
WINDOW_S = 2.0


def _add(a: int, b: int) -> int:
    return a + b


def spin() -> float:
    """Seconds one pass of the loop takes.

    Half of its quiet time is integer arithmetic; the other half is what the
    interpreter does in real code — calls, string formatting, dictionary
    updates, tuple allocation, a sort.  A busy host slows the second kind
    about twice as much as the first, and the program is made of both: a loop
    of arithmetic alone followed the program's slow stretches only half way.
    """
    start = clock()
    total = 0
    for i in range(10000):
        total += i * i
    counts: dict = {}
    for i in range(1500):
        key = "k%d" % (i % 97)
        counts[key] = _add(counts.get(key, 0), i)
        triple = (i, key, counts[key])
    sorted(counts.items())
    return clock() - start


def slowdown_now(passes: int = 15) -> float:
    """How much slower than ``QUIET_S`` the loop runs at this moment."""
    return statistics.median(spin() for _ in range(passes)) / QUIET_S


class Reference:
    """Loop timings taken between the ops of a run, placed on the run's timed
    clock (the sum of the op latencies so far)."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []

    def sample(self, timed_s: float) -> None:
        """Called after every op; times the loop if it is due."""
        if self.at and timed_s < self.at[-1] + EVERY_S:
            return
        self.at.append(timed_s)
        self.took.append(statistics.median(spin() for _ in range(3)))

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than ``QUIET_S`` the loop ran around the op that
        lasted from ``start`` to ``end`` on the timed clock: the median of the
        timings within ``WINDOW_S`` of it, or the nearest one."""
        if not self.at:
            return 1.0
        middle, reach = (start + end) / 2.0, max(WINDOW_S, end - start) / 2.0
        low = bisect.bisect_left(self.at, middle - reach)
        high = bisect.bisect_right(self.at, middle + reach)
        if low == high:
            near = [i for i in (low - 1, low) if 0 <= i < len(self.at)]
            low = min(near, key=lambda i: abs(self.at[i] - middle))
            high = low + 1
        return statistics.median(self.took[low:high]) / QUIET_S


def at_reference_speed(
    reference: Reference, latencies: Sequence[float], cpus: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Each op's wall and CPU seconds divided by the slowdown around it."""
    walls, busy, end = [], [], 0.0
    for wall, cpu in zip(latencies, cpus):
        start, end = end, end + wall
        slow = reference.slowdown(start, end)
        walls.append(wall / slow)
        busy.append(cpu / slow)
    return walls, busy
