"""The cyclic garbage collector is paused for one top-level operation.

A compile, a recompile and a refinement verdict each allocate hundreds of
thousands of container objects and free nearly all of them by reference
counting.  The cyclic collector, triggered by those allocations alone, scans
them dozens of times per operation (a full-heap run among them now and then)
and finds next to no cycles, since the operation's own code makes none.  So
the three entry points run with the collector off.
"""

from __future__ import annotations

import functools
import gc


def collector_paused(function):
    """``function``, run with the cyclic garbage collector off.

    The collector is turned off on entry and back on, in a ``finally``, only
    if it was on at entry: a caller that turned it off keeps it off, and a
    nested call leaves it to the outermost.  Reference counting still frees
    all acyclic garbage during the call.  What waits is cycles and one scan
    of the objects that survived the call, both done by the first collection
    after it, which the caller's next allocations trigger by themselves.

    Threads share the one collector.  Only a call that found it on turns it
    off, and that call turns it back on, so once all calls have returned it
    is on again unless a caller had turned it off.  A call overlapping
    another thread's may run part of its time with the collector on, which
    costs time, never correctness.
    """

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused
