"""Shared fixtures for the Merlin reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.logical import build_logical_topology, infer_endpoints
from repro.core.parser import parse_policy
from repro.topology.generators import (
    dumbbell,
    fat_tree,
    figure2_example,
    linear,
    single_switch,
    stanford_campus,
)
from repro.lp import ScipySolver, SolveResult, SolveStatus
from repro.units import Bandwidth

#: The running example of §2 (FTP data/control capped, HTTP guaranteed).
RUNNING_EXAMPLE_SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  y : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 21) -> .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 100MB/s)
"""

#: The delegation example of §4.1 — the original policy...
DELEGATION_ORIGINAL_SOURCE = """
[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2) -> .* ],
max(x, 100MB/s)
"""

#: ... and its tenant refinement.
DELEGATION_REFINED_SOURCE = """
[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 80) -> .* log .* ;
  y : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 22) -> .* ;
  z : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and
       !(tcp.dst = 22 or tcp.dst = 80)) -> .* dpi .* ],
max(x, 50MB/s) and max(y, 25MB/s) and max(z, 25MB/s)
"""


def add_guaranteed(engine, statement, guarantee, cap=None):
    """``engine.add_statement`` with the product graph the compiler would
    hand it: built on the engine's topology between the statement's
    inferred endpoints."""
    source, destination = infer_endpoints(statement, engine.topology)
    logical = build_logical_topology(
        statement,
        engine.topology,
        engine.placements,
        source=source,
        destination=destination,
    )
    engine.add_statement(statement, guarantee, cap, logical)


class FlakyBackend:
    """A backend whose solves end ``ERROR`` — a limit hit before any
    incumbent — while ``failing`` is set, and which is the scipy backend
    once it is cleared: a wall-clock outcome made repeatable."""

    name = "flaky"

    def __init__(self):
        self.failing = True

    def solve(self, form):
        if self.failing:
            return SolveResult(status=SolveStatus.ERROR)
        return ScipySolver().solve(form)


class RaisingBackend:
    """The scipy backend, except that its solve number ``raise_on``
    (counting from 1; ``None`` never) raises ``RuntimeError`` — a backend
    bug, not a ``MerlinError``."""

    name = "raising"

    def __init__(self, raise_on=None):
        self.calls = 0
        self.raise_on = raise_on

    def solve(self, form):
        self.calls += 1
        if self.calls == self.raise_on:
            raise RuntimeError("backend crashed mid-solve")
        return ScipySolver().solve(form)


@pytest.fixture
def figure2_topology():
    """The Figure 2 network with 2 Gbps links (so the running example fits)."""
    return figure2_example(capacity=Bandwidth.gbps(2))


@pytest.fixture
def figure2_placements():
    """DPI can run at h1, h2, or m1; NAT only at m1 (as in Figure 2)."""
    return {"dpi": ["h1", "h2", "m1"], "nat": ["m1"], "log": ["m1"]}


@pytest.fixture
def running_example_policy(figure2_topology):
    return parse_policy(RUNNING_EXAMPLE_SOURCE, topology=figure2_topology)


@pytest.fixture
def dumbbell_topology():
    """The Figure 3 network (two disjoint paths of different capacity)."""
    return dumbbell()


@pytest.fixture
def small_fat_tree():
    return fat_tree(4)


@pytest.fixture
def stanford_topology():
    return stanford_campus()


@pytest.fixture
def tiny_topology():
    """One switch, four hosts — the smallest useful network."""
    return single_switch(4)


@pytest.fixture
def linear_topology():
    """Three switches in a row, one host each."""
    return linear(3, hosts_per_switch=1)
