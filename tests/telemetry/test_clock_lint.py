"""Repo lint: all timing goes through the injectable telemetry clock, and
only ``bench/`` reads a clock in order to judge anything.

A bare ``time.perf_counter()`` anywhere in ``src/repro`` outside the
telemetry package itself would dodge clock injection — spans and derived
statistics would disagree under a fake clock.

The figure scripts (``benchmarks/``) and their drivers
(``src/repro/experiments/``) are collected by the tier-1 gate on a host
whose timings drift by tens of percent, so they may *print* latencies the
program already measured (``result.statistics``, a span's ``.duration``)
but never take one themselves and never assert on one.  Three rules, by
``ast``: no clock call, no ``benchmark`` fixture, no wall-clock name inside
an ``assert``.  The first is the one that binds — a derived name (``ratio``,
``fraction``) escapes any naming rule, but cannot hold a wall-clock reading
once nothing there reads a clock; the naming rule catches what is still
reachable, statistics fields and span durations.  ``make lint-clock`` runs
this file.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
FIGURE_DIRS = (SRC.parents[1] / "benchmarks", SRC / "experiments")

_CLOCK_ATTRIBUTES = {
    ("time", "perf_counter"),
    ("time", "time"),
    ("time", "monotonic"),
    ("telemetry", "clock"),
}
_CLOCK_IMPORTS = {"perf_counter", "monotonic", "clock"}  # ``from x import clock``
_WALL_CLOCK_SUFFIXES = ("_ms", "_us", "_seconds", "duration")

#: Names an ``assert`` may mention although they look like wall-clock
#: readings: each is *simulated* time, deterministic on any host.
SIMULATED_TIME_NAMES = {
    # HadoopJob.run() on the fluid flow simulator: compute seconds plus
    # bytes / simulated rate (benchmarks/test_hadoop_guarantees.py).
    "completion_seconds",
}


def test_no_bare_perf_counter_outside_telemetry():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "telemetry":
            continue
        if "time.perf_counter" in path.read_text(encoding="utf-8"):
            offenders.append(str(relative))
    assert not offenders, (
        "bare time.perf_counter() found (use repro.telemetry.clock() or an "
        "injected Telemetry clock): %s" % ", ".join(offenders)
    )


def _figure_trees():
    for directory in FIGURE_DIRS:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names_in(expression):
    """Every identifier, attribute name and string subscript key under a node."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _is_wall_clock_name(name):
    if name in SIMULATED_TIME_NAMES:
        return False
    return name.endswith(_WALL_CLOCK_SUFFIXES) or "speedup" in name


def _report(offenders, message):
    assert not offenders, message + ":\n  " + "\n  ".join(offenders)


def test_figure_scripts_read_no_clock():
    offenders = []
    for path, tree in _figure_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in _CLOCK_ATTRIBUTES
            ):
                offenders.append(f"{path}:{node.lineno}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in _CLOCK_IMPORTS or (node.module, alias.name) == (
                        "time",
                        "time",
                    ):
                        offenders.append(
                            f"{path}:{node.lineno}: from {node.module} import {alias.name}"
                        )
    _report(
        offenders,
        "clock read under benchmarks/ or repro/experiments (print what the "
        "program measured — result.statistics, one telemetry.span — and "
        "leave timing to bench/)",
    )


def test_figure_scripts_do_not_use_the_benchmark_fixture():
    offenders = [
        f"{path}:{node.lineno}: {node.name}(benchmark)"
        for path, tree in _figure_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            argument.arg == "benchmark"
            for argument in node.args.args + node.args.kwonlyargs
        )
    ]
    _report(
        offenders,
        "pytest-benchmark fixture under benchmarks/ (a one-round pedantic "
        "wrapper is a third stopwatch around what statistics already time)",
    )


def test_figure_scripts_assert_no_wall_clock_reading():
    offenders = []
    for path, tree in _figure_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            names = sorted(set(filter(_is_wall_clock_name, _names_in(node.test))))
            if names:
                offenders.append(f"{path}:{node.lineno}: assert on {', '.join(names)}")
    _report(
        offenders,
        "wall-clock name inside an assert under benchmarks/ or "
        "repro/experiments (assert the count the timing stood for; simulated "
        "time goes in SIMULATED_TIME_NAMES with its reason)",
    )
