"""Shared configuration for the figure scripts.

Each module regenerates one table or figure from the paper's evaluation
(§6) and asserts the *facts* behind its shape: counts and structure that
repeat exactly on any machine (solver calls, cache hits, journal entries,
MIP variables, automaton states, simulated seconds).  The
latency columns are printed and never asserted; they are read from what the
program already measures — ``result.statistics`` /
``CompilationStatistics.as_row()``, or the ``.duration`` of one
``telemetry.span`` around a call that returns no statistics.  Nothing under
``benchmarks/`` reads a clock (``tests/telemetry/test_clock_lint.py``);
timing that judges anything belongs to ``bench/``.

The scripts run at a reduced default scale so the whole suite finishes in
well under a minute; set ``MERLIN_BENCH_SCALE=full`` to run the paper-sized
versions (hours, mostly in the MIP solver and the large verification
sweeps).

Every script prints its rows/series and also writes them to
``.bench_out/results/<name>.txt`` at the repository root (ignored by git:
the latency columns are readings of one run, so a test run must not leave a
diff behind).
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Mapping, Sequence

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent.parent / ".bench_out" / "results"


def bench_scale() -> str:
    """The requested benchmark scale: ``"quick"`` (default) or ``"full"``."""
    return os.environ.get("MERLIN_BENCH_SCALE", "quick").lower()


def is_full_scale() -> bool:
    return bench_scale() == "full"


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render rows of dictionaries as an aligned text table."""
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = [str(column) for column in columns]
    body = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[i].rjust(widths[i]) for i in range(len(columns))))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in body:
        lines.append("  ".join(line[i].rjust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_series(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
    title: str = "",
    max_points: int = 20,
) -> str:
    """Render one or more y-series against a shared x-axis as a text table.

    Long series are downsampled to ``max_points`` evenly spaced samples,
    first and last included, so the output stays readable.
    """
    n = len(xs)
    if n == 0:
        return title
    if n > max_points:
        gaps = max(1, max_points - 1)
        indices = [i * (n - 1) // gaps for i in range(max_points)]
    else:
        indices = list(range(n))
    rows = []
    for index in indices:
        row: Dict[str, object] = {x_label: xs[index]}
        for name, values in series.items():
            row[name] = values[index] if index < len(values) else ""
        rows.append(row)
    return format_table(rows, [x_label, *series.keys()], title=title)


@pytest.fixture
def report():
    """A callable that prints a report block and persists it under ``RESULTS_DIR``."""

    def _report(name: str, text: str) -> None:
        banner = f"\n=== {name} ===\n{text}\n"
        print(banner)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        with open(RESULTS_DIR / f"{name}.txt", "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    return _report
