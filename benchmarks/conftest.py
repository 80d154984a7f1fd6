"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one table or figure from the paper's
evaluation (§6).  Benchmarks run at a reduced default scale so the whole
suite finishes in a few minutes; set ``MERLIN_BENCH_SCALE=full`` to run the
paper-sized versions (hours, mostly in the MIP solver and the large
verification sweeps).

Every benchmark prints the rows/series it measured and also writes them to
``.bench_out/results/<name>.txt`` at the repository root (ignored by git:
the numbers are wall-clock readings of one run, so a test run must not leave
a diff behind).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent.parent / ".bench_out" / "results"


def bench_scale() -> str:
    """The requested benchmark scale: ``"quick"`` (default) or ``"full"``."""
    return os.environ.get("MERLIN_BENCH_SCALE", "quick").lower()


def is_full_scale() -> bool:
    return bench_scale() == "full"


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
