"""Repo lint: no process pool anywhere under ``src/repro``.

Components are solved one after another in the calling process.  A
``ProcessPoolExecutor`` or a ``multiprocessing`` pool would bring back
the path that pickled each component's form to a worker and shipped its
span back — about what a component solve costs, and no workload gained
from it.  ``make lint-pool`` runs this file.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def test_no_process_pool_anywhere():
    banned = re.compile(r"ProcessPoolExecutor|\bmultiprocessing\b")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if banned.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, (
        "a process pool is back under src/repro (components solve in the "
        "calling process): %s" % ", ".join(offenders)
    )
