"""Repo lint: every process pool is the solve fabric's pool.

A bare ``ProcessPoolExecutor(...)`` anywhere in ``src/repro`` outside
:mod:`repro.fabric` would reintroduce per-call worker spin-up — the exact
overhead the fabric exists to amortize — and would dodge its crash
containment and counters.  ``make lint-pool`` runs this file.
"""

from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def test_no_bare_process_pool_outside_fabric():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "fabric":
            continue
        if "ProcessPoolExecutor(" in path.read_text(encoding="utf-8"):
            offenders.append(str(relative))
    assert not offenders, (
        "bare ProcessPoolExecutor construction found (route solves through "
        "repro.fabric.SolveFabric): %s" % ", ".join(offenders)
    )
