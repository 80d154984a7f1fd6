"""Repo lint: all timing goes through the injectable telemetry clock.

A bare ``time.perf_counter()`` anywhere in ``src/repro`` outside the
telemetry package itself would dodge clock injection — spans and derived
statistics would disagree under a fake clock, and the overhead benchmark
would measure the wrong thing.  ``make lint-clock`` runs this file.
"""

from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


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
