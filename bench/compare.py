"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the candidate.  Each file is a record written by
``bench/run.py`` in its local form, holding one or more runs per workload
(``--repeat``).  One row is printed per (workload, end-to-end metric) with
both medians and the ratio ``B/A`` with its base.  A metric is

* ``regression``  when B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for it (or when more ops failed);
* ``unresolved``  when the spread across either file's repeated runs is
  wider than the bound — unless every run of B reads better than every run
  of A, which is ``better``;
* ``better`` / ``unchanged`` otherwise.

Exits non-zero on any regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from stats import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_spread(values: Sequence[float]) -> float:
    """Quartile distance over the median with four runs or more, the full
    range over the median with two or three, zero for a single run."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) >= 4:
        return spread(values)
    return (max(values) - min(values)) / abs(median)


def verdict(
    base: Sequence[float], candidate: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(``status``, ratio of medians B/A) for one metric on one workload."""
    a, b = statistics.median(base), statistics.median(candidate)
    ratio = b / a if a else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    every_run_better = all(sign * (y - x) < 0 for x in base for y in candidate)
    if max(run_spread(base), run_spread(candidate)) > bound and not every_run_better:
        return "unresolved", ratio
    if worse_by > bound:
        return "regression", ratio
    if every_run_better or worse_by < -bound:
        return "better", ratio
    return "unchanged", ratio


def runs_by_workload(record: Dict, which: str = "untraced") -> Dict[str, List[Dict]]:
    grouped: Dict[str, List[Dict]] = {}
    for run in record["runs"]:
        grouped.setdefault(run["workload"], []).append({**run[which], "seed": run["seed"]})
    return grouped


def exact_rows(workload: str, base: List[Dict], candidate: List[Dict]) -> Tuple[List[str], bool]:
    """Allocation quality repeats exactly for one seed: compare it seed by seed.

    A rise of the maximum link utilisation is a regression; the instruction
    count is reported as ``same`` or ``changed``.
    """
    rows, regressed = [], False
    theirs = {run["seed"]: run["metrics"] for run in candidate}
    pairs = [(run["metrics"], theirs[run["seed"]]) for run in base if run["seed"] in theirs]
    for name, rise_is_regression in (("alloc.max_utilization", True), ("alloc.instructions", False)):
        if not pairs:
            continue
        a = [mine[name]["value"] for mine, _ in pairs]
        b = [other[name]["value"] for _, other in pairs]
        status = "same" if a == b else "changed"
        if rise_is_regression and any(y > x + 1e-9 for x, y in zip(a, b)):
            status, regressed = "regression", True
        rows.append(
            f"{workload:<24}{name:<24}{sum(a) / len(a):>12.4f}{sum(b) / len(b):>12.4f}"
            f"  over {len(pairs)} shared seed(s)  {status}"
        )
    return rows, regressed


def failed_share(runs: List[Dict]) -> float:
    return sum(run["failed"] / run["attempted"] for run in runs) / len(runs)


def compare(base: Dict, candidate: Dict, manifest: Dict) -> Tuple[List[str], bool]:
    """Table rows and whether any metric regressed."""
    rows = [f"{'workload':<24}{'metric':<24}{'A':>12}{'B':>12}  B/A (base A)      status"]
    regressed = False
    ours, theirs = runs_by_workload(base), runs_by_workload(candidate)
    traced_ours, traced_theirs = runs_by_workload(base, "traced"), runs_by_workload(candidate, "traced")
    for workload in ours:
        if workload not in theirs:
            rows.append(f"{workload:<24}missing from B")
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in ours[workload]]
            b = [run["metrics"][name]["value"] for run in theirs[workload]]
            status, ratio = verdict(a, b, metric["better"], metric["bound"])
            regressed = regressed or status == "regression"
            unit = metric["unit"]
            rows.append(
                f"{workload:<24}{name:<24}{statistics.median(a):>12.4f}{statistics.median(b):>12.4f}"
                f"  {ratio:6.3f} of {statistics.median(a):.4g} {unit:<5} {status}"
            )
        failed_a, failed_b = failed_share(ours[workload]), failed_share(theirs[workload])
        incorrect = any(not run["correct"] for run in theirs[workload])
        status = "regression" if failed_b > failed_a or incorrect else "unchanged"
        regressed = regressed or status == "regression"
        rows.append(f"{workload:<24}{'failed_share':<24}{failed_a:>12.4f}{failed_b:>12.4f}  {'':<24} {status}")
        exact, worse = exact_rows(workload, traced_ours[workload], traced_theirs.get(workload, []))
        rows.extend(exact)
        regressed = regressed or worse
    return rows, regressed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        candidate = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    rows, regressed = compare(base, candidate, manifest)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
