"""The repository benchmark: one command, every metric by name.

Driver form (one workload, one pass; the last stdout line is the result)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Local form (every workload, untraced then traced, each in a fresh process;
prints a table, adds ``trace_overhead_share``, writes a JSON record)::

    python3 bench/run.py --seed 1 [--workload NAME] [--repeat R] [--ops N] [--out FILE]

See ``README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time includes the imports below

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups per untraced run (two extra processes, then this one): the
#: median is reported as ``setup_s``.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Tracer counters reported per op as ``<counter>_per_op``, with their units.
PER_OP_COUNTERS = {
    "core.parser.source_kb": "kB",
    "core.logical.build.edges": "count",
    "incremental.partition.components": "count",
    "core.provisioning.build_model.variables": "count",
    "core.provisioning.build_model.constraints": "count",
    "incremental.solve.slack_retries": "count",
    "incremental.engine.dirty_components": "count",
}
#: Numbers a workload computes itself (``Outcome.extras``), with their units.
WORKLOAD_EXTRAS = {
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p95_ms": "ms",
    "service.deltas_per_batch": "count",
    "alloc.max_utilization": "share",
    "alloc.instructions": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced pass emits, with its unit."""
    from trace import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.calls_per_op"] = "count"
    units["root_ms_per_op"] = "ms"
    units["unattributed_share"] = "share"
    units.update({f"{counter}_per_op": unit for counter, unit in PER_OP_COUNTERS.items()})
    units["codegen.instructions_per_call"] = "count"
    units["fabric.cache.hit_ratio"] = "share"
    units.update(WORKLOAD_EXTRAS)
    units["traced.op_p50_ms"] = "ms"
    units["traced.op_p99_ms"] = "ms"
    units["trace.spans_per_op"] = "count"
    units["trace.unresolved"] = "count"
    return units


def say(text: str) -> None:
    print(text, flush=True)


def import_program() -> None:
    """Put the repository's ``src`` on the path; fail fast if it is absent."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"bench/run.py: no program to measure: {source}/repro is missing")
    sys.path.insert(0, source)


def setup_in_fresh_process(args) -> float:
    """Run this file with ``--setup-only``; it prints its set-up seconds."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end_metrics(setups, outcome, latencies_ms, cpus_ms, tail: int, peak_rss_mb: float) -> Dict[str, float]:
    """Every timing handed in is already at reference speed (``reference.py``)."""
    from stats import percentile

    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_tail_ms": percentile(latencies_ms, tail),
        "ops_per_s": (outcome.attempted - outcome.failed) * 1e3 / sum(latencies_ms) if outcome.timed_s else 0.0,
        "cpu_ms_per_op": sum(cpus_ms) / len(cpus_ms),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(units, tracer, outcome, latencies_ms, problems: List[str]) -> Dict[str, float]:
    """Fold the tracer's spans and counters into one number per metric name;
    a metric nothing contributed to reads 0."""
    from stats import percentile
    from trace import summarize

    metrics = dict.fromkeys(units, 0.0)
    ops = max(1, outcome.attempted)
    summary = summarize(tracer.spans)
    roots = summary.pop("__root__")
    for layer, entry in summary.items():
        metrics[f"{layer}.self_ms_per_op"] = entry["self_s"] * 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = entry["calls"] / ops
    metrics["root_ms_per_op"] = roots["total_s"] * 1e3 / ops
    if roots["total_s"]:
        metrics["unattributed_share"] = roots["self_s"] / roots["total_s"]
        if abs(roots["attributed_s"] - roots["total_s"]) > 0.01 * roots["total_s"]:
            problems.append("layer self times do not sum to the root spans within 1%")
    counts = tracer.counts
    for counter in PER_OP_COUNTERS:
        metrics[f"{counter}_per_op"] = counts[counter] / ops
    if "codegen" in summary:
        metrics["codegen.instructions_per_call"] = (
            counts["codegen.instructions"] / summary["codegen"]["calls"]
        )
    if counts["fabric.cache.lookups"]:
        metrics["fabric.cache.hit_ratio"] = counts["fabric.cache.hits"] / counts["fabric.cache.lookups"]
    for name in WORKLOAD_EXTRAS:
        metrics[name] = outcome.extras.get(name, 0.0)
    metrics["traced.op_p50_ms"] = percentile(latencies_ms, 50)
    metrics["traced.op_p99_ms"] = percentile(latencies_ms, 99)
    metrics["trace.spans_per_op"] = len(tracer.spans) / ops
    metrics["trace.unresolved"] = len(tracer.unresolved) + len(tracer.broken_hooks)
    return metrics


def run_one(args) -> int:
    """Driver form: set up, measure, check, print the result line."""
    import_program()
    from reference import at_reference_speed, slowdown_now
    from stats import supported_percentile
    from trace import Tracer
    from workloads import WORKLOADS, Budget

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    traced = args.trace == 1
    setups: List[float] = []
    if not traced and not args.setup_only:
        setups = [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    tracer = Tracer() if traced else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    # The loop is timed half way through set-up (the imports are done) and at its end.
    half_way = slowdown_now()
    workload.setup()
    elapsed = time.perf_counter() - _PROCESS_START
    setups.append(elapsed / statistics.mean((half_way, slowdown_now())))
    if args.setup_only:
        workload.close()
        say(repr(setups[-1]))
        return 0

    if tracer is not None:
        tracer.install()
    try:
        outcome = workload.measure(Budget(args.seconds, args.ops))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.close()

    problems = list(outcome.problems)
    if not outcome.latencies:
        problems.append("no op completed")
        outcome.latencies, outcome.cpus = [0.0], [0.0]
    walls, busy = at_reference_speed(outcome.reference, outcome.latencies, outcome.cpus)
    slowdown = outcome.timed_s / sum(walls) if outcome.timed_s else 1.0
    latencies_ms = [value * 1e3 for value in walls]
    cpus_ms = [value * 1e3 for value in busy]
    if traced:
        units = per_layer_units()
        metrics = per_layer_metrics(units, tracer, outcome, latencies_ms, problems)
        for label in tracer.unresolved:
            say(f"trace.unresolved: {label}")
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    else:
        units = END_TO_END
        metrics = end_to_end_metrics(setups, outcome, latencies_ms, cpus_ms, workload.tail, peak_rss_mb)

    say(f"workload {workload.name} seed {args.seed} inputs sha256:{workload.digest} "
        f"ops {outcome.attempted} (tail = p{workload.tail}) "
        f"reference loop at {slowdown:.2f}x its quiet time")
    for name, value in metrics.items():
        if value or not traced:
            say(f"  {name:<52} {value:>14.4f} {units[name]}")
    if workload.tail > supported_percentile(len(latencies_ms)):
        say(f"note: p{workload.tail} has fewer than ten of {len(latencies_ms)} samples beyond it")
    for problem in problems[:10]:
        say(f"PROBLEM: {problem}")
    # The solver prints from C now and then; flush its buffer so that nothing
    # it wrote can land after the result line.
    ctypes.CDLL(None).fflush(None)
    say(json.dumps({
        "correct": not problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Local form: each workload, untraced then traced, in fresh processes."""
    import_program()
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    record = {"seconds": seconds, "ops": args.ops, "runs": []}
    status = 0
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            run: Dict[str, object] = {"workload": name, "seed": seed}
            for trace in (0, 1):
                command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                if args.ops is not None:
                    command += ["--ops", str(args.ops)]
                done = subprocess.run(command, capture_output=True, text=True, timeout=900)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    return done.returncode
                *report, result = done.stdout.strip().splitlines()
                say("\n".join(report))
                run["traced" if trace else "untraced"] = json.loads(result)
                if not run["traced" if trace else "untraced"]["correct"]:
                    status = 1
            plain = run["untraced"]["metrics"]["op_p50_ms"]["value"]
            traced = run["traced"]["metrics"]["traced.op_p50_ms"]["value"]
            run["trace_overhead_share"] = (traced - plain) / plain if plain else 0.0
            say(f"  {'trace_overhead_share':<52} {run['trace_overhead_share']:>14.4f} share")
            record["runs"].append(run)
    out = args.out or os.path.join(ROOT, ".bench_out", f"seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    say(f"wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead of for --seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="local form: run seeds SEED..SEED+REPEAT-1")
    parser.add_argument("--out", help="local form: where to write the JSON record")
    parser.add_argument("--spans", help="traced pass: write every span to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return run_one(args)
    if args.workload and args.trace is not None:
        if args.seconds is None:
            parser.error("--seconds is required with --trace")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
