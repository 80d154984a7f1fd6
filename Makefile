PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test check lint-clock lint-pool lint-automaton lint-pipeline bench bench-repo bench-smoke bench-reprovision bench-churn bench-checkpoint bench-portfolio bench-telemetry bench-fabric

# Tier-1 verification: the full unit + benchmark suite at quick scale.
test:
	$(PYTEST) -x -q

# CI gate: tier-1 tests plus a byte-compile of the whole source tree
# (catches syntax errors in modules the suite does not import), the
# telemetry clock, process-pool, automaton and pipeline lints, the
# disabled-overhead guard,
# the seeded churn replay (zero session invalidations under failures),
# and the checkpoint-scale guard (per-delta checkpoint cost stays
# O(delta) between the 1k and 100k statement populations).
check: lint-clock lint-pool lint-automaton lint-pipeline
	$(PYTEST) -x -q
	python -m compileall -q src
	$(PYTEST) -q benchmarks/test_telemetry_overhead.py
	$(PYTEST) -q benchmarks/test_churn.py benchmarks/test_checkpoint_scale.py
	$(PYTEST) -q benchmarks/test_ablation_design_choices.py -k "portfolio"

# The repo lints, each written once, as a pytest file (so tier-1 runs them
# too): all timing flows through the injectable telemetry clock; the solve
# fabric is the only process pool; every automaton comes out of the store
# in repro/regex/operations.py; there is one way into the solver, one
# grammar, and the machinery and options earlier PRs deleted stay deleted.
lint-clock:
	$(PYTEST) -q tests/telemetry/test_clock_lint.py

lint-pool:
	$(PYTEST) -q tests/fabric/test_pool_lint.py

lint-automaton:
	$(PYTEST) -q tests/telemetry/test_automaton_lint.py

lint-pipeline:
	$(PYTEST) -q tests/fabric/test_pipeline_lint.py

# The full benchmark suite (set MERLIN_BENCH_SCALE=full for paper scale).
# Every report block lands in .bench_out/results/<name>.txt (ignored by git).
bench:
	$(PYTEST) -q benchmarks

# The repository benchmark of BENCHMARK.json (bench/README.md): every
# workload untraced and traced, each in a fresh process, metrics printed
# by name and recorded in .bench_out/seed1.json for bench/compare.py.
bench-repo:
	python3 bench/run.py --seed 1

# Fast smoke: the smallest Figure 8 scaling point, one incremental
# re-provisioning round trip, the footprint-tightening partition guard
# (the pod-tenant workload plus one `.*` statement must keep >= one MIP
# component per tenant), the seeded churn replay, and the telemetry
# disabled-path overhead guard.
bench-smoke:
	$(PYTEST) -q benchmarks/test_fig8_scaling.py::test_fig8_smallest_point_smoke \
		benchmarks/test_fig10b_reprovisioning.py::test_reprovision_smoke \
		benchmarks/test_fig10b_reprovisioning.py::test_footprint_partitioning_smoke \
		benchmarks/test_churn.py \
		benchmarks/test_checkpoint_scale.py \
		benchmarks/test_ablation_design_choices.py::test_ablation_portfolio \
		benchmarks/test_telemetry_overhead.py

# Figure 10b': incremental re-provisioning latency vs full recompiles
# (writes .bench_out/results/fig10b_reprovisioning.txt).
bench-reprovision:
	$(PYTEST) -q benchmarks/test_fig10b_reprovisioning.py

# Churn & failure scenario replay: a seeded 200-event stream on the
# arity-4 fat tree replayed against one transactional session, asserting
# zero invalidations and slack-widening recovery of every cost-bound
# infeasibility (writes .bench_out/results/churn_replay.txt).
# MERLIN_BENCH_SCALE=full runs the 500-event arity-6 stream.
bench-churn:
	$(PYTEST) -q benchmarks/test_churn.py

# Solver-backend ablation: every name in repro.lp.BACKENDS on the smoke
# fat-tree workload (all feasible, the exact ones equal, the heuristic
# within 0.25 of them) plus the anytime demo — the primal heuristic's
# simulator-verified allocation, found without a branch-and-bound node and
# within 0.25 of the utilisation the exact solve proves optimal.  Latencies
# are reported in both tables and asserted in neither.
bench-portfolio:
	$(PYTEST) -q benchmarks/test_ablation_design_choices.py -k "portfolio"

# Checkpoint cost at scale: undo-journal marks vs legacy copying
# snapshots at 1k vs 100k statements, plus a join/leave/renegotiation
# stream sustained at the large population, one transaction per event
# (writes .bench_out/results/checkpoint_scale.txt; pinned seed).
# MERLIN_BENCH_SCALE=full raises the large population to 250k.
bench-checkpoint:
	$(PYTEST) -q benchmarks/test_checkpoint_scale.py

# Telemetry overhead guard: the disabled (default) recorder's per-span
# cost, measured on the Figure-8 smoke point, must stay under 2% of the
# compile wall time (writes .bench_out/results/telemetry_overhead.txt).
bench-telemetry:
	$(PYTEST) -q benchmarks/test_telemetry_overhead.py

# Solve-fabric guard: on the pod-tenant workload, a warm-cache re-sweep
# must be >= 3x faster than the cold sweep with byte-identical
# allocations (every component served from the content-addressed cache),
# and reusing one persistent SolveFabric across calls must beat per-call
# pool spin-up (writes .bench_out/results/fabric.txt).
bench-fabric:
	$(PYTEST) -q benchmarks/test_fabric.py
