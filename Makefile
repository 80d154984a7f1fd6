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

# All timing must flow through the injectable telemetry clock: a bare
# time.perf_counter() anywhere in src/repro outside the telemetry package
# dodges clock injection (tests/telemetry/test_clock_lint.py enforces the
# same rule under pytest).
lint-clock:
	@if grep -rn "time\.perf_counter" src/repro --include="*.py" | grep -v "^src/repro/telemetry/"; then \
		echo "bare time.perf_counter() found; use repro.telemetry.clock()"; \
		exit 1; \
	fi

# Component solves must run on the persistent solve fabric: a bare
# ProcessPoolExecutor anywhere in src/repro outside repro/fabric/
# reintroduces per-call worker spin-up and dodges the fabric's crash
# containment (tests/fabric/test_pool_lint.py enforces the same rule
# under pytest).
lint-pool:
	@if grep -rn "ProcessPoolExecutor(" src/repro --include="*.py" | grep -v "^src/repro/fabric/"; then \
		echo "bare ProcessPoolExecutor construction found; use repro.fabric.SolveFabric"; \
		exit 1; \
	fi

# Every automaton comes out of the store in repro/regex/operations.py:
# a DFA.from_nfa( or NFA.from_regex( anywhere in src/repro outside
# repro/regex/ is an uncached compile, and an lru_cache in core/logical.py
# is a second, private automaton cache (tests/telemetry/test_automaton_lint.py
# enforces the same rule under pytest).
lint-automaton:
	@if grep -rn "DFA\.from_nfa(\|NFA\.from_regex(" src/repro --include="*.py" | grep -v "^src/repro/regex/"; then \
		echo "automaton built outside repro/regex; use repro.regex.operations.compile_dfa"; \
		exit 1; \
	fi
	@if grep -n "lru_cache" src/repro/core/logical.py; then \
		echo "private cache in core/logical.py; automata are memoised by repro.regex.operations"; \
		exit 1; \
	fi

# One provisioning pipeline: the widening solve loop is entered from the
# incremental engine's resolve() and nowhere else (compile, recompile and
# provision() all go through the engine); the legacy-keyword shim and the
# copying checkpoint stay deleted; and a transaction stays one journal
# mark over one record dict and one memo — no token classes, no second
# tighten cache, no process-wide pool, no memo-size knob; a delta is
# judged by the mutators that apply it (no validation pass ahead of the
# transaction), partition=False is a component of the one solve loop, and
# no model outlives a solve, so nothing splices rows in or out of one
# (tests/fabric/test_pipeline_lint.py enforces the same rules under pytest).
lint-pipeline:
	@if grep -rn "solve_components_with_widening(" src/repro --include="*.py" \
		| grep -v "^src/repro/incremental/engine.py:" \
		| grep -v "^src/repro/incremental/solve.py:[0-9]*:def "; then \
		echo "second entry into the solver; go through IncrementalProvisioner.resolve()"; \
		exit 1; \
	fi
	@if grep -rn "coalesce_options\|_UNSET\|EngineCheckpoint\|EngineMark\|_SessionToken\|tighten_cache\|base_tightened\|shared_fabric\|cache_limit" src/repro --include="*.py"; then \
		echo "deleted machinery is back: options travel as ProvisionOptions (pool = options.fabric, memo bound = SOLUTION_MEMO_LIMIT), a transaction is one JournalMark, tightened views live on StatementRecord"; \
		exit 1; \
	fi
	@if grep -rn "_validate_delta\|_check_provisionable\|solve_monolithic\|solve_live\|live_materializations\|_materialize_live\|remove_constraint\|remove_variable\|remove_term" src/repro --include="*.py"; then \
		echo "deleted machinery is back: the session's mutators are the only validators (the journal rolls a refused delta back), partition=False is one canonical component of the solve loop, no model outlives a solve"; \
		exit 1; \
	fi

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

# Solver-portfolio ablation: every registered backend name on the smoke
# fat-tree workload (auto must stay within 1.25x of the best fixed
# backend) plus the anytime demo — the primal heuristic's simulator-
# verified allocation, found without a branch-and-bound node and within
# 0.25 of the utilisation the exact solve proves optimal (both latencies
# are reported, neither is asserted).
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
