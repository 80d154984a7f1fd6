PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test check loc alloc-digest alloc-digest-seeds lint-clock lint-pool lint-automaton lint-pipeline lint-reach lint-imports bench bench-full bench-repo bench-smoke bench-reprovision bench-churn bench-checkpoint bench-portfolio bench-telemetry bench-fabric

# Tier-1 verification: the full unit + benchmark suite at quick scale.
test:
	$(PYTEST) -x -q

# CI gate: tier-1, a byte-compile of the whole source tree (catches
# syntax errors in modules the suite does not import) and the allocation
# digest under three hash seeds (alloc-digest-seeds, below).  Tier-1
# already collects every lint file and every figure script under
# benchmarks/, so each test runs exactly once here; the lint-* and bench-*
# targets below run one of them alone.
check:
	$(PYTEST) -x -q
	python -m compileall -q src
	$(MAKE) alloc-digest-seeds

# The line count ROADMAP aim 2 tracks: every line of every tracked Python
# file under src/repro (docstrings and comments included), so the number
# has one definition.
loc:
	@git ls-files 'src/repro/*.py' | xargs cat | wc -l

# One hash per compile of a fixed policy set (tests/alloc_digest.py), printed
# as "<case> <digest>" lines: a change that must leave allocations alone
# prints what its parent prints, under any PYTHONHASHSEED.
alloc-digest:
	PYTHONPATH=src python -m tests.alloc_digest

# The digest under PYTHONHASHSEED 0, 1 and 2, written to
# .bench_out/alloc-digest-<seed>.txt: fails unless the three files are
# identical.  With PARENT=<file> (a parent's printed digest) it then
# compares the seed-0 file against that one, column by column, and fails
# if any line changed.
alloc-digest-seeds:
	mkdir -p .bench_out
	for seed in 0 1 2; do \
		PYTHONPATH=src PYTHONHASHSEED=$$seed python -m tests.alloc_digest \
			> .bench_out/alloc-digest-$$seed.txt || exit 1; \
	done
	cmp .bench_out/alloc-digest-0.txt .bench_out/alloc-digest-1.txt
	cmp .bench_out/alloc-digest-0.txt .bench_out/alloc-digest-2.txt
	$(if $(PARENT),PYTHONPATH=src python -m tests.alloc_digest --compare $(PARENT) .bench_out/alloc-digest-0.txt)

# The repo lints, each written once, as a pytest file (so tier-1 runs them
# too): all timing flows through the injectable telemetry clock and nothing
# under benchmarks/ or repro/experiments reads one or asserts on a
# wall-clock reading; no process pool exists under src/repro; every
# automaton comes out of the store in repro/regex/operations.py; there is
# one way into the solver, one grammar, and the machinery and options
# earlier PRs deleted stay deleted; and every function, class and method
# under src/repro is reached, by name, from examples/, benchmarks/, bench/
# or a module a recipe here runs (tests/ is not an entry point); and every
# import under src/repro outside a package __init__ binds a name its module
# reads.
lint-clock:
	$(PYTEST) -q tests/telemetry/test_clock_lint.py

lint-pool:
	$(PYTEST) -q tests/fabric/test_pool_lint.py

lint-automaton:
	$(PYTEST) -q tests/telemetry/test_automaton_lint.py

lint-pipeline:
	$(PYTEST) -q tests/fabric/test_pipeline_lint.py

lint-reach:
	$(PYTEST) -q tests/fabric/test_reachability_lint.py

lint-imports:
	$(PYTEST) -q tests/fabric/test_import_lint.py

# Every figure script at the quick scale (bench-full: at paper scale).  Each
# asserts counts and structure; its latency columns are printed from the
# program's own statistics and spans, never asserted (timing that judges
# anything is bench-repo's).  Every report block lands in
# .bench_out/results/<name>.txt (ignored by git).
bench:
	$(PYTEST) -q benchmarks

# Every figure script at the paper's scale (MERLIN_BENCH_SCALE=full), with the
# same assertions; Figure 9 goes up to a 1 007-node path expression.  Far
# slower than tier-1, so not part of check.  Figure 8 at full scale does not
# yet fit in 8 GB of memory (ROADMAP item 4), so no complete run is recorded.
bench-full:
	MERLIN_BENCH_SCALE=full $(PYTEST) -q benchmarks

# The repository benchmark of BENCHMARK.json (bench/README.md): every
# workload untraced and traced, each in a fresh process, metrics printed
# by name and recorded in .bench_out/seed1.json for bench/compare.py.
bench-repo:
	python3 bench/run.py --seed 1

# Fast smoke: the smallest Figure 8 scaling point, one incremental
# re-provisioning round trip, the footprint-tightening partition guard
# (the pod-tenant workload plus one `.*` statement must keep >= one MIP
# component per tenant), the seeded churn replay, the checkpoint-scale
# journal counts, the backend ablation and the telemetry disabled-path
# contract.
bench-smoke:
	$(PYTEST) -q benchmarks/test_fig8_scaling.py::test_fig8_smallest_point_smoke \
		benchmarks/test_fig10b_reprovisioning.py::test_reprovision_smoke \
		benchmarks/test_fig10b_reprovisioning.py::test_footprint_partitioning_smoke \
		benchmarks/test_churn.py \
		benchmarks/test_checkpoint_scale.py \
		benchmarks/test_ablation_design_choices.py::test_ablation_portfolio \
		benchmarks/test_telemetry_overhead.py

# Figure 10b': incremental re-provisioning vs full recompiles — a
# d-statement delta makes d solver calls, the full compile one per
# component (writes .bench_out/results/fig10b_reprovisioning.txt).
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
# snapshots at 1k vs 100k statements — a mark journals nothing and a
# transaction journals the same entries at both populations — plus a
# join/leave/renegotiation stream sustained at the large population, one
# transaction per event (writes .bench_out/results/checkpoint_scale.txt;
# pinned seed).
# MERLIN_BENCH_SCALE=full raises the large population to 250k.
bench-checkpoint:
	$(PYTEST) -q benchmarks/test_checkpoint_scale.py

# Telemetry overhead guard: a disabled (default) span is two clock reads
# and a pooled object, and the Figure-8 smoke compile opens a pinned
# number of them; the share of the compile's wall time is printed
# (writes .bench_out/results/telemetry_overhead.txt).
bench-telemetry:
	$(PYTEST) -q benchmarks/test_telemetry_overhead.py

# Content-cache guard: on the pod-tenant workload, a warm-cache re-sweep
# makes zero solver calls with byte-identical allocations (every
# component served from the content-addressed cache)
# (writes .bench_out/results/fabric.txt).
bench-fabric:
	$(PYTEST) -q benchmarks/test_fabric.py
