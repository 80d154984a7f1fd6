"""Repo lint: one way into the solver, no keyword shims.

``compile()`` and ``recompile()`` both provision through
``IncrementalProvisioner.resolve()``, the only caller of
``solve_components_with_widening``; a second call site anywhere in
``src/repro`` is a second provisioning pipeline.  The legacy-keyword shim
(``coalesce_options`` / ``_UNSET``) and the copying ``EngineCheckpoint``
were deleted with the second pipeline and must not come back; neither may
the machinery a transaction needed before record tokens stopped being
re-issued (mark classes carrying a cache copy, a tighten cache beside the
records) nor the two knobs that had one value in use (the process-wide
pool, the memo size).  A delta is judged where it is applied and every
model is a component model: the pre-validation pass, the undecomposed
solve beside the component loop, the engine's live model and the
row-splice API written for it stay deleted too.

The surface syntax is written once: ``repro.lexer`` holds the only
tokeniser and the only cursor, the predicate and path rules live in
``predicates/parser.py`` and ``regex/parser.py`` and the policy parser calls
them, so a second tokeniser or a private parser class is a second
definition of the language delegation verifies against.  And the options
that had one value in use (speculative duplicates, respawn count, backend
layout, widening switches, a plane-owned fabric, the journal's list
helpers) stay constants or stay gone.  So do the backend nobody here can
import, the portfolio whose first candidate always won, the registry
nobody registered with and the capability flags nobody read: a backend is
one of ``repro.lp.BACKENDS`` or an instance, and HiGHS is entered in one
place, ``lp/scipy_backend.run_highs`` over SciPy's bundled binding (not
the ``highspy`` package, not SciPy's ``milp`` / ``linprog`` wrappers).  And a solve takes a model and
nothing else: the warm-start chain (the engine's incumbent map and its
pruning, the projection, the start gate and capability flag, the
name-keyed values carried on every solution and cache record) made an
exactly tied optimum depend on what the session had solved before, so
none of its names may return.  The provisioning MIP is built as arrays:
no module under ``src/repro`` defines or imports a modelling object (the
object builder and its front end are the tests' reference; ``lp/model.py``
keeps an empty ``Model`` whose ``solve`` raises, for the benchmark
tracer's ``lp`` target), a form always minimises, and the primal heuristic
reads a form through its layout, not through the names the object builder
gave its rows.  Nor may what no caller or workload reached: the
localization split weights (a clause splits equally, §3.1), the memo of
guaranteed product graphs by ``(path, source, destination)`` with its
rebadged views and hit/miss counters, the DNF transforms, and the topology
JSON and networkx exports; ``MerlinCompiler``'s fields are pinned like
``ProvisionOptions``'.  Components are solved in the calling process: the
worker pool, the option that selected it, the fallback for a broken pool
and the shipping of spans between processes stay deleted.  The content
cache is an in-process map of solved components: its spill file, the
sealed JSON record layout with its version, and the encode/decode and
replay code written for that file stay deleted, and so do the error
classes, the tenant removal, the predicate helpers and the result
accessors no caller reached, and the backend fingerprint's read of a
``node_limit`` attribute no backend has.  A product graph is read as its
``(tail, head)`` pairs everywhere but ``core/logical.py``: no
``LogicalEdge`` and no ``.edges`` of a logical topology on the compile
path, and the feasibility test and link-sorting pass nothing reached stay
deleted.  So do the exporters, readers and helpers the reachability lint
(``test_reachability_lint.py``) found no entry point calling, by their
distinctive names: a caller added back would make them reached again.
And the cyclic garbage collector is switched in one place,
``repro/collector.py``, which pauses it for one compile, recompile or
verdict and neither collects nor retunes it.

``make lint-pipeline`` runs this file.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import repro
from repro.core.compiler import MerlinCompiler
from repro.core.options import ProvisionOptions
from repro.fabric import backend_fingerprint

SRC = Path(repro.__file__).resolve().parent


def test_the_widening_loop_is_entered_from_the_engine_only():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts == ("incremental", "engine.py"):
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if "solve_components_with_widening(" in line and not line.startswith(
                "def solve_components_with_widening("
            ):
                offenders.append(str(relative))
    assert not offenders, (
        "second entry into the solver (go through "
        "IncrementalProvisioner.resolve()): %s" % ", ".join(offenders)
    )


def _files_mentioning(banned, root=SRC, glob="*.py"):
    return [
        str(path.relative_to(SRC))
        for path in sorted(root.rglob(glob))
        if banned.search(path.read_text(encoding="utf-8"))
    ]


def test_no_keyword_shim_or_copying_checkpoint():
    banned = re.compile(
        r"coalesce_options|_UNSET|EngineCheckpoint|EngineMark|_SessionToken"
        r"|tighten_cache|base_tightened|shared_fabric|cache_limit"
    )
    offenders = _files_mentioning(banned)
    assert not offenders, (
        "deleted machinery is back (options travel as ProvisionOptions: memo "
        "bound = SOLUTION_MEMO_LIMIT; a transaction is "
        "one JournalMark; tightened views live on StatementRecord): %s"
        % ", ".join(offenders)
    )


def test_no_validation_pass_second_model_path_or_row_splicing():
    banned = re.compile(
        r"_validate_delta|_check_provisionable|solve_monolithic|solve_live"
        r"|live_materializations|_materialize_live|remove_constraint"
        r"|remove_variable|remove_term"
    )
    offenders = _files_mentioning(banned)
    assert not offenders, (
        "deleted machinery is back (the session's mutators are the only "
        "validators and the journal rolls a refused delta back; "
        "partition=False is one canonical component of the solve loop; no "
        "model outlives a solve, so none is edited in place): %s"
        % ", ".join(offenders)
    )


def test_the_surface_syntax_is_written_once():
    banned = re.compile(
        r"tokenize_predicate|tokenize_path_expression|_PredicateParser"
        r"|_PathExpressionParser|_TOKEN_RE"
    )
    offenders = _files_mentioning(banned)
    assert not offenders, (
        "a second tokeniser or a private parser is back (tokens come from "
        "repro.lexer.tokenize, rules are functions over a TokenCursor): %s"
        % ", ".join(offenders)
    )
    assert not (SRC / "core" / "lexer.py").exists(), "the lexer is repro/lexer.py"
    homes = _files_mentioning(
        re.compile(r"^(?:class \w*Token\w*|def tokeni[sz]e\w*\()", re.MULTILINE)
    )
    assert homes == ["lexer.py"], (
        "token classes and tokenise functions live in repro/lexer.py only: %s" % homes
    )
    upward = re.compile(r"^\s*from\s+(?:\.\.core|repro\.core)\b", re.MULTILINE)
    offenders = [
        name for name in _files_mentioning(upward)
        if name.split("/")[0] in ("predicates", "regex") or name == "lexer.py"
    ]
    assert not offenders, (
        "predicates/, regex/ and lexer.py sit below core/ and must not "
        "import upward: %s" % ", ".join(offenders)
    )


def test_options_nobody_set_stay_constants():
    banned = re.compile(
        r"speculate_after_seconds|max_respawns|fabric_workers|_owns_fabric"
        r"|is_sparse|list_append|list_remove"
    )
    offenders = _files_mentioning(banned)
    assert not offenders, (
        "a removed option is back (every component is solved by the options' "
        "backend; MAX_BATCH and the solver gaps are constants; backends "
        "export sparse; there is no pool to own): %s"
        % ", ".join(offenders)
    )
    assert [field.name for field in dataclasses.fields(ProvisionOptions)] == [
        "solver",
        "partition",
        "footprint_slack",
        "time_limit_seconds",
        "node_limit",
        "component_cache",
    ], "ProvisionOptions grew a field (widening is not an option, nor is a pool)"


def test_components_solve_in_the_calling_process():
    banned = re.compile(
        r"SolveFabric|solve_partition_models|_solve_model_payload|BrokenExecutor"
        r"|to_payload|telemetry\.adopt|def adopt\b"
    )
    offenders = _files_mentioning(banned) + _files_mentioning(banned, glob="*.md")
    assert not offenders, (
        "the worker pool or its span shipping is back (the widening loop "
        "hands each model to the options' backend inside a real "
        "component_solve span): %s" % ", ".join(offenders)
    )


def test_what_no_caller_reached_stays_deleted():
    banned = re.compile(
        r"localization_weights|rebadged|logical_memo_|to_dnf|dnf_to_predicate"
        r"|MAX_DNF_TERMS|to_networkx|from_json"
        r"|\b(?:spill_path|SIGNATURE_VERSION|record_is_readable|encode_solution"
        r"|decode_solution|encode_infeasible|_replay_spill|InfeasibleError"
        r"|UnboundedError|remove_tenant|field_test|conjunction_of|path_for"
        r"|rate_for|is_feasible|_sorted_links|to_prometheus|render_trace"
        r"|summarize_trace|read_trace|format_histogram|propose_or_raise"
        r"|VerificationError|statement_state|serialize_events|source_line_count"
        r"|with_statements|with_headers|parse_rate|gbps_value|mb_per_sec_value"
        r"|link_utilisation)\b"
    )
    offenders = _files_mentioning(banned) + _files_mentioning(banned, glob="*.md")
    assert not offenders, (
        "an unreached knob, memo or API is back (localize splits equally; "
        "each guaranteed statement builds its own product graph, counted on "
        "logical_builds; predicates are searched in NNF; the content cache "
        "holds solved components in memory and writes no file; spans and "
        "metrics are read from the recorder and the snapshot, not exported): %s"
        % ", ".join(offenders)
    )
    fingerprint = inspect.getsource(backend_fingerprint)
    assert '"node_limit"' not in fingerprint, (
        "backend_fingerprint reads a node_limit attribute no backend has "
        "(the bnb node bound is max_nodes)"
    )
    assert [field.name for field in dataclasses.fields(MerlinCompiler)] == [
        "topology",
        "placements",
        "heuristic",
        "overlap",
        "add_catch_all",
        "generate_code",
        "options",
        "_session",
    ], "MerlinCompiler grew a field (provisioning knobs go on ProvisionOptions)"


def test_the_compile_path_reads_product_graphs_as_pairs():
    """Outside ``core/logical.py`` a product graph is its ``(tail, head)``
    pairs: a :class:`LogicalEdge` per pair cost ~35 times a tuple, so the
    lazy ``LogicalTopology.edges`` view is for the tests and their
    reference builders only."""
    banned = re.compile(r"\bLogicalEdge\b|(?<!_graph)\.edges\b")
    offenders = [
        name for name in _files_mentioning(banned) if name != "core/logical.py"
    ]
    assert not offenders, (
        "edge objects are back on the compile path (read logical.pairs; a "
        "pair crosses the link between its locations unless it leaves the "
        "source, enters the sink or stays put): %s" % ", ".join(offenders)
    )


def test_the_collector_is_paused_in_one_place():
    """Only ``repro/collector.py`` turns the cyclic garbage collector off and
    on, and it neither collects nor retunes it: a second site could leave
    the collector off for a caller that had it on, and a collection or a
    threshold inside an operation brings back the scans the pause saves."""
    banned = re.compile(
        r"\bgc\.(?:disable|enable|freeze|set_threshold|collect)\b|\bfrom gc import\b"
    )
    offenders = [name for name in _files_mentioning(banned) if name != "collector.py"]
    assert not offenders, (
        "the collector is switched outside repro/collector.py (decorate the "
        "operation with collector_paused): %s" % ", ".join(offenders)
    )
    helper = (SRC / "collector.py").read_text(encoding="utf-8")
    assert sorted(set(banned.findall(helper))) == ["gc.disable", "gc.enable"], (
        "collector_paused only turns the collector off and back on"
    )


def test_three_backends_picked_from_a_table():
    banned = re.compile(
        r"AutoSolver|HighsSolver|highs_available|\bhighspy\b|register_backend"
        r"|_REGISTRY|BackendCapabilities|supports_time_limit"
        r"|supports_node_limit|portfolio_wins"
    )
    offenders = _files_mentioning(banned)
    assert not offenders, (
        "a deleted backend, registry or capability flag is back (choose by a "
        "branch in resolve_backend; a limit is honoured or refused): %s"
        % ", ".join(offenders)
    )
    assert not (SRC / "lp" / "highs_backend.py").exists()


def test_one_entry_point_into_highs():
    """``lp/scipy_backend.run_highs`` hands every form to HiGHS through
    SciPy's bundled binding; SciPy's ``milp`` / ``linprog`` wrappers (their
    per-column loops, no way to set an unlisted option without a warning)
    are not a second way in."""
    banned = re.compile(r"optimize\.(?:milp|linprog)\b|\bimport\s+(?:milp|linprog)\b")
    offenders = _files_mentioning(banned) + _files_mentioning(banned, glob="*.md")
    assert not offenders, (
        "a SciPy LP/MIP wrapper is back under src/ (call "
        "repro.lp.scipy_backend.run_highs): %s" % ", ".join(offenders)
    )


def test_a_solve_takes_a_model_and_nothing_else():
    banned = re.compile(
        r"warm_start|consumes_warm_starts|project_warm_start|_last_values"
        r"|_prune_incumbents|reserve_rows|update_items|_rename_values|\.adopted"
    )
    offenders = _files_mentioning(banned) + _files_mentioning(banned, glob="*.md")
    assert not offenders, (
        "the warm-start chain is back (a component's answer is a function of "
        "its canonical model alone, on every backend; see 'No warm starts' in "
        "incremental/README.md for what must be shown before it returns): %s"
        % ", ".join(offenders)
    )
    carried = re.compile(r"values_by_name")
    offenders = [
        name
        for package in ("incremental", "fabric")
        for name in _files_mentioning(carried, root=SRC / package)
    ]
    assert not offenders, (
        "solver values travel past extract_partition_solution again (paths "
        "and fractions are read out there and the values dropped; a "
        "SolveResult carries the column vector x only): %s" % ", ".join(offenders)
    )


def _is_the_trace_target(relative, node):
    """``lp/model.py``'s ``Model``: a docstring and a ``solve`` that raises."""
    if relative.parts != ("lp", "model.py") or len(node.body) != 2:
        return False
    solve = node.body[1]
    return (
        isinstance(solve, ast.FunctionDef)
        and solve.name == "solve"
        and [type(statement) for statement in solve.body] == [ast.Raise]
    )


def test_the_solve_path_builds_arrays_not_expressions():
    modelling = {"Model", "LinExpr", "Constraint", "Variable", "Sense", "Objective"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                if _is_the_trace_target(relative, node):
                    continue
                names = {node.name}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            if modelling & names:
                offenders.append(f"{relative}:{node.lineno}")
    assert not offenders, (
        "a modelling object is back under src/ (component models are built "
        "as arrays by build_model_for_links; the object builder and its "
        "front end live in tests/ as the reference): %s" % ", ".join(offenders)
    )
    exported = re.compile(r"values_by_name|value_of|to_standard_form|\.maximize")
    offenders = _files_mentioning(exported) + _files_mentioning(exported, glob="*.md")
    assert not offenders, (
        "the front end's export, values or objective direction is back (a "
        "backend solves a StandardForm, which always minimises, and returns "
        "its column vector x): %s" % ", ".join(offenders)
    )
    names = re.compile(r"x__|flow__|reserve__")
    assert not names.search((SRC / "lp" / "primal.py").read_text(encoding="utf-8")), (
        "the primal heuristic decodes names again (it reads the form's "
        "PathLayout and arrays)"
    )
