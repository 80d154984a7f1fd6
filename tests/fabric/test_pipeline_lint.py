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
one of ``repro.lp.BACKENDS`` or an instance.  And a solve takes a model and
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
gave its rows.

``make lint-pipeline`` runs this file.
"""

import ast
import dataclasses
import re
from pathlib import Path

import repro
from repro.core.options import ProvisionOptions

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
        "deleted machinery is back (options travel as ProvisionOptions: pool "
        "= options.fabric, memo bound = SOLUTION_MEMO_LIMIT; a transaction is "
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
        "a removed option is back (every payload is solved by the backend it "
        "names; MAX_RESPAWNS, MAX_BATCH and the solver gaps are constants; "
        "backends export sparse; a fabric belongs to its creator): %s"
        % ", ".join(offenders)
    )
    assert [field.name for field in dataclasses.fields(ProvisionOptions)] == [
        "solver",
        "partition",
        "footprint_slack",
        "time_limit_seconds",
        "node_limit",
        "fabric",
        "component_cache",
    ], "ProvisionOptions grew a field (widening is not an option)"


def test_three_backends_picked_from_a_table():
    banned = re.compile(
        r"AutoSolver|HighsSolver|highs_available|highspy|register_backend"
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
