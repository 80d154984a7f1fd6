"""Repo lint: one way into the solver, no keyword shims.

``compile()``, ``recompile()`` and ``provision()`` all provision through
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
row-splice API written for it stay deleted too.  ``make check`` greps for
the same patterns (``lint-pipeline``); this test keeps the rule enforced
under plain pytest.
"""

import re
from pathlib import Path

import repro

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


def _files_mentioning(banned):
    return [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
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
