"""Figure 9 — negotiator verification time.

Three sweeps: number of delegated predicates, regular-expression AST size,
and number of bandwidth allocations.  Paper observation: predicates and
allocations verify in milliseconds and scale linearly into the tens of
thousands; regular-expression verification is noticeably more expensive and
grows super-linearly (the paper reports ~3.5 s at a thousand AST nodes).
What is asserted is that every refinement verifies and that the automaton
behind the expensive dimension grows along its sweep; ``verify_ms`` is the
duration of one span around each ``verify_refinement`` call, printed only.
"""

from repro.experiments.verification import (
    sweep_allocations,
    sweep_predicates,
    sweep_regex_nodes,
)

from conftest import format_table, is_full_scale


def _run():
    if is_full_scale():
        predicates = sweep_predicates((10, 100, 1000, 5000, 10000))
        allocations = sweep_allocations((10, 100, 1000, 5000, 10000))
        regexes = sweep_regex_nodes((10, 50, 100, 250, 500, 1000))
    else:
        predicates = sweep_predicates((10, 100, 1000, 2000))
        allocations = sweep_allocations((10, 100, 1000, 5000))
        regexes = sweep_regex_nodes((10, 50, 100, 150))
    return predicates, allocations, regexes


def test_fig9_verification(report):
    predicates, allocations, regexes = _run()
    blocks = [
        format_table(
            predicates,
            ["size", "verify_ms", "valid"],
            title="Figure 9 (left): verification time vs number of predicates",
        ),
        format_table(
            regexes,
            ["size", "dfa_states", "verify_ms", "valid"],
            title="Figure 9 (middle): verification time vs regex AST nodes",
        ),
        format_table(
            allocations,
            ["size", "verify_ms", "valid"],
            title="Figure 9 (right): verification time vs number of allocations",
        ),
    ]
    report("fig9_verification", "\n\n".join(blocks))

    # All sweeps verify successfully (the refinements are valid by construction).
    assert all(point["valid"] for point in predicates + allocations + regexes)
    # Regex verification is the expensive dimension, as in the paper: the
    # automaton the inclusion check walks grows with every step of the sweep
    # (the other two sweeps verify ``.*`` against ``.*`` throughout).
    for smaller, larger in zip(regexes, regexes[1:]):
        assert larger["size"] > smaller["size"]
        assert larger["dfa_states"] > smaller["dfa_states"]
