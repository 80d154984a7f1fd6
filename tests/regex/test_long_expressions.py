"""Path expressions as long as Figure 9's paper-scale points.

``Concat`` and ``Union`` are flat, so comparing, hashing, printing, parsing,
measuring, Thompson's construction and function substitution loop over a
node's parts.  While the builders nested pairs, each of them recursed once
per operand and raised ``RecursionError`` on these expressions.  No DFA is
built here: the subset construction of a ``.*`` chain is quadratic in its
length, and that of a union this wide slower still.
"""

from repro.regex.ast import DOT, Symbol, concat, star, union
from repro.regex.nfa import NFA
from repro.regex.parser import parse_path_expression
from repro.regex.substitution import substitute_functions

LENGTH = 1_500


def _chain():
    """``.* f1 .* f2 ... .* f1500 .*``, grown one waypoint at a time as the
    Figure 9 sweep grows it."""
    expression = star(DOT)
    for index in range(1, LENGTH + 1):
        expression = concat(expression, Symbol(f"f{index}"), star(DOT))
    return expression


def _alternatives():
    return union(*[Symbol(f"s{index}") for index in range(LENGTH)])


def test_a_waypoint_chain_is_one_node():
    chain, twin = _chain(), _chain()
    assert chain == twin and hash(chain) == hash(twin)
    assert len(chain.parts) == 2 * LENGTH + 1
    assert chain.size() == 7_502
    assert parse_path_expression(str(chain)) == chain
    # Four states per `.*`, two per waypoint.
    assert NFA.from_regex(chain).num_states() == 4 * (LENGTH + 1) + 2 * LENGTH
    functions = {f"f{index}": ["m1", "m2"] for index in range(1, LENGTH + 1)}
    rewritten = substitute_functions(chain, functions, ["m1", "m2"])
    assert rewritten.parts[1] == union(Symbol("m1"), Symbol("m2"))
    assert rewritten.size() == chain.size() + 2 * LENGTH


def test_a_wide_union_is_one_node():
    alternatives, twin = _alternatives(), _alternatives()
    assert alternatives == twin and hash(alternatives) == hash(twin)
    assert len(alternatives.parts) == LENGTH
    assert alternatives.size() == 2 * LENGTH - 1
    assert parse_path_expression(str(alternatives)) == alternatives
    nfa = NFA.from_regex(alternatives)
    assert nfa.accepts_sequence(["s750"]) and not nfa.accepts_sequence(["s750", "s1"])
    locations = [f"s{index}" for index in range(LENGTH)]
    assert substitute_functions(alternatives, {}, locations) == alternatives
