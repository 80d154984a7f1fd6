"""Tests for path expressions: AST, parser, substitution, NFA/DFA, operations."""

import pytest

from repro.errors import ParseError, PlacementError
from repro.regex import (
    ANY,
    DFA,
    NFA,
    Concat,
    Dot,
    Empty,
    Epsilon,
    Negate,
    Star,
    Symbol,
    Union,
    accepts,
    concat,
    equivalent,
    included,
    intersection_empty,
    is_empty,
    parse_path_expression,
    shortest_accepted,
    star,
    substitute_functions,
    union,
)
from repro.regex.ast import DOT, any_path
from repro.regex.minimize import minimize
from repro.regex.operations import compile_dfa, counterexample
from repro.regex.substitution import functions_used


class TestAst:
    def test_concat_identities(self):
        a = Symbol("a")
        assert concat(Epsilon(), a) is a
        assert isinstance(concat(Empty(), a), Empty)
        assert isinstance(concat(), Epsilon)

    def test_union_identities(self):
        a = Symbol("a")
        assert union(Empty(), a) is a

    def test_star_simplifications(self):
        assert isinstance(star(Empty()), Epsilon)
        inner = star(Symbol("a"))
        assert star(inner) is inner

    def test_size(self):
        expression = parse_path_expression(".* dpi .* nat .*")
        assert expression.size() == 12

    def test_symbols(self):
        expression = parse_path_expression("h1 .* dpi .* h2")
        assert expression.symbols() == {"h1", "dpi", "h2"}

    def test_operator_sugar(self):
        expression = Symbol("a") + Symbol("b") | Symbol("c")
        assert accepts(expression, ["a", "b"])
        assert accepts(expression, ["c"])

    def test_str_round_trips_through_parser(self):
        expression = parse_path_expression("h1 (m1|m2)* dpi .* h2")
        assert equivalent(expression, parse_path_expression(str(expression)))


class TestParser:
    def test_dot_star(self):
        expression = parse_path_expression(".*")
        assert isinstance(expression, Star)
        assert isinstance(expression.operand, Dot)

    def test_paper_expression(self):
        expression = parse_path_expression(".* dpi .* nat .*")
        assert accepts(expression, ["h1", "dpi", "s1", "nat", "h2"])
        assert not accepts(expression, ["h1", "nat", "s1", "dpi", "h2"])

    def test_union_of_locations(self):
        expression = parse_path_expression(".* (h1|h2|m1) .*")
        assert accepts(expression, ["s1", "m1", "s2"])
        assert not accepts(expression, ["s1", "s2"])

    def test_negation(self):
        expression = parse_path_expression("!(.* dpi .*)")
        assert accepts(expression, ["h1", "s1", "h2"])
        assert not accepts(expression, ["h1", "dpi", "h2"])

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_path_expression("   ")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            parse_path_expression("(h1 | h2")

    def test_bad_character_rejected(self):
        with pytest.raises(ParseError):
            parse_path_expression("h1 -> h2")


class TestSubstitution:
    LOCATIONS = ["h1", "h2", "m1", "s1", "s2"]

    def test_function_replaced_by_union(self):
        expression = parse_path_expression(".* nat .*")
        rewritten = substitute_functions(expression, {"nat": ["m1"]}, self.LOCATIONS)
        assert accepts(rewritten, ["h1", "m1", "h2"])
        assert not accepts(rewritten, ["h1", "s1", "h2"])

    def test_multi_location_function(self):
        expression = parse_path_expression(".* dpi .*")
        rewritten = substitute_functions(
            expression, {"dpi": ["h1", "h2", "m1"]}, self.LOCATIONS
        )
        for location in ("h1", "h2", "m1"):
            assert accepts(rewritten, ["s1", location, "s2"])

    def test_locations_left_alone(self):
        expression = parse_path_expression("h1 .* h2")
        rewritten = substitute_functions(expression, {}, self.LOCATIONS)
        assert equivalent(expression, rewritten)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(PlacementError):
            substitute_functions(parse_path_expression(".* firewall .*"), {}, self.LOCATIONS)

    def test_empty_placement_rejected(self):
        with pytest.raises(PlacementError):
            substitute_functions(
                parse_path_expression(".* dpi .*"), {"dpi": []}, self.LOCATIONS
            )

    def test_placement_at_unknown_location_rejected(self):
        with pytest.raises(PlacementError):
            substitute_functions(
                parse_path_expression(".* dpi .*"), {"dpi": ["nowhere"]}, self.LOCATIONS
            )

    def test_functions_used(self):
        expression = parse_path_expression("h1 .* dpi .* nat .* h2")
        assert functions_used(expression, self.LOCATIONS) == {"dpi", "nat"}


class TestAutomata:
    def test_nfa_accepts(self):
        nfa = NFA.from_regex(parse_path_expression("a b* c"))
        assert nfa.accepts_sequence(["a", "c"])
        assert nfa.accepts_sequence(["a", "b", "b", "c"])
        assert not nfa.accepts_sequence(["a", "b"])

    def test_nfa_dot_matches_anything(self):
        nfa = NFA.from_regex(parse_path_expression(". ."))
        assert nfa.accepts_sequence(["x", "y"])
        assert not nfa.accepts_sequence(["x"])

    def test_dfa_matches_nfa(self):
        expression = parse_path_expression(".* dpi .* nat .*")
        nfa = NFA.from_regex(expression)
        dfa = DFA.from_nfa(nfa)
        for sequence in (
            ["dpi", "nat"],
            ["a", "dpi", "b", "nat", "c"],
            ["nat", "dpi"],
            [],
        ):
            assert nfa.accepts_sequence(sequence) == dfa.accepts_sequence(sequence)

    def test_dfa_complement(self):
        dfa = compile_dfa(parse_path_expression(".* dpi .*")).complement()
        assert dfa.accepts_sequence(["a", "b"])
        assert not dfa.accepts_sequence(["a", "dpi", "b"])

    def test_dfa_product_operations(self):
        a = compile_dfa(parse_path_expression(".* dpi .*"))
        b = compile_dfa(parse_path_expression(".* nat .*"))
        both = a.intersect(b)
        assert both.accepts_sequence(["dpi", "nat"])
        assert not both.accepts_sequence(["dpi"])
        either = a.union(b)
        assert either.accepts_sequence(["dpi"])
        assert either.accepts_sequence(["nat"])
        only_a = a.product(b, lambda left, right: left and not right)
        assert only_a.accepts_sequence(["dpi"])
        assert not only_a.accepts_sequence(["dpi", "nat"])

    def test_minimization_preserves_language_and_shrinks(self):
        expression = parse_path_expression("(a|b)* c (a|b)*")
        dfa = compile_dfa(expression)
        minimal = minimize(dfa)
        assert minimal.num_states() <= dfa.num_states()
        for sequence in (["c"], ["a", "c", "b"], ["a", "b"], []):
            assert dfa.accepts_sequence(sequence) == minimal.accepts_sequence(sequence)

    def test_relevant_symbols(self):
        nfa = NFA.from_regex(parse_path_expression(".* dpi .*"))
        assert nfa.relevant_symbols() == {"dpi"}


class TestLanguageOperations:
    def test_inclusion_of_refinement(self):
        # §4.1: adding a dpi constraint refines the original log-only policy.
        original = parse_path_expression(".* log .*")
        refined = parse_path_expression(".* log .* dpi .*")
        assert included(refined, original)
        assert not included(original, refined)

    def test_inclusion_reflexive(self):
        expression = parse_path_expression("h1 .* dpi .* h2")
        assert included(expression, expression)

    def test_everything_included_in_dot_star(self):
        assert included(parse_path_expression("h1 s1 h2"), any_path())

    def test_equivalence(self):
        assert equivalent(
            parse_path_expression("(a|b) c"), parse_path_expression("a c | b c")
        )

    def test_emptiness(self):
        assert is_empty(parse_path_expression("!(.*)"))
        assert not is_empty(any_path())

    def test_shortest_accepted(self):
        assert shortest_accepted(parse_path_expression(".* dpi .* nat .*")) == ("dpi", "nat")
        assert shortest_accepted(parse_path_expression("!(.*)")) is None

    def test_counterexample(self):
        witness = counterexample(
            parse_path_expression(".*"), parse_path_expression(".* dpi .*")
        )
        assert witness is not None
        assert "dpi" not in witness

    def test_intersection_empty(self):
        assert intersection_empty(
            parse_path_expression("a b"), parse_path_expression("a c")
        )
        assert not intersection_empty(
            parse_path_expression(".* dpi .*"), parse_path_expression(".* nat .*")
        )
