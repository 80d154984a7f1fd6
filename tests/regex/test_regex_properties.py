"""Property-based tests for the automata substrate.

The decision procedures (acceptance, inclusion, equivalence, emptiness) are
cross-checked against brute-force enumeration of all short strings over a
small alphabet, which is exactly the kind of exhaustive oracle regular
languages admit.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.regex import DFA, NFA, included, equivalent, is_empty
from repro.regex.ast import (
    DOT,
    Empty,
    Epsilon,
    Negate,
    Regex,
    Star,
    Symbol,
    concat,
    union,
)
from repro.regex.minimize import minimize
from repro.regex.operations import compile_dfa
from tests.reference_logical import _live_states

_ALPHABET = ["a", "b", "c"]

_LEAVES = st.one_of(
    st.sampled_from([Symbol(symbol) for symbol in _ALPHABET]),
    st.just(DOT),
    st.just(Epsilon()),
)


def _regexes(build_star=Star):
    """Expressions over ``_ALPHABET``.  ``Star`` also draws ``a**`` and
    ``ε*``; ``build_star=star`` collapses them, as the parser does."""
    return st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: union(*pair)),
            children.map(build_star),
        ),
        max_leaves=6,
    )


def _all_strings(max_length=4):
    for length in range(max_length + 1):
        yield from itertools.product(_ALPHABET, repeat=length)


def _language(expression: Regex, max_length=4):
    nfa = NFA.from_regex(expression)
    return {
        string for string in _all_strings(max_length) if nfa.accepts_sequence(list(string))
    }


class TestAutomataProperties:
    @settings(max_examples=60, deadline=None)
    @given(expression=_regexes())
    def test_nfa_and_dfa_agree(self, expression):
        nfa = NFA.from_regex(expression)
        dfa = DFA.from_nfa(nfa)
        for string in _all_strings(3):
            assert nfa.accepts_sequence(list(string)) == dfa.accepts_sequence(list(string))

    @settings(max_examples=60, deadline=None)
    @given(expression=_regexes())
    def test_minimization_preserves_language(self, expression):
        dfa = compile_dfa(expression)
        minimal = minimize(dfa)
        for string in _all_strings(3):
            assert dfa.accepts_sequence(list(string)) == minimal.accepts_sequence(list(string))

    @settings(max_examples=60, deadline=None)
    @given(expression=_regexes())
    def test_live_states_are_those_that_reach_acceptance(self, expression):
        dfa = compile_dfa(expression, minimal=True)
        assert dfa.live_states() == _live_states(dfa)
        # Computed once per stored automaton, which nobody edits afterwards.
        assert dfa.live_states() is dfa.live_states()

    @settings(max_examples=40, deadline=None)
    @given(left=_regexes(), right=_regexes())
    def test_union_is_set_union(self, left, right):
        combined = _language(union(left, right), 3)
        assert combined == _language(left, 3) | _language(right, 3)

    @settings(max_examples=40, deadline=None)
    @given(left=_regexes(), right=_regexes())
    def test_inclusion_matches_brute_force(self, left, right):
        brute_force = _language(left, 3) <= _language(right, 3)
        decided = included(left, right)
        # Inclusion over all strings implies inclusion over short ones.
        if decided:
            assert brute_force
        # And a short-string counterexample refutes inclusion.
        if not brute_force:
            assert not decided

    @settings(max_examples=40, deadline=None)
    @given(expression=_regexes())
    def test_inclusion_is_reflexive(self, expression):
        assert included(expression, expression)

    @settings(max_examples=40, deadline=None)
    @given(expression=_regexes())
    def test_complement_is_involutive_on_samples(self, expression):
        double = Negate(Negate(expression))
        assert equivalent(expression, double)

    @settings(max_examples=40, deadline=None)
    @given(expression=_regexes())
    def test_complement_flips_membership(self, expression):
        complemented = Negate(expression)
        nfa = NFA.from_regex(expression)
        complemented_nfa = NFA.from_regex(complemented)
        for string in _all_strings(3):
            assert nfa.accepts_sequence(list(string)) != complemented_nfa.accepts_sequence(
                list(string)
            )

    @settings(max_examples=40, deadline=None)
    @given(expression=_regexes())
    def test_empty_language_has_no_short_strings(self, expression):
        if is_empty(expression):
            assert _language(expression, 4) == set()

    @settings(max_examples=40, deadline=None)
    @given(left=_regexes(), right=_regexes())
    def test_equivalence_is_symmetric(self, left, right):
        assert equivalent(left, right) == equivalent(right, left)
