"""The automaton store and the constructions underneath and on top of it.

* the closure-table subset construction accepts what the NFA accepts and is
  the DFA the previous construction built (kept here as the reference);
* every automaton the store builds, minimal or not, is the one the binary
  Thompson construction (kept as the reference) gives, state for state,
  however each flat ``Concat`` / ``Union`` is read as a binary tree;
* the single-product decision procedures agree with materialising the
  product and then searching it;
* stored automata are shared, never mutated, and the store is bounded;
* the witness of a failed inclusion is the same in every process.
"""

import copy
import os
import subprocess
import sys

from hypothesis import example, given, settings, strategies as st

import repro
from repro.regex import operations
from repro.regex.ast import DOT, Epsilon, Negate, Star, Symbol, concat, union
from repro.regex.dfa import DFA
from repro.regex.minimize import minimize
from repro.regex.nfa import NFA
from repro.regex.operations import (
    AutomatonStore,
    accepts,
    compile_dfa,
    compile_pinned_dfa,
    counterexample,
    equivalent,
    included,
    intersection_empty,
)
from repro.regex.parser import parse_path_expression
from repro.regex.substitution import substitute_functions
from tests.reference_automata import reference_from_nfa, reference_nfa, to_the_left


def _order_stable_names(count):
    """Names a CPython ``set`` iterates in one order whatever its history.

    The subset construction numbers states in the iteration order of a set
    of symbol names, which for colliding names depends on insertion order
    (and so on the order a frozenset of NFA states happens to iterate in).
    Names whose hashes are distinct and below 8 modulo 32 sit in their own
    slot of the 8-, 16- and 32-slot tables a set of at most four names can
    have, so exact state numbers can be compared.  (With arbitrary names the
    two constructions number under one in a hundred automata differently,
    and isomorphically.)
    """
    names, slots = [], set()
    for index in range(10_000):
        name = f"n{index}"
        slot = hash(name) & 31
        if slot < 8 and slot not in slots:
            names.append(name)
            slots.add(slot)
            if len(names) == count:
                return names
    raise AssertionError("no collision-free alphabet found")


_ALPHABET = ["a", "b", "c", "d"]
_FRESH = "fresh"  # a location no expression mentions


def _regexes(alphabet):
    leaves = st.one_of(
        st.sampled_from([Symbol(name) for name in alphabet]),
        st.just(DOT),
        st.just(Epsilon()),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=4).map(lambda parts: concat(*parts)),
            st.lists(children, min_size=2, max_size=4).map(lambda parts: union(*parts)),
            children.map(Star),
            children.map(Negate),
        ),
        max_leaves=6,
    )


_REGEXES = _regexes(_ALPHABET)


def _to_the_right(parts):
    return 1


# Every binary tree a flat node could have been: nested to the left (the old
# builders), to the right (the old parser's ``a (b c)``), or drawn at random.
_SPLITS = st.one_of(
    st.just(to_the_left),
    st.just(_to_the_right),
    st.randoms(use_true_random=False).map(
        lambda draw: lambda parts: draw.randint(1, len(parts) - 1)
    ),
)


def _stable_examples():
    """``a (b c)`` and ``a .* (a|f) .*`` with ``f`` placed at ``b`` and
    ``c``, over order-stable names: right-nested on the old code."""
    a, b, c = _order_stable_names(3)
    chain = parse_path_expression(f"{a} ({b} {c})")
    placed = substitute_functions(
        parse_path_expression(f"{a} .* ({a}|f) .*"), {"f": [b, c]}, [a, b, c]
    )
    return chain, placed


_STABLE_EXAMPLES = _stable_examples()
_SEQUENCES = st.lists(st.sampled_from(_ALPHABET + [_FRESH]), max_size=6)


class TestSubsetConstruction:
    @settings(max_examples=120, deadline=None)
    @given(expression=_REGEXES, sequences=st.lists(_SEQUENCES, max_size=8))
    def test_accepts_what_the_nfa_accepts(self, expression, sequences):
        nfa = NFA.from_regex(expression)
        dfa = DFA.from_nfa(nfa)
        for sequence in [[], *sequences]:
            assert dfa.accepts_sequence(sequence) == nfa.accepts_sequence(sequence)

    @settings(max_examples=120, deadline=None)
    @given(expression=_regexes(_order_stable_names(4)))
    def test_is_the_dfa_the_previous_construction_built(self, expression):
        nfa = NFA.from_regex(expression)
        assert DFA.from_nfa(nfa) == reference_from_nfa(nfa)

    @settings(max_examples=150, deadline=None)
    @given(expression=_regexes(_order_stable_names(4)), split=_SPLITS)
    @example(expression=_STABLE_EXAMPLES[0], split=_to_the_right)
    @example(expression=_STABLE_EXAMPLES[1], split=_to_the_right)
    def test_stored_automata_are_the_binary_constructions(self, expression, split):
        reference = DFA.from_nfa(reference_nfa(expression, split))
        assert compile_dfa(expression) == reference
        assert compile_dfa(expression, minimal=True) == minimize(reference)

    def test_waypoint_chain_matches_the_reference(self):
        nfa = NFA.from_regex(parse_path_expression(".* a .* b .* c .* (d|e) .*"))
        built, reference = DFA.from_nfa(nfa), reference_from_nfa(nfa)
        assert built.num_states() == reference.num_states()
        assert minimize(built).num_states() == minimize(reference).num_states() == 5


def _concrete(witness):
    return [_FRESH if symbol == "<any>" else symbol for symbol in witness]


class TestSingleProductDecisions:
    @settings(max_examples=120, deadline=None)
    @given(left=_REGEXES, right=_REGEXES)
    def test_agree_with_materialise_then_search(self, left, right):
        left_dfa, right_dfa = compile_dfa(left), compile_dfa(right)
        difference = left_dfa.difference(right_dfa)
        assert included(left, right) == difference.is_empty()
        assert counterexample(left, right) == difference.shortest_accepted()
        assert equivalent(left, right) == (
            difference.is_empty() and right_dfa.difference(left_dfa).is_empty()
        )
        assert intersection_empty(left, right) == left_dfa.intersect(right_dfa).is_empty()

    @settings(max_examples=120, deadline=None)
    @given(left=_REGEXES, right=_REGEXES)
    def test_counterexample_is_in_left_and_not_in_right(self, left, right):
        witness = counterexample(left, right)
        if witness is not None:
            assert accepts(left, _concrete(witness))
            assert not accepts(right, _concrete(witness))

    def test_equal_expressions_need_no_automaton(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an automaton was consulted")

        monkeypatch.setattr(operations, "compile_dfa", refuse)
        for source in (".*", ".* a .* (b|c) .*", "!(a b) c*"):
            expression, twin = parse_path_expression(source), parse_path_expression(source)
            assert included(expression, twin) and equivalent(expression, twin)
            assert counterexample(expression, twin) is None


def _tables(dfa: DFA):
    return copy.deepcopy((dfa.start, dfa.accepting, dfa._explicit, dfa._default))


class TestStore:
    def test_structurally_equal_expressions_share_one_entry(self):
        first = compile_dfa(parse_path_expression(".* s1 .* s2 .*"))
        assert compile_dfa(parse_path_expression(".* s1 .* s2 .*")) is first
        assert compile_dfa(parse_path_expression(".* s1 .* s2 .*"), minimal=True) is not first
        pinned = compile_pinned_dfa(parse_path_expression(".* s1 .*"), "h1", "h2")
        assert compile_pinned_dfa(parse_path_expression(".* s1 .*"), "h1", "h2") is pinned
        assert compile_pinned_dfa(parse_path_expression(".* s1 .*"), "h2", "h1") is not pinned

    def test_pinned_entry_is_the_minimised_intersection(self):
        path = parse_path_expression(".* (m1|m2) .*")
        expected = minimize(
            compile_dfa(path, minimal=True).intersect(
                compile_dfa(parse_path_expression("h1 .* h2"), minimal=True)
            )
        )
        assert compile_pinned_dfa(path, "h1", "h2") == expected

    def test_nobody_mutates_a_stored_automaton(self, figure2_topology, figure2_placements):
        from repro.core.logical import build_logical_topology
        from repro.core.parser import parse_policy

        policy = parse_policy(
            "[ x : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02)"
            " -> .* dpi .* nat .* ]",
            topology=figure2_topology,
        )
        statement = policy.statements[0]
        build_logical_topology(statement, figure2_topology, figure2_placements, "h1", "h2")
        rewritten = parse_path_expression(".* (h1|h2|m1) .* m1 .*")
        entries = [
            compile_pinned_dfa(rewritten, "h1", "h2"),
            compile_dfa(rewritten, minimal=True),
            compile_dfa(parse_path_expression("h1 .* h2"), minimal=True),
            compile_dfa(parse_path_expression(".* !(m1) .*")),
        ]
        before = [_tables(entry) for entry in entries]
        for entry in entries:
            entry.complement()
            entry.intersect(entries[0])
            entry.difference(entries[1])
            entry.union(entries[2])
            minimize(entry)
            entry.shortest_accepted()
            entry.shortest_in_product(entries[0], lambda a, b: a and not b)
        build_logical_topology(statement, figure2_topology, figure2_placements, "h1", "h2")
        build_logical_topology(statement, figure2_topology, figure2_placements)
        compile_dfa(parse_path_expression("!(.* !(m1) .*)"))  # splices a stored operand
        assert [_tables(entry) for entry in entries] == before
        assert compile_pinned_dfa(rewritten, "h1", "h2") is entries[0]

    def test_store_is_bounded_by_states_and_evicts_least_recently_used(self):
        size = DFA.from_nfa(NFA.from_regex(parse_path_expression(".* a .*"))).num_states()
        store = AutomatonStore(state_limit=4 * size)  # room for four such entries
        built = []

        def entry(name):
            def build():
                built.append(name)
                return DFA.from_nfa(NFA.from_regex(parse_path_expression(f".* {name} .*")))

            return store.get(name, build)

        for name in ("a", "b", "c"):
            assert entry(name).num_states() == size
        entry("a")  # a hit: "b" is now the least recently used
        entry("d")
        assert (len(store), store.states) == (4, 4 * size)
        entry("e")  # over the limit: "b" goes
        assert (len(store), store.states) == (4, 4 * size)
        assert built == ["a", "b", "c", "d", "e"]
        entry("a"), entry("c"), entry("d"), entry("e")
        assert built == ["a", "b", "c", "d", "e"]
        entry("b")
        assert built[-1] == "b" and store.states <= store.state_limit

    def test_an_entry_larger_than_the_limit_is_still_served(self):
        store = AutomatonStore(state_limit=1)
        dfa = store.get("k", lambda: compile_dfa(parse_path_expression(".* a .* b .*")))
        assert dfa.num_states() > 1 and len(store) == 1
        assert store.get("k", lambda: None) is dfa

    def test_program_store_stays_within_its_limit(self):
        for index in range(40):
            compile_dfa(parse_path_expression(" ".join(f".* w{index}x{i}" for i in range(12))))
        assert operations._STORE.states <= operations._STORE.state_limit


_WITNESS_SCRIPT = """
from repro import parse_policy, verify_refinement
from repro.regex import parse_path_expression
from repro.regex.operations import counterexample

print(counterexample(
    parse_path_expression(".* (m1|m2|zeta|alpha|beta|gamma) .*"),
    parse_path_expression(".* omega .*"),
))
original = parse_policy("[ x : tcp.dst = 80 -> .* omega .* ]")
refined = parse_policy("[ x : tcp.dst = 80 -> .* (m1|m2|zeta|alpha|beta|gamma) .* ]")
for violation in verify_refinement(original, refined).violations:
    print(violation)
"""


def test_witness_is_the_same_under_any_hash_seed():
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for seed in ("0", "1"):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-c", _WITNESS_SCRIPT],
            capture_output=True, text=True, env=environment, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "('alpha',)"
    assert "(e.g. path alpha)" in outputs[0]
