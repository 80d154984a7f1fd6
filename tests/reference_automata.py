"""The automaton constructions as they were before the shared store and
before flat ``Concat`` / ``Union`` nodes, kept as references: tests compare
the store's automata (and what is built from them) against these."""

from collections import deque

from repro.regex.ast import DOT, Concat, Dot, Epsilon, Negate, Star, Symbol, Union, concat, star
from repro.regex.dfa import DFA
from repro.regex.minimize import minimize
from repro.regex.nfa import ANY, NFA, CoLabel, SymbolLabel


def to_the_left(parts):
    """Where the old builders split a run of parts: ``((a b) c) d``."""
    return len(parts) - 1


def reference_nfa(expression, split=to_the_left) -> NFA:
    """Thompson's construction over binary ``Concat`` / ``Union`` nodes.

    An n-ary node is read as a binary tree: its first ``split(parts)``
    parts, nested the same way, then the rest.  The default is the shape
    the old builders made; ``lambda parts: 1`` is ``a (b c)`` as the old
    parser read it, or a function substituted into a union's last
    alternative.  ``!a`` splices the complemented subset automaton of
    ``a``'s reference NFA.
    """
    nfa = NFA()
    nfa.start, end = _fragment(nfa, expression, split)
    nfa.accepts = {end}
    return nfa


def _fragment(nfa, expression, split):
    if isinstance(expression, (Concat, Union)):
        return _nested(nfa, type(expression), expression.parts, split)
    if isinstance(expression, Negate):
        operand = reference_nfa(expression.operand, split)
        return _splice(nfa, DFA.from_nfa(operand).complement())
    entry, exit_ = nfa.new_state(), nfa.new_state()
    if isinstance(expression, Epsilon):
        nfa.add_epsilon(entry, exit_)
    elif isinstance(expression, Dot):
        nfa.add_transition(entry, ANY, exit_)
    elif isinstance(expression, Symbol):
        nfa.add_transition(entry, SymbolLabel(expression.name), exit_)
    elif isinstance(expression, Star):
        inner_entry, inner_exit = _fragment(nfa, expression.operand, split)
        nfa.add_epsilon(entry, inner_entry)
        nfa.add_epsilon(entry, exit_)
        nfa.add_epsilon(inner_exit, inner_entry)
        nfa.add_epsilon(inner_exit, exit_)
    return entry, exit_


def _nested(nfa, kind, parts, split):
    """The fragment of ``kind(parts[:k], parts[k:])`` with ``k = split(parts)``,
    each side nested the same way."""
    if len(parts) == 1:
        return _fragment(nfa, parts[0], split)
    k = split(parts)
    if kind is Concat:
        left_entry, left_exit = _nested(nfa, kind, parts[:k], split)
        right_entry, right_exit = _nested(nfa, kind, parts[k:], split)
        nfa.add_epsilon(left_exit, right_entry)
        return left_entry, right_exit
    entry, exit_ = nfa.new_state(), nfa.new_state()
    for operand_entry, operand_exit in (
        _nested(nfa, kind, parts[:k], split),
        _nested(nfa, kind, parts[k:], split),
    ):
        nfa.add_epsilon(entry, operand_entry)
        nfa.add_epsilon(operand_exit, exit_)
    return entry, exit_


def _splice(nfa, dfa):
    """``dfa`` copied into ``nfa``: the entry is its start state, and every
    accepting state reaches one fresh exit by epsilon."""
    mapping = {state: nfa.new_state() for state in dfa.states()}
    exit_ = nfa.new_state()
    for state in dfa.states():
        explicit = dfa.explicit_transitions(state)
        for symbol, destination in explicit.items():
            nfa.add_transition(mapping[state], SymbolLabel(symbol), mapping[destination])
        default = mapping[dfa.default_transition(state)]
        nfa.add_transition(mapping[state], CoLabel(frozenset(explicit)), default)
        if dfa.is_accepting(state):
            nfa.add_epsilon(mapping[state], exit_)
    return mapping[dfa.start], exit_


def reference_from_nfa(nfa: NFA) -> DFA:
    """The subset construction before the closure table: every successor
    re-closes the subset, moves, and closes again."""
    start_set = nfa.epsilon_closure({nfa.start})
    index = {start_set: 0}
    explicit, default, accepting = {}, {}, set()
    queue = deque([start_set])

    def intern(subset):
        if subset not in index:
            index[subset] = len(index)
            queue.append(subset)
        return index[subset]

    while queue:
        current = queue.popleft()
        current_id = index[current]
        if current & nfa.accepts:
            accepting.add(current_id)
        relevant = set()
        other_targets = set()
        for state in current:
            for label, destination in nfa.transitions.get(state, ()):
                relevant |= label.relevant
                if label.matches_other():
                    other_targets.add(destination)
        default_id = intern(nfa.epsilon_closure(other_targets) if other_targets else frozenset())
        default[current_id] = default_id
        table = {}
        for symbol in relevant:
            successor_id = intern(nfa.step(current, symbol))
            if successor_id != default_id:
                table[symbol] = successor_id
        explicit[current_id] = table
    return DFA(start=0, accepting=accepting, _explicit=explicit, _default=default)


def reference_minimal(expression) -> DFA:
    """What ``core.logical`` compiled for an unpinned path expression."""
    return minimize(reference_from_nfa(NFA.from_regex(expression)))


def reference_pinned(expression, source, destination) -> DFA:
    """What ``core.logical`` compiled for ``expression`` pinned to endpoints."""
    endpoints = concat(Symbol(source), star(DOT), Symbol(destination))
    return minimize(reference_minimal(expression).intersect(reference_minimal(endpoints)))
