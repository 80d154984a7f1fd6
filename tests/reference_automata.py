"""The automaton constructions as they were before the shared store, kept as
references: tests compare the store's automata (and what is built from them)
against these."""

from collections import deque

from repro.regex.ast import DOT, Symbol, concat, star
from repro.regex.dfa import DFA
from repro.regex.minimize import minimize
from repro.regex.nfa import NFA


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
