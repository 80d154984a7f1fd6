"""Nondeterministic finite automata over the (large) alphabet of locations.

Because a network may contain hundreds of locations, transitions are not
expanded per-symbol.  Instead every transition carries a *label* that is
either

* :class:`SymbolLabel` — matches exactly one named location, or
* :class:`CoLabel` — matches every location *except* a finite excluded set
  (the wildcard ``.`` is ``CoLabel(frozenset())``).

This keeps Thompson automata small regardless of topology size while still
supporting complement (needed for ``!a`` path expressions and for language
inclusion): the subset construction in :mod:`repro.regex.dfa` only needs the
finite set of "relevant" symbols mentioned by labels, treating all other
locations uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..errors import MerlinError
from .ast import Concat, Dot, Empty, Epsilon, Negate, Regex, Star, Symbol, Union


class Label:
    """Base class for transition labels."""

    def matches(self, symbol: str) -> bool:
        raise NotImplementedError

    @property
    def relevant(self) -> FrozenSet[str]:
        """Finite set of symbols on which this label's behaviour may differ
        from its behaviour on an arbitrary "fresh" symbol."""
        raise NotImplementedError

    def matches_other(self) -> bool:
        """Whether the label matches a symbol outside every relevant set."""
        raise NotImplementedError


@dataclass(frozen=True)
class SymbolLabel(Label):
    """Matches exactly one location."""

    name: str

    def matches(self, symbol: str) -> bool:
        return symbol == self.name

    @property
    def relevant(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def matches_other(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CoLabel(Label):
    """Matches every location except those in ``excluded``."""

    excluded: FrozenSet[str] = frozenset()

    def matches(self, symbol: str) -> bool:
        return symbol not in self.excluded

    @property
    def relevant(self) -> FrozenSet[str]:
        return self.excluded

    def matches_other(self) -> bool:
        return True

    def __str__(self) -> str:
        if not self.excluded:
            return "."
        return "!(" + "|".join(sorted(self.excluded)) + ")"


#: The wildcard label used for ``.`` — matches any location.
ANY = CoLabel(frozenset())


@dataclass
class NFA:
    """An NFA with epsilon transitions and label-compressed edges."""

    start: int = 0
    accepts: Set[int] = field(default_factory=set)
    #: transitions[state] -> list of (label, destination state)
    transitions: Dict[int, List[Tuple[Label, int]]] = field(default_factory=dict)
    #: epsilon[state] -> set of destination states
    epsilon: Dict[int, Set[int]] = field(default_factory=dict)
    _next_state: int = 0

    # -- construction ------------------------------------------------------

    def new_state(self) -> int:
        """Allocate and return a fresh state identifier."""
        state = self._next_state
        self._next_state += 1
        self.transitions.setdefault(state, [])
        self.epsilon.setdefault(state, set())
        return state

    def add_transition(self, source: int, label: Label, destination: int) -> None:
        """Add a labelled transition."""
        self.transitions.setdefault(source, []).append((label, destination))
        self.transitions.setdefault(destination, [])
        self.epsilon.setdefault(source, set())
        self.epsilon.setdefault(destination, set())

    def add_epsilon(self, source: int, destination: int) -> None:
        """Add an epsilon transition."""
        self.epsilon.setdefault(source, set()).add(destination)
        self.epsilon.setdefault(destination, set())
        self.transitions.setdefault(source, [])
        self.transitions.setdefault(destination, [])

    @property
    def states(self) -> List[int]:
        """All state identifiers."""
        return sorted(set(self.transitions) | set(self.epsilon) | {self.start} | self.accepts)

    def num_states(self) -> int:
        return len(self.states)

    # -- simulation --------------------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """States reachable from ``states`` by epsilon transitions (inclusive)."""
        stack = list(states)
        closure: Set[int] = set(stack)
        while stack:
            state = stack.pop()
            for successor in self.epsilon.get(state, ()):
                if successor not in closure:
                    closure.add(successor)
                    stack.append(successor)
        return frozenset(closure)

    def move(self, states: Iterable[int], symbol: str) -> FrozenSet[int]:
        """States reachable from ``states`` by one transition matching ``symbol``."""
        result: Set[int] = set()
        for state in states:
            for label, destination in self.transitions.get(state, ()):
                if label.matches(symbol):
                    result.add(destination)
        return frozenset(result)

    def step(self, states: Iterable[int], symbol: str) -> FrozenSet[int]:
        """Epsilon-closed successor set on ``symbol``."""
        return self.epsilon_closure(self.move(self.epsilon_closure(states), symbol))

    def accepts_sequence(self, sequence: Sequence[str]) -> bool:
        """Whether the NFA accepts the given sequence of locations."""
        current = self.epsilon_closure({self.start})
        for symbol in sequence:
            current = self.epsilon_closure(self.move(current, symbol))
            if not current:
                return False
        return bool(current & self.accepts)

    def relevant_symbols(self) -> FrozenSet[str]:
        """Union of all symbols explicitly mentioned on labels."""
        symbols: Set[str] = set()
        for edges in self.transitions.values():
            for label, _ in edges:
                symbols |= label.relevant
        return frozenset(symbols)

    # -- Thompson construction ---------------------------------------------

    @classmethod
    def from_regex(cls, expression: Regex) -> "NFA":
        """Build an NFA accepting the language of ``expression``.

        Complemented sub-expressions (``!a``) are handled by determinising
        the operand, complementing the DFA, and splicing the result back in
        as an NFA fragment.
        """
        nfa = cls()
        start, end = _thompson(nfa, expression)
        nfa.start = start
        nfa.accepts = {end}
        return nfa


def _thompson(nfa: NFA, expression: Regex) -> Tuple[int, int]:
    """Return (entry, exit) states of a Thompson fragment for ``expression``."""
    if isinstance(expression, Empty):
        entry, exit_ = nfa.new_state(), nfa.new_state()
        return entry, exit_
    if isinstance(expression, Epsilon):
        entry, exit_ = nfa.new_state(), nfa.new_state()
        nfa.add_epsilon(entry, exit_)
        return entry, exit_
    if isinstance(expression, Dot):
        entry, exit_ = nfa.new_state(), nfa.new_state()
        nfa.add_transition(entry, ANY, exit_)
        return entry, exit_
    if isinstance(expression, Symbol):
        entry, exit_ = nfa.new_state(), nfa.new_state()
        nfa.add_transition(entry, SymbolLabel(expression.name), exit_)
        return entry, exit_
    if isinstance(expression, Concat):
        entry, exit_ = _thompson(nfa, expression.parts[0])
        for part in expression.parts[1:]:
            part_entry, part_exit = _thompson(nfa, part)
            nfa.add_epsilon(exit_, part_entry)
            exit_ = part_exit
        return entry, exit_
    if isinstance(expression, Union):
        entry, exit_ = nfa.new_state(), nfa.new_state()
        for part in expression.parts:
            part_entry, part_exit = _thompson(nfa, part)
            nfa.add_epsilon(entry, part_entry)
            nfa.add_epsilon(part_exit, exit_)
        return entry, exit_
    if isinstance(expression, Star):
        entry, exit_ = nfa.new_state(), nfa.new_state()
        inner_entry, inner_exit = _thompson(nfa, expression.operand)
        nfa.add_epsilon(entry, inner_entry)
        nfa.add_epsilon(entry, exit_)
        nfa.add_epsilon(inner_exit, inner_entry)
        nfa.add_epsilon(inner_exit, exit_)
        return entry, exit_
    if isinstance(expression, Negate):
        return _thompson_complement(nfa, expression.operand)
    raise MerlinError(f"unknown regex node: {expression!r}")


def _thompson_complement(nfa: NFA, operand: Regex) -> Tuple[int, int]:
    """Splice the complement of ``operand`` into ``nfa`` as a fragment."""
    # Imported here to avoid a circular module dependency (operations
    # imports nfa).
    from .operations import compile_dfa

    complemented = compile_dfa(operand).complement()
    mapping: Dict[int, int] = {}
    for state in complemented.states():
        mapping[state] = nfa.new_state()
    exit_state = nfa.new_state()
    for state in complemented.states():
        for symbol, destination in complemented.explicit_transitions(state).items():
            nfa.add_transition(mapping[state], SymbolLabel(symbol), mapping[destination])
        default = complemented.default_transition(state)
        excluded = frozenset(complemented.explicit_transitions(state))
        nfa.add_transition(mapping[state], CoLabel(excluded), mapping[default])
        if complemented.is_accepting(state):
            nfa.add_epsilon(mapping[state], exit_state)
    return mapping[complemented.start], exit_state
