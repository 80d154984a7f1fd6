"""Deterministic finite automata with default ("all other symbols") edges.

The subset construction below never enumerates the full location alphabet.
Each DFA state keeps

* an *explicit* transition map for the finitely many symbols on which its
  behaviour is special, and
* a single *default* successor used for every other symbol.

Because every state has a default successor, the DFA is complete over any
alphabet, so complement is just flipping accepting states — exactly what
language inclusion (used by negotiator verification) and ``!a`` expressions
need.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .nfa import Label, NFA

#: Placeholder witnessing a default transition in a shortest accepted sequence.
_ANY_SYMBOL = "<any>"


@dataclass
class DFA:
    """A complete DFA with explicit-plus-default transitions."""

    start: int
    accepting: Set[int]
    #: _explicit[state][symbol] -> destination
    _explicit: Dict[int, Dict[str, int]]
    #: _default[state] -> destination for every symbol not in _explicit[state]
    _default: Dict[int, int]
    #: What :meth:`live_states` computed (an automaton is never edited once built).
    _live: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- basic queries -----------------------------------------------------

    def states(self) -> List[int]:
        """All state identifiers."""
        return sorted(set(self._explicit) | set(self._default) | {self.start} | self.accepting)

    def num_states(self) -> int:
        return len(self.states())

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting

    def explicit_transitions(self, state: int) -> Dict[str, int]:
        """The symbol-specific transitions of ``state``."""
        return dict(self._explicit.get(state, {}))

    def default_transition(self, state: int) -> int:
        """The successor of ``state`` on any symbol without an explicit entry."""
        return self._default[state]

    def step(self, state: int, symbol: str) -> int:
        """Deterministic successor of ``state`` on ``symbol``."""
        return self._explicit.get(state, {}).get(symbol, self._default[state])

    def transitions(self, state: int) -> Tuple[Mapping[str, int], int]:
        """``state``'s explicit transitions (shared, not copied) and its
        default successor: :meth:`step` on ``symbol`` is
        ``explicit.get(symbol, default)``, without the per-call lookups."""
        return self._explicit.get(state, {}), self._default[state]

    def live_states(self) -> FrozenSet[int]:
        """States from which an accepting state is reachable.

        Computed on first use and kept on the instance: the automata the
        store in ``operations.py`` hands out are shared by every product
        construction over the same path expression.
        """
        if self._live is None:
            reverse: Dict[int, Set[int]] = {}
            for state, default in self._default.items():
                for successor in (*self._explicit.get(state, {}).values(), default):
                    reverse.setdefault(successor, set()).add(state)
            live = set(self.accepting)
            queue = deque(live)
            while queue:
                for predecessor in reverse.get(queue.popleft(), ()):
                    if predecessor not in live:
                        live.add(predecessor)
                        queue.append(predecessor)
            self._live = frozenset(live)
        return self._live

    def accepts_sequence(self, sequence: Sequence[str]) -> bool:
        """Whether the DFA accepts the given sequence of locations."""
        state = self.start
        for symbol in sequence:
            state = self.step(state, symbol)
        return state in self.accepting

    def relevant_symbols(self) -> FrozenSet[str]:
        """All symbols with an explicit transition anywhere in the DFA."""
        symbols: Set[str] = set()
        for table in self._explicit.values():
            symbols |= set(table)
        return frozenset(symbols)

    # -- construction from an NFA -------------------------------------------

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "DFA":
        """Subset construction, tracking only the NFA's relevant symbols.

        Every interned subset is epsilon-closed, so a successor subset is
        the union of the closures of the matching edges' destinations; each
        NFA state's closure is computed once, on first use.
        """
        closures: Dict[int, FrozenSet[int]] = {}

        def closed(destinations: Iterable[int]) -> FrozenSet[int]:
            parts = []
            for state in destinations:
                closure = closures.get(state)
                if closure is None:
                    closure = closures[state] = nfa.epsilon_closure((state,))
                parts.append(closure)
            return frozenset().union(*parts)

        start_set = closed((nfa.start,))
        index: Dict[FrozenSet[int], int] = {start_set: 0}
        explicit: Dict[int, Dict[str, int]] = {}
        default: Dict[int, int] = {}
        accepting: Set[int] = set()
        queue = deque([start_set])
        while queue:
            current = queue.popleft()
            current_id = index[current]
            if current & nfa.accepts:
                accepting.add(current_id)
            edges = [
                edge for state in current for edge in nfa.transitions.get(state, ())
            ]
            relevant: Set[str] = set()
            mentioning: Dict[str, List[Tuple[Label, int]]] = {}
            for edge in edges:
                symbols = edge[0].relevant
                relevant |= symbols
                for symbol in symbols:
                    mentioning.setdefault(symbol, []).append(edge)
            # Default successor: transitions whose label matches a symbol
            # outside every relevant set (i.e., CoLabels).
            default_set = closed(
                {destination for label, destination in edges if label.matches_other()}
            )
            default_id = _intern(default_set, index, queue)
            default[current_id] = default_id
            table: Dict[str, int] = {}
            for symbol in relevant:
                # An edge that does not mention the symbol treats it like any
                # other location, so unless a mentioning edge excludes it the
                # successor is the default one plus what those edges add.
                mentions = mentioning[symbol]
                excluded = any(
                    label.matches_other() and not label.matches(symbol)
                    for label, _ in mentions
                )
                scanned, base = (edges, frozenset()) if excluded else (mentions, default_set)
                successor = base | closed(
                    {destination for label, destination in scanned if label.matches(symbol)}
                )
                successor_id = _intern(successor, index, queue)
                if successor_id != default_id:
                    table[symbol] = successor_id
            explicit[current_id] = table
        # The empty subset (dead state) may have been interned; ensure it has
        # transition entries (it loops to itself on everything).
        for state_id in list(index.values()):
            explicit.setdefault(state_id, {})
            default.setdefault(state_id, state_id)
        return cls(start=0, accepting=accepting, _explicit=explicit, _default=default)

    # -- language operations -------------------------------------------------

    def complement(self) -> "DFA":
        """The DFA accepting exactly the sequences this one rejects."""
        all_states = set(self.states())
        return DFA(
            start=self.start,
            accepting=all_states - self.accepting,
            _explicit={state: dict(table) for state, table in self._explicit.items()},
            _default=dict(self._default),
        )

    def product(self, other: "DFA", accept_rule) -> "DFA":
        """Product construction; ``accept_rule(a, b)`` decides acceptance."""
        index: Dict[Tuple[int, int], int] = {}
        explicit: Dict[int, Dict[str, int]] = {}
        default: Dict[int, int] = {}
        accepting: Set[int] = set()
        queue: deque = deque()

        def intern(pair: Tuple[int, int]) -> int:
            if pair not in index:
                index[pair] = len(index)
                queue.append(pair)
            return index[pair]

        start_pair = (self.start, other.start)
        intern(start_pair)
        while queue:
            pair = queue.popleft()
            pair_id = index[pair]
            left, right = pair
            if accept_rule(left in self.accepting, right in other.accepting):
                accepting.add(pair_id)
            symbols = set(self._explicit.get(left, {})) | set(other._explicit.get(right, {}))
            default_pair = (self._default[left], other._default[right])
            default_id = intern(default_pair)
            default[pair_id] = default_id
            table: Dict[str, int] = {}
            for symbol in symbols:
                successor = (self.step(left, symbol), other.step(right, symbol))
                successor_id = intern(successor)
                if successor_id != default_id:
                    table[symbol] = successor_id
            explicit[pair_id] = table
        return DFA(start=0, accepting=accepting, _explicit=explicit, _default=default)

    def intersect(self, other: "DFA") -> "DFA":
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "DFA") -> "DFA":
        """Language union."""
        return self.product(other, lambda a, b: a or b)

    def is_empty(self) -> bool:
        """Whether no sequence is accepted."""
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> Optional[Tuple[str, ...]]:
        """A shortest accepted sequence, or ``None`` if the language is empty.

        Default transitions are witnessed with a fresh placeholder symbol
        (``"<any>"``), representing "any location not explicitly mentioned".
        Moves are explored in sorted-symbol order with the default last, so
        the witness does not depend on the process's string hashing.
        """

        def moves(state: int) -> List[Tuple[str, int]]:
            explicit = sorted(self._explicit.get(state, {}).items())
            return [*explicit, (_ANY_SYMBOL, self._default[state])]

        return _shortest_witness(self.start, self.accepting.__contains__, moves)

    def shortest_in_product(self, other: "DFA", accept_rule) -> Optional[Tuple[str, ...]]:
        """What ``self.product(other, accept_rule).shortest_accepted()`` returns.

        The product is explored pair by pair and never materialised: the
        search stops at the first accepting pair, which for a failed
        inclusion check is usually a few moves from the start.
        """

        def accepting(pair: Tuple[int, int]) -> bool:
            return accept_rule(pair[0] in self.accepting, pair[1] in other.accepting)

        def moves(pair: Tuple[int, int]) -> List[Tuple[str, Tuple[int, int]]]:
            left, right = pair
            default_pair = (self._default[left], other._default[right])
            symbols = set(self._explicit.get(left, ())) | set(other._explicit.get(right, ()))
            explicit = [
                (symbol, (self.step(left, symbol), other.step(right, symbol)))
                for symbol in sorted(symbols)
            ]
            return [
                *(move for move in explicit if move[1] != default_pair),
                (_ANY_SYMBOL, default_pair),
            ]

        return _shortest_witness((self.start, other.start), accepting, moves)

    def reachable_states(self) -> Set[int]:
        """States reachable from the start state."""
        visited = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            successors = set(self._explicit.get(state, {}).values())
            successors.add(self._default[state])
            for successor in successors:
                if successor not in visited:
                    visited.add(successor)
                    queue.append(successor)
        return visited


def _shortest_witness(start, accepting, moves) -> Optional[Tuple[str, ...]]:
    """Breadth-first search for a shortest symbol sequence from ``start`` to
    a state satisfying ``accepting``; ``moves(state)`` lists ``(symbol,
    successor)`` in the order they are to be tried."""
    if accepting(start):
        return ()
    visited = {start}
    queue: deque = deque([(start, ())])
    while queue:
        state, path = queue.popleft()
        for symbol, successor in moves(state):
            if successor in visited:
                continue
            next_path = path + (symbol,)
            if accepting(successor):
                return next_path
            visited.add(successor)
            queue.append((successor, next_path))
    return None


def _intern(subset: FrozenSet[int], index: Dict[FrozenSet[int], int], queue: deque) -> int:
    if subset not in index:
        index[subset] = len(index)
        queue.append(subset)
    return index[subset]
