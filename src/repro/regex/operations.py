"""Language-level operations on path expressions, over one automaton store.

These are the decision procedures the paper obtains from the Dprle library:
emptiness, inclusion, and equivalence of regular path languages.

Every automaton the program uses comes out of the store behind
:func:`compile_dfa` and :func:`compile_pinned_dfa`; nothing else in
``src/repro`` turns a :class:`~repro.regex.ast.Regex` into a
:class:`~repro.regex.dfa.DFA` (``make lint-automaton`` holds the line).  The
store's contract:

* **Keyed by value.**  Regex nodes are frozen dataclasses, so two separately
  parsed but structurally equal expressions share one entry.  A key is the
  expression, whether the automaton is minimal, and for a pinned entry the
  ``(source, destination)`` pair.
* **Entries are immutable and shared.**  Every caller gets the same ``DFA``
  object and must only read it; the ``DFA`` operations (``complement``,
  ``product`` and its kin, ``minimize``) all return new automata.
* **Bounded.**  The entries together hold at most a fixed number of DFA
  states; the least recently used are evicted first.  A verdict needs the
  handful of distinct expressions of its two policies and a compile one
  entry per guaranteed ``(path, source, destination)`` shape plus its
  operands, and one per best-effort path expression, so eviction costs a
  later caller one rebuild and nothing else.

Callers: negotiator verification (§4.2) decides through :func:`counterexample`
that a tenant's refined path expression only allows paths the parent policy
already allowed, delegation checks scopes with :func:`intersection_empty`,
the logical-topology builder takes a guaranteed statement's product
automaton from :func:`compile_pinned_dfa` and the shared best-effort walk's
from :func:`compile_dfa`, endpoint inference reads :func:`shortest_accepted`
and :func:`included`, and ``!a`` sub-expressions splice the stored automaton
of ``a``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Sequence, Tuple

from .ast import DOT, Regex, Symbol, concat, star
from .dfa import DFA
from .minimize import minimize
from .nfa import NFA


class AutomatonStore:
    """A thread-safe least-recently-used memo of DFAs, bounded by the total
    number of DFA states it holds."""

    def __init__(self, state_limit: int) -> None:
        self.state_limit = state_limit
        self.states = 0
        self._entries: "OrderedDict[Hashable, DFA]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], DFA]) -> DFA:
        """The entry under ``key``, built (outside the lock: builds may come
        back to the store for their operands) and kept if absent."""
        with self._lock:
            held = self._entries.get(key)
            if held is not None:
                self._entries.move_to_end(key)
                return held
        built = build()
        with self._lock:
            held = self._entries.setdefault(key, built)
            if held is built:
                self.states += built.num_states()
                while self.states > self.state_limit and len(self._entries) > 1:
                    _, evicted = self._entries.popitem(last=False)
                    self.states -= evicted.num_states()
            return held


#: The program's automaton store.  The limit is in states, not entries,
#: because entries differ a hundredfold in size: the automata a compile pins
#: to endpoint pairs have four or five states each, and one compile of the
#: Fig. 4 campus policy reads some 30 entries (about 110 states: a pinned
#: and an endpoint automaton per guaranteed shape, and the two unpinned ones
#: its best-effort statements share) — a run of compiles of fresh seeded
#: campus policies settles near 380 entries (1 600 states) once every host
#: pair's shapes are in — while the unminimised automaton of one 13-waypoint
#: chain has 119 states and 1 100 explicit transitions (about 50 kB).
_STORE = AutomatonStore(state_limit=4096)


def compile_dfa(expression: Regex, *, minimal: bool = False) -> DFA:
    """The stored (optionally minimal) DFA of a path expression."""

    def build() -> DFA:
        dfa = DFA.from_nfa(NFA.from_regex(expression))
        return minimize(dfa) if minimal else dfa

    return _STORE.get((expression, minimal), build)


def compile_pinned_dfa(expression: Regex, source: str, destination: str) -> DFA:
    """The stored minimal DFA of ``expression`` ∩ ``source .* destination``:
    the paths of ``expression`` that start at ``source`` and end at
    ``destination``."""

    def build() -> DFA:
        endpoints = concat(Symbol(source), star(DOT), Symbol(destination))
        return minimize(
            compile_dfa(expression, minimal=True).intersect(
                compile_dfa(endpoints, minimal=True)
            )
        )

    return _STORE.get((expression, source, destination), build)


def accepts(expression: Regex, sequence: Sequence[str]) -> bool:
    """Whether ``sequence`` (of locations) is in the language of ``expression``."""
    return NFA.from_regex(expression).accepts_sequence(sequence)


def is_empty(expression: Regex) -> bool:
    """Whether the language of ``expression`` is empty."""
    return compile_dfa(expression).is_empty()


def shortest_accepted(expression: Regex) -> Optional[Tuple[str, ...]]:
    """A shortest sequence in the language, or ``None`` if the language is empty."""
    return compile_dfa(expression).shortest_accepted()


def included(refined: Regex, original: Regex) -> bool:
    """Language inclusion: every path allowed by ``refined`` is allowed by ``original``."""
    return counterexample(refined, original) is None


def equivalent(left: Regex, right: Regex) -> bool:
    """Language equivalence of two path expressions."""
    if left == right:
        return True
    return compile_dfa(left).shortest_in_product(
        compile_dfa(right), lambda a, b: a != b
    ) is None


def intersection_empty(left: Regex, right: Regex) -> bool:
    """Whether the two path languages share no sequence."""
    return compile_dfa(left).shortest_in_product(
        compile_dfa(right), lambda a, b: a and b
    ) is None


def counterexample(refined: Regex, original: Regex) -> Optional[Tuple[str, ...]]:
    """A shortest path allowed by ``refined`` but not by ``original``
    (``None`` if included): the witness negotiator verification puts in its
    error message.

    Structurally equal expressions are included without an automaton;
    otherwise ``L(refined) ∩ complement(L(original))`` is searched until its
    first accepted sequence.
    """
    if refined == original:
        return None
    return compile_dfa(refined).shortest_in_product(
        compile_dfa(original), lambda a, b: a and not b
    )
