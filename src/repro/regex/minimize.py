"""DFA minimisation by partition refinement.

The DFA representation keeps explicit transitions plus a default successor,
so classical Hopcroft over the full alphabet is replaced by Moore-style
refinement over the *relevant* symbols (those that appear explicitly anywhere
in the DFA) plus a single synthetic "other" symbol representing every
remaining location.  Two states behave identically on all locations iff they
behave identically on that reduced symbol set, so the result is the canonical
minimal DFA for the language restricted to reachable states.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .dfa import DFA

#: Synthetic symbol standing for "any location without an explicit transition".
_OTHER = "\x00<other>"


def minimize(dfa: DFA) -> DFA:
    """Return the minimal DFA equivalent to ``dfa``."""
    reachable = dfa.reachable_states()
    symbols = sorted(dfa.relevant_symbols())
    probe_symbols = symbols + [_OTHER]

    def step(state: int, symbol: str) -> int:
        if symbol == _OTHER:
            return dfa.default_transition(state)
        return dfa.step(state, symbol)

    # Initial partition: accepting vs non-accepting (restricted to reachable).
    states = sorted(reachable)
    block_of: Dict[int, int] = {
        state: (0 if state in dfa.accepting else 1) for state in states
    }
    # Normalise block ids in case one of the two classes is empty.
    block_of = _renumber(block_of)

    while True:
        signatures: Dict[int, Tuple] = {}
        for state in states:
            signature = (
                block_of[state],
                tuple(block_of[step(state, symbol)] for symbol in probe_symbols),
            )
            signatures[state] = signature
        mapping: Dict[Tuple, int] = {}
        new_block_of: Dict[int, int] = {}
        for state in states:
            signature = signatures[state]
            if signature not in mapping:
                mapping[signature] = len(mapping)
            new_block_of[state] = mapping[signature]
        if len(set(new_block_of.values())) == len(set(block_of.values())):
            block_of = new_block_of
            break
        block_of = new_block_of

    # Build the quotient DFA.
    explicit: Dict[int, Dict[str, int]] = {}
    default: Dict[int, int] = {}
    accepting: Set[int] = set()
    representatives: Dict[int, int] = {}
    for state in states:
        representatives.setdefault(block_of[state], state)
    for block, representative in representatives.items():
        default[block] = block_of[dfa.default_transition(representative)]
        table: Dict[str, int] = {}
        for symbol in symbols:
            destination = block_of[dfa.step(representative, symbol)]
            if destination != default[block]:
                table[symbol] = destination
        explicit[block] = table
        if representative in dfa.accepting:
            accepting.add(block)
    return DFA(
        start=block_of[dfa.start],
        accepting=accepting,
        _explicit=explicit,
        _default=default,
    )


def _renumber(block_of: Dict[int, int]) -> Dict[int, int]:
    """Renumber block identifiers densely starting at zero."""
    mapping: Dict[int, int] = {}
    result: Dict[int, int] = {}
    for state in sorted(block_of):
        block = block_of[state]
        if block not in mapping:
            mapping[block] = len(mapping)
        result[state] = mapping[block]
    return result
