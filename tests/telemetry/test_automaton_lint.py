"""Repo lint: every automaton comes out of the one store.

``repro.regex.operations`` memoises the DFA of each path expression; a
``DFA.from_nfa(`` / ``NFA.from_regex(`` call anywhere in ``src/repro``
outside the regex package compiles behind the store's back, and an
``lru_cache`` in ``core/logical.py`` would be the private automaton cache
the store replaced.  ``make lint-automaton`` runs this file.
"""

from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def test_no_automaton_construction_outside_the_regex_package():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "regex":
            continue
        text = path.read_text(encoding="utf-8")
        if "DFA.from_nfa(" in text or "NFA.from_regex(" in text:
            offenders.append(str(relative))
    assert not offenders, (
        "automaton built outside repro/regex (use "
        "repro.regex.operations.compile_dfa): %s" % ", ".join(offenders)
    )


def test_no_private_cache_in_core_logical():
    text = (SRC / "core" / "logical.py").read_text(encoding="utf-8")
    assert "lru_cache" not in text, (
        "core/logical.py grew a private cache; automata are memoised by "
        "repro.regex.operations"
    )
