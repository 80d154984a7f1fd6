"""Path regular expressions and the automata substrate.

Merlin statements constrain forwarding paths with regular expressions whose
alphabet is the (finite) set of network locations plus the names of packet
processing functions.  This package provides everything the compiler and the
negotiator verification machinery need:

* a regex AST and parser (``.``, symbols, concatenation, ``|``, ``*``, ``!``),
* function-name substitution (``dpi`` becomes the union of the locations able
  to run DPI),
* Thompson construction of NFAs, subset construction of DFAs, Moore-style
  minimisation by partition refinement,
* language operations: union, intersection, complement,
  emptiness, inclusion, and equivalence (the paper uses the Dprle library for
  inclusion checking; here the textbook algorithms are implemented directly).
"""

from .ast import (
    Concat,
    Dot,
    Empty,
    Epsilon,
    Negate,
    Regex,
    Star,
    Symbol,
    Union,
    concat,
    star,
    union,
)
from .dfa import DFA
from .nfa import NFA, ANY
from .operations import (
    accepts,
    equivalent,
    included,
    intersection_empty,
    is_empty,
    shortest_accepted,
)
from .parser import parse_path_expression
from .substitution import substitute_functions

__all__ = [
    "Concat",
    "Dot",
    "Empty",
    "Epsilon",
    "Negate",
    "Regex",
    "Star",
    "Symbol",
    "Union",
    "concat",
    "star",
    "union",
    "DFA",
    "NFA",
    "ANY",
    "accepts",
    "equivalent",
    "included",
    "intersection_empty",
    "is_empty",
    "shortest_accepted",
    "parse_path_expression",
    "substitute_functions",
]
