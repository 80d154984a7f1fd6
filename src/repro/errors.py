"""Exception hierarchy for the Merlin reproduction.

All exceptions raised by the library derive from :class:`MerlinError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class MerlinError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class UnitError(MerlinError, ValueError):
    """Raised when a bandwidth value or unit cannot be parsed."""


class ParseError(MerlinError, SyntaxError):
    """Raised when policy, predicate, or path-expression source cannot be read.

    ``line`` and ``column`` are 1-based positions in the source handed to
    whichever of the three entry points was called; all three report them the
    same way because all three read the same tokens through the same rules.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class LexerError(ParseError):
    """Raised when the tokeniser meets a character no token starts with.

    A lexical error is a parse error: ``except ParseError`` around
    ``parse_policy``, ``parse_predicate`` or ``parse_path_expression`` catches
    every way the source can be malformed.
    """


class PolicyError(MerlinError):
    """Raised for semantically invalid policies.

    Examples include statements with overlapping predicates, formulas that
    refer to undefined statement identifiers, or negative bandwidth amounts.
    """


class FieldError(MerlinError, KeyError):
    """Raised when a predicate references an unknown packet header field."""


class TopologyError(MerlinError):
    """Raised for malformed topologies or invalid topology queries."""


class PlacementError(MerlinError):
    """Raised when a packet-processing function has no feasible placement."""


class ProvisioningError(MerlinError):
    """Raised when path selection or bandwidth provisioning fails.

    The most common cause is an infeasible constraint system: the requested
    guarantees exceed the capacity of every path allowed by the policy.
    """


class SolverError(MerlinError):
    """Raised when the LP/MIP substrate cannot solve a model."""


class CodegenError(MerlinError):
    """Raised when instruction generation fails for a target device."""


class DelegationError(MerlinError):
    """Raised when a policy cannot be delegated (projected) to a tenant."""


class VerificationError(MerlinError):
    """Raised when a delegated policy fails refinement verification."""


class SimulationError(MerlinError):
    """Raised for invalid simulator configurations or runtime failures."""
