"""The public session facade over a live incremental compile.

:meth:`MerlinCompiler.session` returns a :class:`ProvisioningSession`: the
supported surface for callers that stream changes at a compiled policy — the
scenario driver replaying churn/failure event streams, the negotiator
applying verified refinements — without reaching into compiler session or
engine internals.

``apply`` accepts any unit of change: a
:class:`~repro.incremental.delta.PolicyDelta`, a
:class:`~repro.incremental.delta.TopologyDelta`, or any object exposing
``to_delta()`` (scenario events do), and returns the same full
:class:`~repro.core.allocation.CompilationResult` a from-scratch compile of
the updated policy on the current active topology would produce.  Every
``apply`` is a transaction (see :meth:`MerlinCompiler.recompile`): on any
failure — a change the session refuses as much as one the solver cannot
honour — the session rolls back to its pre-delta state and the error
propagates, so a driver can record the rejection and keep replaying.

``checkpoint()`` / ``rollback()`` expose the same undo-journal mark
``apply`` uses internally, for callers that need multi-delta units of work
(apply several deltas, inspect the result, and abandon all of them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ProvisioningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..topology.graph import Topology
    from .allocation import CompilationResult
    from .compiler import MerlinCompiler


class ProvisioningSession:
    """A handle on a compiler's live incremental session.

    Created by :meth:`MerlinCompiler.session`; several handles over one
    compiler share the same underlying state.  Exported from the package
    root as ``repro.ProvisioningSession``.  Usable as a context manager
    purely for scoping — exiting does **not** discard the compiler's
    session (the compiled policy remains live for later handles).
    """

    def __init__(self, compiler: "MerlinCompiler") -> None:
        if not compiler.has_session:
            raise ProvisioningError(
                "ProvisioningSession requires a compiled policy; call "
                "compile() first"
            )
        self._compiler = compiler

    # -- context manager (scoping only) ------------------------------------

    def __enter__(self) -> "ProvisioningSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    # -- the unit of work ---------------------------------------------------

    def apply(self, change) -> "CompilationResult":
        """Apply one unit of change transactionally and return the result.

        ``change`` is a :class:`~repro.incremental.delta.PolicyDelta`, a
        :class:`~repro.incremental.delta.TopologyDelta`, or any object with
        a ``to_delta()`` method producing one (scenario events).  Raises
        whatever :meth:`MerlinCompiler.recompile` raises; the session is
        rolled back and stays usable.
        """
        from ..incremental.delta import PolicyDelta, TopologyDelta

        if not isinstance(change, (PolicyDelta, TopologyDelta)):
            to_delta = getattr(change, "to_delta", None)
            if to_delta is None:
                raise TypeError(
                    "ProvisioningSession.apply() takes a PolicyDelta, a TopologyDelta, "
                    "or an object with to_delta(); got "
                    f"{type(change).__name__}"
                )
            change = to_delta()
        return self._compiler.recompile(change)

    # -- explicit multi-delta transactions ----------------------------------

    def checkpoint(self):
        """Open a unit of work; pass the token to :meth:`rollback`.

        Checkpoints are O(1) undo-journal marks, and they *stack*:
        rolling back to an earlier token invalidates every later one,
        while a token stays valid across any number of later checkpoints
        that were rolled back.  An outstanding mark keeps every later undo
        entry alive, so a checkpoint suits a bounded unit of work.
        """
        return self._session().journal.mark()

    def rollback(self, token) -> None:
        """Restore the session to a :meth:`checkpoint` token's state.

        Replays the undo journal back to the mark — O(changes since the
        checkpoint).  The token stays valid (the unit of work can retry).
        """
        self._session().journal.rollback(token)

    # -- introspection -------------------------------------------------------

    @property
    def topology(self) -> "Topology":
        """The active topology (pristine minus currently-failed elements)."""
        return self._session().active_topology

    @property
    def failed_links(self) -> frozenset:
        """Currently-failed links as sorted (u, v) name pairs."""
        return self._session().failed_links

    @property
    def failed_nodes(self) -> frozenset:
        """Currently-failed switch/middlebox names."""
        return self._session().failed_nodes

    @property
    def statement_ids(self) -> tuple:
        """Identifiers of the statements currently in the session, in
        policy order (the order of ``result.policy.statements``)."""
        return tuple(record.identifier for record in self._session().ordered())

    def _session(self):
        inner = self._compiler._session
        if inner is None:
            raise ProvisioningError(
                "the compiler's session is gone (a failed compile() "
                "cleared it); compile again before using this handle"
            )
        return inner
