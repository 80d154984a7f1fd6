"""One options surface for every provisioning entry point.

:class:`ProvisionOptions` is the only way to configure how guaranteed
traffic is provisioned: one frozen dataclass carrying the solver backend,
partitioning switch, base footprint slack, solver limits and the
content cache.
:class:`~repro.core.compiler.MerlinCompiler` and
:class:`~repro.incremental.engine.IncrementalProvisioner` each take it as
``options=`` (``None`` means the defaults) and hand it on unchanged, so
every solve of a session runs under the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lp.backends import BACKENDS, resolve_backend

#: Default footprint tightening for partitioned provisioning: keep
#: only logical edges on some source-to-sink path of at most (optimal hops +
#: slack) physical-link traversals (see
#: :func:`repro.core.logical.prune_to_cost_bound`).  Tightening is what
#: stops unconstrained ``.*`` paths from gluing every statement into one MIP
#: component.  The default of 2 admits, on top of the full equal-cost
#: multipath diversity at optimal length, detours around one node (an
#: alternate path that enters and leaves one extra location — e.g. the
#: long side of the Figure 3 dumbbell), which is what the min-max
#: objectives use to spread load; it still excludes far-away links (a
#: fat-tree core detour for intra-rack traffic costs 4 extra hops).
#: The bound is a genuine restriction: a workload whose min-max optimum
#: (or feasibility) needs a longer detour would be mis-served — which is
#: why the engine retries infeasible components with geometrically
#: widened slack (2 -> 4 -> 8 -> None; see :func:`widen_slack`)
#: instead of reporting a tightening artifact as a hard infeasibility.
DEFAULT_FOOTPRINT_SLACK: Optional[int] = 2

#: The widening ladder's last finite rung: an infeasible component widens
#: its members' slack geometrically (2 -> 4 -> 8) and past this value drops
#: tightening entirely (slack ``None``), so the final retry solves the
#: untightened reference model and a remaining infeasibility is genuine.
MAX_WIDENED_SLACK: int = 8


def widen_slack(slack: Optional[int]) -> Optional[int]:
    """The next rung of the geometric slack-widening ladder.

    ``None`` (untightened) is terminal — there is nothing wider.  Finite
    slacks double (0 steps to 1 first) until they would exceed
    :data:`MAX_WIDENED_SLACK`, at which point tightening is dropped.
    """
    if slack is None:
        return None
    wider = slack * 2 if slack > 0 else 1
    return None if wider > MAX_WIDENED_SLACK else wider


@dataclass(frozen=True)
class ProvisionOptions:
    """How guaranteed traffic is provisioned, independent of what is provisioned.

    ``solver`` — which LP/MIP backend solves the provisioning models: a
    backend name (``"scipy"``, ``"bnb"``, ``"heuristic"`` — see
    :mod:`repro.lp.backends`), an explicit backend instance, or ``None`` to
    let :meth:`backend` pick the default for the configured limits
    (``"bnb"`` when ``node_limit`` is set — scipy cannot bound its search —
    else ``"scipy"``).  A limit is honoured or refused: a ``node_limit``
    with a name other than ``"bnb"`` is an error here, at construction.

    ``partition`` — whether the MIP is decomposed into link-disjoint
    components (``False``: every resolve, compile or delta, treats all
    statements as one untightened component over every link — the same
    canonical build, solve, memo and decode as any component, so
    ``footprint_slack`` has nothing to act on).

    ``footprint_slack`` — the base cost-bound tightening applied to every
    statement's logical topology (``None`` disables tightening).  A
    component that comes back infeasible under it is always retried with
    geometrically widened slack (:func:`widen_slack`) before it fails: the
    tightening is a heuristic, so its artifacts must not surface as
    infeasibility.

    No backend is handed a MIP start: every component is solved from its
    canonical model alone, which is what keeps a session's allocations
    equal to a from-scratch compile's on every backend.

    ``component_cache`` — a :class:`repro.fabric.ComponentSolutionCache`
    consulted (by canonical content signature) before any component model
    is built, and populated with proven-optimal solutions after fresh
    solves.  ``None`` disables content caching; the engine's
    session-local solution memo is unaffected either way.
    """

    solver: Optional[object] = None
    partition: bool = True
    footprint_slack: Optional[int] = DEFAULT_FOOTPRINT_SLACK
    time_limit_seconds: Optional[float] = None
    node_limit: Optional[int] = None
    component_cache: Optional[object] = None

    def __post_init__(self) -> None:
        solver = self.solver
        if isinstance(solver, str):
            known = solver in BACKENDS
        else:
            known = solver is None or callable(getattr(solver, "solve", None))
        if not known:
            raise ValueError(
                f"unknown solver backend {solver!r}; backends: "
                f"{', '.join(BACKENDS)}, or an instance with a solve(form) "
                "method"
            )
        # Resolved once here, so that a limit the named backend cannot
        # honour is refused where it is set and not in the first solve.
        self.backend()

    def backend(self) -> object:
        """The backend instance component models are solved with.

        Resolution lives in :func:`repro.lp.backends.resolve_backend`:
        names are instantiated with this options value's
        ``time_limit_seconds`` / ``node_limit``, explicit instances are
        returned by identity (their own configured limits win), and
        ``None`` selects the default backend for the limits.
        """
        return resolve_backend(
            self.solver,
            time_limit_seconds=self.time_limit_seconds,
            node_limit=self.node_limit,
        )
