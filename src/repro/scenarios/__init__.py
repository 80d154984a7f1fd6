"""Churn & failure scenario engine.

Seeded, deterministic streams of network churn — link/switch failures and
recoveries, tenant join/leave waves, diurnal and flash-crowd rate
renegotiations, middlebox-chain rewrites — as typed
:class:`~repro.scenarios.events.ScenarioEvent` objects, plus a driver that
replays a stream against a live transactional compiler session and the
fluid simulator in lockstep.

* :mod:`repro.scenarios.events` — the event vocabulary; every event knows
  the :class:`PolicyDelta` / :class:`TopologyDelta` it applies.
* :mod:`repro.scenarios.generator` — :func:`generate_scenario` builds a
  fat-tree population (with per-pod backup chains and middleboxes sized so
  failures exercise the slack-widening ladder) and a reproducible stream.
* :mod:`repro.scenarios.driver` — :func:`replay` applies the stream through
  :meth:`MerlinCompiler.session`, recording latency percentiles,
  availability, rollbacks/invalidations, and widening recoveries, then
  verifies the final session allocation against a from-scratch compile.
"""

from .driver import EventRecord, ReplayReport, allocations_match, replay
from .events import (
    LinkFailure,
    LinkRecovery,
    MiddleboxRewrite,
    RateRenegotiation,
    ScenarioEvent,
    SwitchFailure,
    SwitchRecovery,
    TenantJoin,
    TenantLeave,
)
from .generator import (
    Scenario,
    ScenarioConfig,
    ScenarioPopulation,
    build_population,
    generate_scenario,
)

__all__ = [
    "EventRecord",
    "ReplayReport",
    "allocations_match",
    "replay",
    "ScenarioEvent",
    "LinkFailure",
    "LinkRecovery",
    "SwitchFailure",
    "SwitchRecovery",
    "TenantJoin",
    "TenantLeave",
    "RateRenegotiation",
    "MiddleboxRewrite",
    "Scenario",
    "ScenarioConfig",
    "ScenarioPopulation",
    "build_population",
    "generate_scenario",
]
