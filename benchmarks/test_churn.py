"""Churn & failure scenario replay — the self-healing session under load.

A seeded scenario stream (link/switch failures and recoveries, tenant
join/leave, diurnal + flash-crowd renegotiations, middlebox rewrites) is
replayed against one live transactional session, with the fluid simulator
checking every resulting allocation on the degraded topology in lockstep.

Acceptance: the stream runs to completion with **zero session
invalidations** — every cost-bound infeasibility (the slack-2 pruned model
excluding the only viable backup paths) is recovered by geometric slack
widening rather than surfacing as a failure — and the final session
allocation is provably identical to a fresh session given the final policy
and failure state.  The quick run is a 200-event stream on the arity-4 fat
tree; the full-scale run (``MERLIN_BENCH_SCALE=full``) is the 500-event
arity-6 stream with up to two concurrent failures per pod.
"""

from repro.scenarios import ScenarioConfig, generate_scenario, replay

from conftest import is_full_scale

#: Seeds are pinned so the streams are reproducible AND known to exercise
#: the widening ladder (verified: >= 1 widened event per configuration).
QUICK = ScenarioConfig(seed=1, events=200, arity=4)
FULL = ScenarioConfig(
    seed=1,
    events=500,
    arity=6,
    max_failures_per_pod=2,
    max_concurrent_failures=6,
)


def _run():
    config = FULL if is_full_scale() else QUICK
    scenario = generate_scenario(config)
    return config, replay(scenario)


def test_churn_replay(report):
    config, result = _run()
    report(
        "churn_replay",
        f"scenario: fat-tree k={config.arity}, {config.events} events, "
        f"seed={config.seed}\n" + result.summary(),
    )
    # Every event must be processed: applied, or rejected-and-rolled-back
    # with the session intact.  An invalidated session is the failure mode
    # the widening ladder exists to prevent.
    assert len(result.records) == config.events
    assert result.invalidations == 0
    assert result.rejected == 0
    # The widening ladder actually ran (the pinned seed guarantees at
    # least one cost-bound infeasibility) and recovered every one.
    assert result.widened_events >= 1
    # Lockstep simulation: the compiled guarantees fit the degraded fabric
    # after every single event, at full availability.
    assert result.simulator_inconsistencies == 0
    assert result.min_availability() == 1.0
    # Replayed history == fresh session with the final policy + failures.
    assert result.final_identical is True
