"""Component models solved on the fabric's worker processes.

A worker is handed a component's sparse standard form and hands back the
solution's column vector, not a map keyed by variable name; the parent
slices paths and reservations out of it.  Whether a component was solved
in a worker or in-process must not show in its ``PartitionSolution``:
every field is equal, timings aside.
"""

import dataclasses

import numpy as np

from repro.core.localization import localize
from repro.core.options import ProvisionOptions
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.fabric import SolveFabric
from repro.incremental import IncrementalProvisioner


class _RecordingFabric(SolveFabric):
    """A fabric that keeps every (payload, worker outcome) it relays."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exchanges = []

    def solve(self, payloads, estimates=None, task=None):
        outcomes = super().solve(payloads, estimates=estimates, task=task)
        self.exchanges.extend(zip(payloads, outcomes))
        return outcomes


def _resolve(fabric):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    engine = IncrementalProvisioner(
        scenario.topology, options=ProvisionOptions(fabric=fabric)
    )
    rates = localize(scenario.policy)
    for statement in scenario.policy.statements:
        engine.add_statement(statement, rates[statement.identifier].guarantee)
    return engine.resolve()


def _untimed(solution):
    fields = {
        field.name: getattr(solution, field.name)
        for field in dataclasses.fields(solution)
        if field.name not in ("construction_seconds", "solve_seconds")
    }
    fields["statistics"] = {
        key: value
        for key, value in solution.statistics.items()
        if key != "solve_seconds"
    }
    fields["span"] = {
        key: value for key, value in solution.span.items() if key != "duration"
    }
    return fields


def test_workers_return_the_column_vector_and_solutions_equal_serial_ones():
    fabric = _RecordingFabric(max_workers=2)
    try:
        pooled = _resolve(fabric)
    finally:
        fabric.shutdown()
    serial = _resolve(None)

    assert fabric.spawned == 1, "the components must have gone to workers"
    assert len(fabric.exchanges) == pooled.num_partitions >= 2
    for (form, _solver), (status, x, *_rest) in fabric.exchanges:
        assert status == "optimal"
        assert isinstance(x, np.ndarray) and x.shape == (form.num_variables(),)
    assert [_untimed(s) for s in pooled.partition_solutions] == [
        _untimed(s) for s in serial.partition_solutions
    ]
