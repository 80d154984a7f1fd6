"""Component models shared by the tests of the direct HiGHS call."""

import dataclasses

import pytest

from repro.lp import ScipySolver
from repro.scenarios import ScenarioConfig, generate_scenario, replay
from tests import alloc_digest

#: The compiles of ``tests/alloc_digest.py`` whose models join the replay's.
COMPILES = ("compile-guaranteed/0/default", "compile-campus-default/0")


@pytest.fixture(scope="session")
def component_solves():
    """Every form ``ScipySolver`` is handed by the first 100 events of the
    seed-1 churn scenario (``"churn"``) and by the two compiles
    (``"compile"``), with its answer."""
    solves = {"churn": [], "compile": []}
    into = solves["churn"]
    solve = ScipySolver.solve

    def recording(self, form):
        into.append((form, solve(self, form)))
        return into[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScipySolver, "solve", recording)
        scenario = generate_scenario(ScenarioConfig(seed=1, events=120, arity=4))
        replay(
            dataclasses.replace(scenario, events=scenario.events[:100]),
            check_simulator=False,
            verify_final=False,
        )
        into = solves["compile"]
        for name, run in alloc_digest.cases():
            if name in COMPILES:
                run()
            if name == COMPILES[-1]:
                break
    return solves
