"""The objective resolution a form declares, and the branch-and-bound
pruning gap it scales."""

import math

from repro.lp import BranchAndBoundSolver, SolveStatus
from tests.lp.forms import _form


class TestObjectiveResolution:
    def test_declared_resolution_keeps_an_incumbent_from_pruning_a_better_near_tie(self):
        """The search meets x=0 (objective 0.5) before x=1 (0.5 - 1e-9).
        Inside the default 1e-6 gap the first incumbent prunes the better
        one; with the resolution declared (as the provisioning builder
        does for min-max models) the gap scales below it."""

        def near_tie(resolution=None):
            # Columns x (binary) and t >= 0: min t - 1e-9 x subject to
            # t + x >= 0.5 and t - x >= -0.5.
            return _form(
                [-1e-9, 1.0],
                a_ub=[[-1.0, -1.0], [1.0, -1.0]],
                b_ub=[-0.5, 0.5],
                upper=[1.0, math.inf],
                integer=[0],
                resolution=resolution,
            )

        assert BranchAndBoundSolver().solve(near_tie()).x[0] == 0.0
        result = BranchAndBoundSolver().solve(near_tie(resolution=1e-9))
        assert result.status is SolveStatus.OPTIMAL
        assert result.x[0] == 1.0

    def test_provisioning_models_declare_objective_resolution(self):
        """The min-max provisioning objectives publish their tiebreaker
        epsilon so gap-based solvers can scale below it."""
        from repro.core.localization import localize
        from repro.core.logical import build_logical_topology, infer_endpoints
        from repro.core.parser import parse_policy
        from tests.reference_provisioning import array_model_over_topology
        from repro.topology.generators import figure2_example
        from repro.units import Bandwidth

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        policy = parse_policy(
            """
            [ z : (eth.src = 00:00:00:00:00:01 and
                   eth.dst = 00:00:00:00:00:02) -> .* ],
            min(z, 50MB/s)
            """,
            topology=topology,
        )
        rates = localize(policy)
        statement = policy.statements[0]
        source, destination = infer_endpoints(statement, topology)
        logical = {
            "z": build_logical_topology(
                statement, topology, {}, source=source, destination=destination
            )
        }
        form = array_model_over_topology([statement], logical, rates, topology).model
        resolution = form.objective_resolution
        assert resolution is not None and resolution > 0.0
        # The declared resolution IS the per-edge tiebreaker coefficient.
        tiebreaker_coefficients = set(form.c[: form.layout.r_max].tolist())
        assert tiebreaker_coefficients == {resolution}
