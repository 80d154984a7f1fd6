"""The unified ProvisionOptions surface."""

import warnings

import pytest

from repro.core import DEFAULT_FOOTPRINT_SLACK, MerlinCompiler, ProvisionOptions
from repro.errors import MerlinError
from repro.lp.branch_and_bound import BranchAndBoundSolver
from repro.lp.scipy_backend import ScipySolver
from repro.topology.generators import figure2_example
from repro.units import Bandwidth

PLACEMENTS = {"dpi": ("m1",), "nat": ("m1",)}

SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* ],
min(x, 25MB/s)
"""


class TestProvisionOptions:
    def test_defaults(self):
        options = ProvisionOptions()
        assert options.partition is True
        assert options.footprint_slack == DEFAULT_FOOTPRINT_SLACK

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ProvisionOptions().partition = False

    def test_backend_prefers_explicit_instance(self):
        backend = ScipySolver()
        options = ProvisionOptions(solver=backend, node_limit=10)
        assert options.backend() is backend

    def test_backend_node_limit_builds_branch_and_bound(self):
        resolved = ProvisionOptions(node_limit=10).backend()
        assert isinstance(resolved, BranchAndBoundSolver)
        assert resolved.max_nodes == 10

    def test_backend_time_limit_builds_scipy(self):
        resolved = ProvisionOptions(time_limit_seconds=1.0).backend()
        assert isinstance(resolved, ScipySolver)
        assert resolved.time_limit_seconds == 1.0

    def test_backend_default_is_scipy(self):
        assert isinstance(ProvisionOptions().backend(), ScipySolver)

    def test_backend_accepts_registered_names(self):
        resolved = ProvisionOptions(solver="bnb", node_limit=7).backend()
        assert isinstance(resolved, BranchAndBoundSolver)
        assert resolved.max_nodes == 7

    def test_unknown_backend_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            ProvisionOptions(solver="simplex2000")

    @pytest.mark.parametrize("name", ["auto", "highs"])
    def test_deleted_backend_names_are_unknown(self, name):
        with pytest.raises(ValueError, match="backends: scipy, bnb, heuristic"):
            ProvisionOptions(solver=name)

    @pytest.mark.parametrize("name", ["scipy", "heuristic"])
    def test_node_limit_a_backend_cannot_honour_is_refused_not_dropped(self, name):
        """Only branch-and-bound can bound its search by node count, and a
        limit that would be discarded without a word is worse than none."""
        with pytest.raises(MerlinError, match='solver="bnb"'):
            ProvisionOptions(solver=name, node_limit=1)

    @pytest.mark.parametrize("solver", [42, object()])
    def test_solver_that_is_no_backend_rejected_at_construction(self, solver):
        """Not a name and nothing with a ``solve`` method to call: refused
        here, not by an ``AttributeError`` in the middle of the first solve."""
        with pytest.raises((MerlinError, ValueError), match="scipy, bnb, heuristic"):
            ProvisionOptions(solver=solver)

    def test_third_party_instance_is_accepted(self):
        class Mine:
            def solve(self, form):
                raise NotImplementedError

        mine = Mine()
        assert ProvisionOptions(solver=mine, node_limit=3).backend() is mine


class TestCompilerShim:
    def test_options_path_warns_nothing_and_binds_attributes(self):
        backend = ScipySolver()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiler = MerlinCompiler(
                topology=figure2_example(capacity=Bandwidth.gbps(2)),
                placements=PLACEMENTS,
                options=ProvisionOptions(solver=backend),
            )
        assert compiler.options.backend() is backend

    def test_compile_and_recompile_share_one_options_value(self):
        compiler = MerlinCompiler(
            topology=figure2_example(capacity=Bandwidth.gbps(2)),
            placements=PLACEMENTS,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
            options=ProvisionOptions(),
        )
        options_before = compiler.options
        compiler.compile(SOURCE)
        assert compiler.options is options_before
        assert compiler._session.engine.options is options_before
