"""A statement whose path expression pins a switch endpoint, and that switch
fails.

``s1 .* s3`` gives the statement the endpoints ``(s1, s3)`` without a host
in its predicate.  Once ``s1`` is down the degraded topology has no such
node, and the product graph on it is empty: a guaranteed statement can no
longer be provisioned (the delta is refused and rolled back), a best-effort
one is marked infeasible, and recovering the switch restores its path.
"""

import pytest

from repro.core import MerlinCompiler
from repro.errors import ProvisioningError
from repro.incremental import TopologyDelta
from repro.scenarios import allocations_match
from repro.topology.generators import linear

STATEMENT = "[ a : ip.proto = 6 -> s1 .* s3 ]"


def _compiled(formula):
    compiler = MerlinCompiler(topology=linear(4))
    return compiler, compiler.compile(f"{STATEMENT}, {formula}(a, 1Mbps)")


def test_a_guaranteed_statement_on_a_failed_endpoint_is_refused_and_rolled_back():
    compiler, initial = _compiled("min")
    assert initial.paths["a"].path == ("s1", "s2", "s3")
    with pytest.raises(
        ProvisioningError, match="no feasible path .* on the degraded topology"
    ):
        compiler.recompile(TopologyDelta(fail_nodes=("s1",)))
    assert compiler._session.failed_nodes == frozenset()
    assert allocations_match(compiler.recompile(TopologyDelta()), initial)


def test_a_best_effort_statement_on_a_failed_endpoint_is_infeasible():
    compiler, initial = _compiled("max")
    assert initial.paths["a"].path == ("s1", "s2", "s3")
    failed = compiler.recompile(TopologyDelta(fail_nodes=("s1",)))
    assert "a" not in failed.paths
    assert compiler._session.engine.records["a"].infeasible


def test_recovering_the_endpoint_restores_the_path():
    compiler, initial = _compiled("max")
    compiler.recompile(TopologyDelta(fail_nodes=("s1",)))
    recovered = compiler.recompile(TopologyDelta(recover_nodes=("s1",)))
    assert not compiler._session.engine.records["a"].infeasible
    assert recovered.paths["a"].path == initial.paths["a"].path
    assert allocations_match(recovered, initial)
