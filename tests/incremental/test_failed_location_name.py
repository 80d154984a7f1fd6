"""A failed location named in a path expression stays a location.

A session decides which path-expression symbols are functions from the
names of the topology it was made on, not from the degraded topology a
failure leaves.  ``m1`` is the middlebox of Figure 2; a placement of the
same name must not turn it into a function once it is down, for the
guaranteed statement (placed by the merge) or the constrained best-effort
one (placed by the session), and recovering it changes nothing either.
"""

from repro.core import MerlinCompiler
from repro.incremental import TopologyDelta
from repro.topology.generators import figure2_example

PATH = "(h1 .* m1 .* h2) | (h1 s1 s2 h2)"
POLICY = (
    f"[ g : tcp.dst = 80 -> {PATH} ; b : tcp.dst = 22 -> {PATH} ], min(g, 1Mbps)"
)


def test_a_failed_location_is_never_placed_as_a_function():
    compiler = MerlinCompiler(
        topology=figure2_example(), placements={"m1": ["s2"]}, generate_code=True
    )
    result = compiler.compile(POLICY)
    placed = {identifier: result.paths[identifier] for identifier in ("g", "b")}
    assert all(assignment.function_placements == {} for assignment in placed.values())
    for delta in (
        TopologyDelta(fail_nodes=("m1",)),
        TopologyDelta(recover_nodes=("m1",)),
        TopologyDelta(fail_links=(("m1", "s1"),)),
    ):
        result = compiler.recompile(delta)
        for identifier in ("g", "b"):
            assignment = result.paths[identifier]
            assert "m1" not in assignment.path
            assert assignment.function_placements == {}
        assert not result.instructions.click
