"""Adaptive re-provisioning through the incremental compilation path.

The paper's negotiators make *bandwidth* re-allocation recompile-free
(§4.3).  This example walks the remaining case — a verified tenant
refinement that changes *paths* — through the incremental engine:

1. the administrator compiles a global policy (guaranteed FTP and HTTP
   traffic between h1 and h2 on the Figure 2 network),
2. the root negotiator is attached to the live compiler session,
3. the tenant refines the FTP statement to force its traffic through the
   middlebox ``m1`` — verification accepts it, and the negotiator pushes a
   one-statement delta through ``MerlinCompiler.recompile`` instead of a
   full recompilation,
4. a second refinement only lowers a guarantee: the delta engine rewrites
   one reservation row and re-solves the single MIP component it touched.

Run with:  PYTHONPATH=src python examples/adaptive_reprovisioning.py
"""

from repro import Bandwidth, MerlinCompiler, figure2_example, parse_policy
from repro.negotiator import Negotiator

PLACEMENTS = {"dpi": ["h1", "h2", "m1"], "nat": ["m1"], "log": ["m1"]}

GLOBAL_POLICY = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
min(x, 25MB/s) and min(z, 50MB/s)
"""

#: The tenant pins x's inspection to the middlebox (a *stricter* path
#: language: every m1-inspected path was already a dpi-capable path).
PATH_REFINEMENT = GLOBAL_POLICY.replace(".* dpi .* ;", ".* m1 dpi .* ;")

#: A later adaptation: x needs less bandwidth.
RATE_REFINEMENT = PATH_REFINEMENT.replace("min(x, 25MB/s)", "min(x, 10MB/s)")


def show(result, title: str) -> None:
    statistics = result.statistics
    print(f"\n--- {title} ---")
    for identifier in sorted(result.paths):
        assignment = result.paths[identifier]
        rate = (
            assignment.guaranteed_rate.human()
            if assignment.guaranteed_rate
            else "best-effort"
        )
        print(f"  {identifier}: {' -> '.join(assignment.path)}  [{rate}]")
    print(
        f"  partitions: {statistics.num_partitions} "
        f"(re-solved {statistics.dirty_partitions}), "
        f"solver: {statistics.solver_status}, "
        f"total {statistics.total_seconds * 1000:.1f} ms"
    )


def main() -> None:
    topology = figure2_example(capacity=Bandwidth.gbps(2))
    compiler = MerlinCompiler(
        topology=topology,
        placements=PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    policy = parse_policy(GLOBAL_POLICY, topology=topology)
    result = compiler.compile(policy)
    show(result, "Initial compile (full MIP)")

    root = Negotiator(name="administrator", policy=policy, compiler=compiler)

    refined = parse_policy(PATH_REFINEMENT, topology=topology)
    report = root.propose(refined)
    print(f"\npath refinement verified: {report.valid}")
    show(root.last_reprovision, "After path refinement (incremental recompile)")

    adapted = parse_policy(RATE_REFINEMENT, topology=topology)
    report = root.propose(adapted)
    print(f"\nrate refinement verified: {report.valid}")
    show(root.last_reprovision, "After rate adaptation (one reservation row rewritten)")

    print(
        "\nEvery result above is identical to a from-scratch compile of the "
        "same policy;\nonly the work to produce it shrank."
    )


if __name__ == "__main__":
    main()
