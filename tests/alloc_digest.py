"""One hash per compile over a fixed set of policies, for byte-identity checks.

Run from the repository root as ``PYTHONPATH=src python -m tests.alloc_digest
> FILE`` (or ``make alloc-digest``); each line is ``<case> <digest>
<tie-blind digest>``.  A change that must leave every allocation alone
prints the same file as its parent, under any ``PYTHONHASHSEED``.
``python -m tests.alloc_digest --compare PARENT CHILD`` reads two such
files and prints, per column, how many lines changed and which; it exits
1 when any did.  A digest
covers the paths with their function placements, the link reservations,
``repr(result.instructions)``, ``str(result.policy)``, the order and content
of ``result.rates`` and the maximum link utilisation; a compile that raises
hashes its error instead, in both columns.

The tie-blind digest covers only ``repr(result.max_link_utilization())`` and
the summed hop count of the guaranteed statements' paths, which equal
per-component objectives fix.  A change that may move which of several
exactly tied optima a solver returns (a solver option, a new backend path)
may change the first column; it must leave the second unchanged on every
line.

The cases:

* the first four policies of the ``compile-guaranteed`` and
  ``compile-campus-default`` benchmark workloads at seed 1 (their inputs
  come from ``bench/inputs.py``, read and never changed), and the first two
  ``compile-guaranteed`` policies again under the ``heuristic`` backend;
* the first campus policy recompiled after a zone-to-backbone link failure,
  which holds the best-effort answers on a degraded view;
* two policies written in the sugar of §2.1: a ``foreach`` over
  ``cross(srcs, dsts)`` of campus host names with an ``at max(...)``
  annotation, and a one-set ``foreach`` over the MACs of ``fat_tree(4)``
  hosts with an ``at min(...)`` guarantee;
* all-pairs policies (the first 60 classes) on ``fat_tree(4)``,
  ``linear(12)`` and zoo-like WANs of 20 and 30 switches, for seeds 0-2,
  guarantee fractions 0.1 and 0.3, every backend in ``repro.lp.BACKENDS``
  and partitioning on and off.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core import MerlinCompiler, ProvisionOptions
from repro.errors import MerlinError
from repro.experiments.policy_builders import all_pairs_policy
from repro.incremental import TopologyDelta
from repro.lp import BACKENDS
from repro.topology.generators import fat_tree, linear, stanford_campus, topology_zoo_like

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
import inputs  # noqa: E402  (bench/inputs.py)

SEED = 1
CAMPUS_PLACEMENTS = {"dpi": ("dpi1", "dpi2"), "monitor": ("mon1", "mon2")}
#: A zone-to-backbone link on the way to ``dpi1`` and away from ``mon1``.
CAMPUS_BACKBONE_FAILURE = ("zone1_rtr", "bbra_rtr")
#: Web traffic from three subnets to three others through a DPI box, capped.
CAMPUS_CROSS_SOURCE = """
srcs := {subnet1, subnet2, subnet3}
dsts := {subnet7, subnet8, subnet9}
foreach (s,d) in cross(srcs, dsts):
  tcp.dst = 80 -> .* dpi .* at max(50MB/s)
"""


def digest(result) -> str:
    body = (
        [
            (identifier, path.path, sorted(path.function_placements.items()))
            for identifier, path in result.paths.items()
        ],
        sorted((link, rate.bps_value) for link, rate in result.link_reservations.items()),
        repr(result.instructions),
        str(result.policy),
        list(result.rates.items()),
        repr(result.max_link_utilization()),
    )
    return _sha(repr(body))


def tie_blind_digest(result) -> str:
    hops = sum(
        len(result.paths[identifier].path) - 1
        for identifier in result.guaranteed_statements()
    )
    return _sha(repr((repr(result.max_link_utilization()), hops)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _hosts(topology):
    hosts = topology.host_names()
    return hosts, {name: topology.node(name).mac for name in hosts}


def _campus():
    topology = stanford_campus(subnets=12)
    for box, switch in (
        ("dpi1", "bbra_rtr"), ("dpi2", "bbrb_rtr"), ("mon1", "zone1_rtr"), ("mon2", "zone2_rtr")
    ):
        topology.add_middlebox(box, attached_switch=switch)
        topology.add_link(box, switch)
    return topology


def _failed_after_compile(compiler, source, link):
    compiler.compile(source)
    return compiler.recompile(TopologyDelta(fail_links=(link,)))


def cases() -> Iterator[Tuple[str, Callable[[], object]]]:
    """``(name, compile)`` for every case, in output order."""
    guaranteed = fat_tree(8)
    hosts, macs = _hosts(guaranteed)
    for index, solver in [*((i, None) for i in range(4)), (0, "heuristic"), (1, "heuristic")]:
        source = inputs.guaranteed_policy(
            hosts, macs, inputs.rng_for("compile-guaranteed", SEED, index), 300
        ).source
        compiler = MerlinCompiler(
            topology=guaranteed,
            overlap="trust",
            add_catch_all=False,
            options=ProvisionOptions(solver=solver),
        )
        yield f"compile-guaranteed/{index}/{solver or 'default'}", (
            lambda compiler=compiler, source=source: compiler.compile(source)
        )
    campus = _campus()
    hosts, macs = _hosts(campus)
    for index in range(4):
        source = inputs.campus_policy(
            hosts, macs, inputs.rng_for("compile-campus-default", SEED, index)
        ).source
        compiler = MerlinCompiler(topology=campus, placements=CAMPUS_PLACEMENTS)
        yield f"compile-campus-default/{index}", (
            lambda compiler=compiler, source=source: compiler.compile(source)
        )
    source = inputs.campus_policy(
        hosts, macs, inputs.rng_for("compile-campus-default", SEED, 0)
    ).source
    compiler = MerlinCompiler(topology=campus, placements=CAMPUS_PLACEMENTS)
    yield f"compile-campus-default/0/fail={'-'.join(CAMPUS_BACKBONE_FAILURE)}", (
        lambda compiler=compiler, source=source: _failed_after_compile(
            compiler, source, CAMPUS_BACKBONE_FAILURE
        )
    )
    compiler = MerlinCompiler(topology=campus, placements=CAMPUS_PLACEMENTS)
    yield "sugar/campus-cross", lambda compiler=compiler: compiler.compile(CAMPUS_CROSS_SOURCE)
    pods = fat_tree(4)
    hosts, macs = _hosts(pods)
    source = (
        f"hosts := {{{', '.join(macs[host] for host in hosts[:5])}}}\n"
        "foreach (s,d) in hosts: tcp.dst = 80 -> .* at min(5Mbps)"
    )
    compiler = MerlinCompiler(topology=pods)
    yield "sugar/fat_tree4-one-set", lambda compiler=compiler, source=source: compiler.compile(
        source
    )
    for seed in range(3):
        topologies = {
            "fat_tree4": fat_tree(4),
            "linear12": linear(12),
            "zoo20": topology_zoo_like(20, seed=seed),
            "zoo30": topology_zoo_like(30, seed=seed),
        }
        for (name, topology), fraction, solver, partition in itertools.product(
            topologies.items(), (0.1, 0.3), BACKENDS, (True, False)
        ):
            policy = all_pairs_policy(
                topology, guarantee_fraction=fraction, seed=seed, max_classes=60
            )
            compiler = MerlinCompiler(
                topology=topology,
                overlap="trust",
                options=ProvisionOptions(solver=solver, partition=partition),
            )
            yield f"{name}/seed{seed}/{fraction}/{solver}/partition={partition}", (
                lambda compiler=compiler, policy=policy: compiler.compile(policy)
            )


def main() -> None:
    for name, run in cases():
        try:
            result = run()
            line = f"{digest(result)} {tie_blind_digest(result)}"
        except MerlinError as error:  # a refusal is part of the content
            error_digest = _sha(f"{type(error).__name__}: {error}")
            line = f"error {error_digest} {error_digest}"
        print(name, line, flush=True)


def _columns(path: str) -> Dict[str, List[str]]:
    """Case name -> its digest columns, as one file of :func:`main` holds
    them (an error line's two digests each keep their ``error`` mark; a
    file older than the tie-blind column has one)."""
    columns = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            name, *digests = line.split()
            if digests[0] == "error":
                digests = [f"error {value}" for value in digests[1:]]
            columns[name] = digests
    return columns


def compare(parent_path: str, child_path: str) -> int:
    """Print the lines whose digests changed from ``parent_path`` to
    ``child_path``, column by column; 1 if any case changed or is missing
    from one of the files, else 0."""
    parent, child = _columns(parent_path), _columns(child_path)
    changed = False
    for label, names in (
        ("only in parent", [name for name in parent if name not in child]),
        ("only in child", [name for name in child if name not in parent]),
    ):
        if names:
            changed = True
            print(f"{label}: {len(names)}")
            print("".join(f"  {name}\n" for name in names), end="")
    common = [name for name in parent if name in child]
    for column, label in enumerate(("full", "tie-blind")):
        both = [
            name
            for name in common
            if len(parent[name]) > column and len(child[name]) > column
        ]
        moved = [name for name in both if parent[name][column] != child[name][column]]
        changed = changed or bool(moved)
        print(f"{label}: {len(moved)} of {len(both)} lines changed")
        print("".join(f"  {name}\n" for name in moved), end="")
    return int(changed)


if __name__ == "__main__":
    arguments = argparse.ArgumentParser(
        prog="python -m tests.alloc_digest",
        description="Print one digest line per compile of a fixed policy set.",
    )
    arguments.add_argument(
        "--compare",
        nargs=2,
        metavar=("PARENT", "CHILD"),
        help="compare two printed files instead, column by column",
    )
    options = arguments.parse_args()
    if options.compare:
        sys.exit(compare(*options.compare))
    main()
