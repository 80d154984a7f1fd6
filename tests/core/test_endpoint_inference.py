"""Endpoint inference reads only what a predicate forces.

``infer_endpoints`` used to scan every atom of the predicate, whatever its
polarity and in set order: a negated test pinned the very host it excludes,
a disjunction picked an arm by hash seed, and the generated catch-all got a
different random endpoint pair in every process.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.ast import Statement
from repro.core.logical import infer_endpoints
from repro.predicates.ast import FieldTest, pred_and, pred_not, pred_or
from repro.regex.parser import parse_path_expression
from repro.topology.generators import fat_tree, single_switch


def _statement(predicate, path=".*"):
    return Statement("s", predicate, parse_path_expression(path))


def test_negated_test_does_not_pin_the_excluded_host():
    topology = single_switch(3)
    mac = {name: topology.node(name).mac for name in ("h1", "h2", "h3")}
    predicate = pred_and(
        pred_not(FieldTest("eth.src", mac["h1"])), FieldTest("eth.dst", mac["h2"])
    )
    assert infer_endpoints(_statement(predicate), topology) == (None, "h2")
    # The path expression still fills in what the predicate leaves open.
    assert infer_endpoints(_statement(predicate, "h3 .*"), topology) == ("h3", "h2")


def test_disjunction_pins_only_what_every_arm_pins():
    topology = single_switch(3)
    mac = {name: topology.node(name).mac for name in ("h1", "h2", "h3")}
    either_source = pred_and(
        pred_or(FieldTest("eth.src", mac["h1"]), FieldTest("eth.src", mac["h2"])),
        FieldTest("eth.dst", mac["h3"]),
    )
    assert infer_endpoints(_statement(either_source), topology) == (None, "h3")
    same_source = pred_or(
        pred_and(FieldTest("eth.src", mac["h1"]), FieldTest("tcp.dst", 80)),
        pred_and(FieldTest("eth.src", mac["h1"]), FieldTest("tcp.dst", 22)),
    )
    assert infer_endpoints(_statement(same_source), topology) == ("h1", None)


def test_ip_addresses_pin_hosts_when_macs_do_not():
    topology = single_switch(3)
    predicate = pred_and(
        FieldTest("ip.src", topology.node("h2").ip),
        FieldTest("ip.dst", topology.node("h1").ip),
    )
    assert infer_endpoints(_statement(predicate), topology) == ("h2", "h1")


@pytest.mark.parametrize(
    "path, expected",
    [
        # The shortest word is "h11", but "h1 h11" starts elsewhere.
        ("h1* .* h11", (None, "h11")),
        # Either arm may start the path; the shortest word picked one.
        ("(h1 | h10) .* h11", (None, "h11")),
        ("h1 .* (h11 | h10)", ("h1", None)),
        ("h1 .* h11", ("h1", "h11")),
    ],
)
def test_only_mandatory_boundary_symbols_pin_endpoints(path, expected):
    """The path expression pins an endpoint only with a symbol every word
    it accepts starts (ends) with, not with the first (last) symbol of
    whichever shortest word the automaton found."""
    statement = _statement(FieldTest("tcp.dst", 80), path)
    assert infer_endpoints(statement, fat_tree(4)) == expected


def test_a_failing_boundary_search_is_not_reported_as_unknown_endpoints(monkeypatch):
    """An error inside ``shortest_accepted`` used to be swallowed and read as
    "the path expression names no endpoints"."""
    import repro.core.logical as logical_module

    def broken(path):
        raise RuntimeError("bug in the automaton search")

    monkeypatch.setattr(logical_module, "shortest_accepted", broken)
    with pytest.raises(RuntimeError, match="bug in the automaton search"):
        infer_endpoints(_statement(FieldTest("tcp.dst", 80), "h1 .* h2"), single_switch(3))


_CATCH_ALL_SCRIPT = """
from repro.core.logical import infer_endpoints
from repro.core.parser import parse_policy
from repro.core.preprocessor import preprocess
from repro.topology.generators import single_switch

topology = single_switch(4)
macs = [topology.node(name).mac for name in topology.host_names()]
statements = " ; ".join(
    f"s{i}{j} : (eth.src = {a} and eth.dst = {b}) -> .*"
    for i, a in enumerate(macs) for j, b in enumerate(macs) if a != b
)
policy = preprocess(parse_policy(f"[ {statements} ]", topology=topology)).policy
catch_all = policy.statements[-1]
assert catch_all.identifier == "default"
print(infer_endpoints(catch_all, topology))
"""


def test_generated_catch_all_has_no_endpoints_under_any_hash_seed():
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for seed in ("1", "2"):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-c", _CATCH_ALL_SCRIPT],
            capture_output=True, text=True, env=environment, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.strip())
    assert outputs == ["(None, None)", "(None, None)"]
