"""Figure 9: negotiator verification scaling.

Three sweeps, each verifying a delegated policy against its parent while
one dimension grows:

1. the number of (refined) predicates / statements,
2. the complexity of the path regular expressions (AST node count),
3. the number of bandwidth allocations.

The paper's observations to reproduce: predicate and allocation verification
scale linearly and stay in the millisecond range up to tens of thousands of
items, while regular-expression verification grows roughly quadratically and
reaches seconds only for expressions with on the order of a thousand AST
nodes.

``verify_refinement`` returns a verdict and no statistics, so each point's
latency is the duration of one span around the call; the regex sweep also
records the size of the automaton the inclusion check walks, the quantity
that growth comes from and that repeats exactly on any machine.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .. import telemetry
from ..core.ast import BandwidthTerm, FMax, Policy, Statement, formula_and
from ..negotiator.verification import verify_refinement
from ..predicates.ast import FieldTest, pred_and, pred_not, pred_or
from ..regex.ast import DOT, Regex, Symbol, concat, star
from ..regex.operations import compile_dfa
from ..regex.parser import parse_path_expression
from ..units import Bandwidth


def _verify(size: int, original: Policy, refined: Policy) -> Dict[str, object]:
    """One point of a Figure 9 curve."""
    with telemetry.span("verify_refinement") as span:
        report = verify_refinement(original, refined)
    return {"size": size, "verify_ms": span.duration * 1000.0, "valid": report.valid}


def sweep_predicates(counts: Sequence[int] = (10, 100, 1000, 5000)) -> List[Dict[str, object]]:
    """Grow the number of refined statements partitioning one original statement.

    The original policy matches all TCP traffic; the refinement splits it by
    destination port into ``n`` disjoint statements (plus one catch-all), the
    same shape as the §4.1 example scaled up.
    """
    original = Policy(
        statements=(
            Statement("all", FieldTest("ip.proto", 6), parse_path_expression(".*")),
        )
    )
    points: List[Dict[str, object]] = []
    for count in counts:
        ports = list(range(1, count + 1))
        statements = [
            Statement(
                f"p{port}",
                pred_and(FieldTest("ip.proto", 6), FieldTest("tcp.dst", port)),
                parse_path_expression(".*"),
            )
            for port in ports
        ]
        remainder = pred_and(
            FieldTest("ip.proto", 6),
            pred_not(pred_or(*[FieldTest("tcp.dst", port) for port in ports])),
        )
        statements.append(
            Statement("rest", remainder, parse_path_expression(".*"))
        )
        refined = Policy(statements=tuple(statements))
        points.append(_verify(count, original, refined))
    return points


def _chain_expression(nodes: int) -> Regex:
    """A path expression with roughly ``nodes`` AST nodes: ``.* f1 .* f2 ... .*``."""
    expression: Regex = star(DOT)
    index = 0
    while expression.size() < nodes:
        index += 1
        expression = concat(expression, Symbol(f"f{index}"), star(DOT))
    return expression


def sweep_regex_nodes(sizes: Sequence[int] = (10, 50, 100, 250, 500)) -> List[Dict[str, object]]:
    """Grow the size of the refined statement's path expression.

    The refined expression appends one more required waypoint to the original
    expression, so inclusion always holds and the measurement isolates the
    automata work.
    """
    points: List[Dict[str, object]] = []
    for size in sizes:
        original_expression = _chain_expression(size)
        refined_expression = concat(original_expression, Symbol("extra"), star(DOT))
        original = Policy(
            statements=(Statement("x", FieldTest("ip.proto", 6), original_expression),)
        )
        refined = Policy(
            statements=(Statement("x", FieldTest("ip.proto", 6), refined_expression),)
        )
        point = _verify(refined_expression.size(), original, refined)
        point["dfa_states"] = compile_dfa(refined_expression).num_states()
        points.append(point)
    return points


def sweep_allocations(counts: Sequence[int] = (10, 100, 1000, 5000)) -> List[Dict[str, object]]:
    """Grow the number of bandwidth allocations in the refined policy."""
    points: List[Dict[str, object]] = []
    for count in counts:
        original_statements = [
            Statement(
                f"o{index}",
                FieldTest("tcp.dst", index + 1),
                parse_path_expression(".*"),
            )
            for index in range(count)
        ]
        original = Policy(
            statements=tuple(original_statements),
            formula=formula_and(
                *[
                    FMax(BandwidthTerm((f"o{index}",)), Bandwidth.mbps(10))
                    for index in range(count)
                ]
            ),
        )
        refined = Policy(
            statements=tuple(original_statements),
            formula=formula_and(
                *[
                    FMax(BandwidthTerm((f"o{index}",)), Bandwidth.mbps(5))
                    for index in range(count)
                ]
            ),
        )
        points.append(_verify(count, original, refined))
    return points
