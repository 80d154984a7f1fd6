"""Tests for the Merlin policy language: lexer, parser, sugar, and policy AST."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import LexerError, ParseError, PolicyError
from repro.core.ast import (
    BandwidthTerm,
    FAnd,
    FMax,
    FMin,
    FTrue,
    Policy,
    Statement,
    formula_and,
    formula_clauses,
)
from repro.lexer import _TOKEN_SPEC, KEYWORDS, tokenize
from repro.core.parser import parse_policy, parse_program
from repro.predicates import FieldTest, parse_predicate, pred_and, pred_not, pred_or
from repro.predicates.ast import FALSE, TRUE
from repro.regex import parse_path_expression
from repro.regex.ast import Negate, Symbol, concat, star, union
from repro.regex.operations import equivalent as regex_equivalent
from repro.topology.generators import fat_tree
from repro.units import Bandwidth
from tests import reference_lexer
from tests.conftest import RUNNING_EXAMPLE_SOURCE
from tests.regex.test_regex_properties import _regexes

_LEXEMES = st.one_of(
    *(st.from_regex(pattern, fullmatch=True) for _, pattern in _TOKEN_SPEC),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(["50\nMB/s", "1.5 \n\tGbps", "100\r\nMbps"]),
    st.sampled_from(["@", "$", "?"]),
)
_COMMENTS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["#", "//"]),
    st.text(alphabet="web 80.:-/#", max_size=6),
    st.sampled_from(["\n", ""]),
)
_SEPARATORS = st.lists(
    st.one_of(st.text(alphabet=" \t\r\n", min_size=1, max_size=3), _COMMENTS), max_size=3
).map("".join)
_SOURCES = st.tuples(st.lists(st.tuples(_SEPARATORS, _LEXEMES), max_size=12), _SEPARATORS).map(
    lambda parts: "".join(separator + lexeme for separator, lexeme in parts[0]) + parts[1]
)


class TestLexer:
    def test_rate_tokens(self):
        kinds = [t.kind for t in tokenize("max(x, 50MB/s) min(y, 100Mbps)")]
        assert kinds.count("RATE") == 2

    def test_mac_and_ip_tokens(self):
        tokens = tokenize("eth.src = 00:00:00:00:00:01 and ip.dst = 10.0.0.1")
        assert [t.kind for t in tokens if t.kind in ("MAC", "IP")] == ["MAC", "IP"]

    def test_field_token_not_split(self):
        tokens = tokenize("tcp.dst = 80")
        assert tokens[0].kind == "FIELD"
        assert tokens[0].text == "tcp.dst"

    def test_keywords_distinguished_from_identifiers(self):
        tokens = tokenize("foreach x in cross")
        assert [t.kind for t in tokens] == ["KEYWORD", "IDENT", "KEYWORD", "KEYWORD"]

    def test_arrow_and_assign(self):
        tokens = tokenize("x := y -> z")
        assert [t.kind for t in tokens] == ["IDENT", "ASSIGN", "IDENT", "ARROW", "IDENT"]

    def test_comments_and_whitespace_skipped(self):
        tokens = tokenize("x : true -> .*  # a comment\n// another\n")
        assert all(t.kind not in ("WS", "COMMENT") for t in tokens)

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens] == [1, 2, 3]

    def test_invalid_character(self):
        with pytest.raises(LexerError):
            tokenize("x : true -> .* @")

    def test_a_rate_over_a_newline_counts_it(self):
        tokens = tokenize("max(x, 50\nMB/s) and\n y")
        assert tokens[4].text == "50\nMB/s"
        assert [(t.line, t.column) for t in tokens[5:]] == [(2, 5), (2, 7), (3, 2)]
        with pytest.raises(LexerError) as error:
            tokenize("max(x, 50\nMB/s) and\n @")
        assert (error.value.line, error.value.column) == (3, 2)

    @settings(max_examples=200, deadline=None)
    @given(source=_SOURCES)
    @example(source="tcp.dst = 80# web")
    @example(source="tcp.dst = 80 // web\n@ x")
    @example(source="max(x, 50\nMB/s) and\n y")
    def test_tokens_and_errors_match_the_reference_loop(self, source):
        try:
            expected = reference_lexer.tokenize(source)
        except LexerError as error:
            with pytest.raises(LexerError) as raised:
                tokenize(source)
            assert (str(raised.value), raised.value.line, raised.value.column) == (
                str(error),
                error.line,
                error.column,
            )
        else:
            assert tokenize(source) == expected


class TestPolicyAst:
    def test_duplicate_identifiers_rejected(self):
        statement = Statement("x", parse_predicate("tcp.dst = 80"), parse_path_expression(".*"))
        with pytest.raises(PolicyError):
            Policy(statements=(statement, statement))

    def test_formula_with_unknown_identifier_rejected(self):
        statement = Statement("x", parse_predicate("tcp.dst = 80"), parse_path_expression(".*"))
        formula = FMax(BandwidthTerm(identifiers=("y",)), Bandwidth.mbps(10))
        with pytest.raises(PolicyError):
            Policy(statements=(statement,), formula=formula)

    def test_statement_lookup(self):
        statement = Statement("x", parse_predicate("tcp.dst = 80"), parse_path_expression(".*"))
        policy = Policy(statements=(statement,))
        assert policy.statement("x") is statement
        with pytest.raises(PolicyError):
            policy.statement("missing")

    def test_formula_helpers(self):
        term = BandwidthTerm(identifiers=("x",))
        clause_a = FMax(term, Bandwidth.mbps(10))
        clause_b = FMin(term, Bandwidth.mbps(5))
        combined = formula_and(clause_a, FTrue(), clause_b)
        assert formula_clauses(combined) == [clause_a, clause_b]
        assert combined.identifiers() == {"x"}

    def test_empty_bandwidth_term_rejected(self):
        with pytest.raises(PolicyError):
            BandwidthTerm(identifiers=())

    @settings(max_examples=100, deadline=None)
    @given(bps=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    @example(bps=0.5)
    @example(bps=1e9 / 7)
    @example(bps=2.5)
    @example(bps=1e6 + 1e-4)
    def test_to_source_round_trips(self, bps):
        policy = parse_policy(RUNNING_EXAMPLE_SOURCE)
        reparsed = parse_policy(policy.to_source())
        assert reparsed.statement_ids() == policy.statement_ids()
        assert len(formula_clauses(reparsed.formula)) == len(formula_clauses(policy.formula))
        # A fractional rate reads back as itself, not rounded or snapped.
        rate = Bandwidth(bps)
        assert Bandwidth.parse(rate.policy_literal()) == rate
        capped = policy.with_formula(FMax(BandwidthTerm(identifiers=("z",)), rate))
        (clause,) = formula_clauses(parse_policy(capped.to_source()).formula)
        assert clause.rate == rate


class TestParser:
    def test_running_example(self):
        policy = parse_policy(RUNNING_EXAMPLE_SOURCE)
        assert policy.statement_ids() == ["x", "y", "z"]
        z = policy.statement("z")
        assert regex_equivalent(z.path, parse_path_expression(".* dpi .* nat .*"))
        clauses = formula_clauses(policy.formula)
        assert isinstance(clauses[0], FMax)
        assert clauses[0].term.identifiers == ("x", "y")
        assert clauses[0].rate == Bandwidth.mb_per_sec(50)
        assert isinstance(clauses[1], FMin)
        assert clauses[1].rate == Bandwidth.mb_per_sec(100)

    def test_statements_without_semicolons(self):
        source = """
        [ a : tcp.dst = 80 -> .*
          b : tcp.dst = 22 -> .* ],
        max(a, 10Mbps)
        """
        policy = parse_policy(source)
        assert policy.statement_ids() == ["a", "b"]

    def test_policy_without_formula(self):
        policy = parse_policy("[ a : true -> .* ]")
        assert isinstance(policy.formula, FTrue)

    def test_unbracketed_single_statement(self):
        policy = parse_policy("a : tcp.dst = 80 -> .* dpi .*")
        assert policy.statement_ids() == ["a"]

    def test_formula_or_and_not(self):
        policy = parse_policy(
            "[ a : tcp.dst = 80 -> .* ; b : tcp.dst = 22 -> .* ],"
            "max(a, 10Mbps) or ! min(b, 5Mbps)"
        )
        assert policy.formula.identifiers() == {"a", "b"}

    def test_bandwidth_term_with_constant(self):
        policy = parse_policy(
            "[ a : tcp.dst = 80 -> .* ], max(a + 5Mbps, 10Mbps)"
        )
        clause = formula_clauses(policy.formula)[0]
        assert clause.term.constant == Bandwidth.mbps(5)

    def test_missing_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("[ a : tcp.dst = 80 .* ]")

    def test_unclosed_bracket_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("[ a : tcp.dst = 80 -> .* ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("[ a : true -> .* ] extra")

    def test_bad_formula_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("[ a : true -> .* ], max(a)")


_PATHS = st.one_of(_regexes(star), _regexes(star).map(Negate))

_FIELD_TESTS = st.one_of(
    st.integers(0, 65535).map(lambda port: FieldTest("tcp.dst", port)),
    st.sampled_from(["tcp", "udp", 47]).map(lambda proto: FieldTest("ip.proto", proto)),
    st.integers(1, 254).map(lambda host: FieldTest("ip.src", f"10.0.0.{host}")),
    st.integers(1, 254).map(lambda host: FieldTest("eth.dst", f"00:00:00:00:00:{host:02x}")),
    st.sampled_from(["get", "a-b", "x_1"]).map(lambda text: FieldTest("payload", text)),
)


def _predicates():
    return st.recursive(
        st.one_of(_FIELD_TESTS, st.sampled_from([TRUE, FALSE])),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: pred_and(*pair)),
            st.tuples(children, children).map(lambda pair: pred_or(*pair)),
            children.map(pred_not),
        ),
        max_leaves=6,
    )


class TestOneGrammar:
    """The three entry points read the same tokens through the same rules."""

    @settings(max_examples=150, deadline=None)
    @given(predicate=_predicates(), path=_PATHS)
    @example(predicate=TRUE, path=concat(Symbol("a"), concat(Symbol("b"), Symbol("c"))))
    @example(predicate=TRUE, path=union(Symbol("a"), union(Symbol("b"), Symbol("c"))))
    def test_three_entry_points_one_answer(self, predicate, path):
        assume("ε" not in str(path))  # the empty sequence has no surface syntax
        assert parse_predicate(str(predicate)) == predicate
        assert parse_path_expression(str(path)) == path
        statement = parse_policy(f"[ s : {predicate} -> {path} ]").statement("s")
        assert (statement.predicate, statement.path) == (predicate, path)

    @pytest.mark.parametrize(
        "source", ["payload = a-b", "tcp.dst = 80 # web", "tcp.dst = 80 // web\n and ip.proto = tcp"]
    )
    def test_dashes_and_comments_read_alike_alone_and_embedded(self, source):
        embedded = parse_policy(f"[ s : {source}\n -> .* ]").statement("s").predicate
        assert parse_predicate(source) == embedded

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_keywords_are_not_location_names_anywhere(self, keyword):
        with pytest.raises(ParseError, match=repr(keyword)):
            parse_path_expression(f".* {keyword} .*")
        with pytest.raises(ParseError):
            parse_policy(f"[ s : true -> .* {keyword} .* ]")

    def test_standalone_errors_carry_one_based_line_and_column(self):
        with pytest.raises(ParseError) as error:
            parse_predicate("tcp.dst = 80 and\n  udp.dst 53")
        assert (error.value.line, error.value.column) == (2, 11)
        assert "line 2, column 11" in str(error.value)
        with pytest.raises(ParseError) as error:
            parse_path_expression(".*\n  | *")
        assert (error.value.line, error.value.column) == (2, 5)

    def test_standalone_errors_are_worded_like_the_policy_parser(self):
        with pytest.raises(ParseError, match="expected a predicate but found '80'"):
            parse_predicate("80")
        with pytest.raises(ParseError, match=r"expected a path element but found '\*'"):
            parse_path_expression("* a")
        with pytest.raises(ParseError, match="unexpected trailing input 'x' in predicate"):
            parse_predicate("true x")
        with pytest.raises(ParseError, match=r"unexpected trailing input '\)' in path expression"):
            parse_path_expression(".* )")
        with pytest.raises(ParseError, match="unexpected end of predicate"):
            parse_predicate("tcp.dst =")

    @pytest.mark.parametrize(
        "parse, source",
        [
            (parse_policy, "[ s : true -> .* @ ]"),
            (parse_predicate, "tcp.dst = 80 $ true"),
            (parse_path_expression, ".* ? .*"),
        ],
    )
    def test_lexical_errors_are_parse_errors(self, parse, source):
        with pytest.raises(ParseError) as error:
            parse(source)
        assert isinstance(error.value, LexerError)
        assert error.value.line == 1 and error.value.column >= 1

    def test_empty_path_expression_keeps_its_own_message(self):
        with pytest.raises(ParseError, match="empty path expression"):
            parse_path_expression("  # nothing here\n")


class TestSugar:
    def test_cross_product_expansion(self):
        source = """
        srcs := {00:00:00:00:00:01, 00:00:00:00:00:03}
        dsts := {00:00:00:00:00:02}
        foreach (s,d) in cross(srcs,dsts):
          tcp.dst = 80 -> ( .* nat .* dpi .* ) at max(100MB/s)
        """
        policy = parse_policy(source)
        assert len(policy.statements) == 2
        clauses = formula_clauses(policy.formula)
        assert len(clauses) == 2
        assert all(isinstance(clause, FMax) for clause in clauses)
        assert all(clause.rate == Bandwidth.mb_per_sec(100) for clause in clauses)

    def test_paper_sugar_equivalent_to_statement_z(self):
        source = """
        srcs := {00:00:00:00:00:01}
        dsts := {00:00:00:00:00:02}
        foreach (s,d) in cross(srcs,dsts):
          tcp.dst = 80 -> ( .* nat .* dpi .* ) at max(100MB/s)
        """
        policy = parse_policy(source)
        assert len(policy.statements) == 1
        predicate = policy.statements[0].predicate
        assert FieldTest("eth.src", "00:00:00:00:00:01") in _atoms_of(predicate)
        assert FieldTest("eth.dst", "00:00:00:00:00:02") in _atoms_of(predicate)
        assert FieldTest("tcp.dst", 80) in _atoms_of(predicate)

    def test_ip_sets_use_ip_fields(self):
        source = """
        srcs := {10.0.0.1}
        dsts := {10.0.0.2}
        foreach (s,d) in cross(srcs,dsts): true -> .*
        """
        policy = parse_policy(source)
        atoms = _atoms_of(policy.statements[0].predicate)
        assert FieldTest("ip.src", "10.0.0.1") in atoms
        assert FieldTest("ip.dst", "10.0.0.2") in atoms

    def test_single_set_iterates_over_ordered_pairs(self):
        source = """
        hostsset := {10.0.0.1, 10.0.0.2, 10.0.0.3}
        foreach (s,d) in hostsset: true -> .*
        """
        policy = parse_policy(source)
        assert len(policy.statements) == 3 * 2

    def test_host_names_resolved_against_topology(self, tiny_topology):
        source = """
        srcs := {h1}
        dsts := {h2}
        foreach (s,d) in cross(srcs,dsts): tcp.dst = 80 -> .*
        """
        policy = parse_policy(source, topology=tiny_topology)
        atoms = _atoms_of(policy.statements[0].predicate)
        assert FieldTest("eth.src", tiny_topology.node("h1").mac) in atoms

    def test_host_names_without_topology_rejected(self):
        source = """
        srcs := {h1}
        dsts := {h2}
        foreach (s,d) in cross(srcs,dsts): true -> .*
        """
        with pytest.raises(PolicyError):
            parse_policy(source)

    def test_undefined_set_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy("foreach (s,d) in cross(a, b): true -> .*")

    def test_generated_identifiers_are_unique(self):
        source = """
        srcs := {10.0.0.1, 10.0.0.2}
        dsts := {10.0.0.3, 10.0.0.4}
        foreach (s,d) in cross(srcs,dsts): true -> .*
        """
        policy = parse_policy(source)
        identifiers = policy.statement_ids()
        assert len(identifiers) == len(set(identifiers)) == 4

    def test_generated_identifiers_skip_explicit_ones(self):
        explicit_first = parse_policy("s1 : tcp.dst = 22 -> .* ; tcp.dst = 80 -> .*")
        assert explicit_first.statement_ids() == ["s1", "s2"]
        explicit_second = parse_policy("tcp.dst = 80 -> .* ; s1 : tcp.dst = 22 -> .*")
        assert explicit_second.statement_ids() == ["s2", "s1"]
        source = """
        hosts := {10.0.0.1, 10.0.0.2}
        [ foreach (s,d) in hosts: true -> .* ; s2 : tcp.dst = 22 -> .* ]
        """
        assert parse_policy(source).statement_ids() == ["s1", "s3", "s2"]

    def test_single_set_compares_what_elements_denote(self):
        policy = parse_policy(
            """
            srcs := {00:00:00:00:00:01, 0:0:0:0:0:1}
            foreach (s,d) in srcs: true -> .*
            """
        )
        assert policy.statements == ()
        topology = fat_tree(4)
        first, second = (topology.node(name).mac for name in ("h1", "h2"))
        policy = parse_policy(
            """
            hosts := {h1, h2, 0:0:0:0:0:1, h2}
            foreach (s,d) in hosts: true -> .*
            """,
            topology=topology,
        )
        endpoints = [
            {test.field: test.value for test in _atoms_of(statement.predicate)}
            for statement in policy.statements
        ]
        assert endpoints == [
            {"eth.src": first, "eth.dst": second},
            {"eth.src": second, "eth.dst": first},
        ]

    def test_min_and_max_annotations(self):
        source = """
        srcs := {10.0.0.1}
        dsts := {10.0.0.2}
        foreach (s,d) in cross(srcs,dsts): true -> .* at max(10Mbps) and min(1Mbps)
        """
        policy = parse_policy(source)
        clauses = formula_clauses(policy.formula)
        kinds = {type(clause) for clause in clauses}
        assert kinds == {FMax, FMin}


def _atoms_of(predicate):
    found, stack = set(), [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, FieldTest):
            found.add(node)
        stack.extend(node.children())
    return found
