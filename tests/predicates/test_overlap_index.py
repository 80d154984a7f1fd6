"""The forced-test overlap index against the all-pairs loop it replaced.

The double loop that used to be ``find_overlapping_pairs`` lives on here as
the oracle: the index and its exclusion pruning may only skip pairs, never
change an answer.
"""

from hypothesis import given, settings, strategies as st

from repro.predicates import parse_predicate, sat
from repro.predicates.ast import FALSE, TRUE, FieldTest, pred_and, pred_not, pred_or
from repro.predicates.sat import (
    find_overlapping_between,
    find_overlapping_pairs,
    forced_equalities,
    forced_tests,
    is_disjoint,
    is_satisfiable,
    pairwise_disjoint,
)

_MACS = [f"00:00:00:00:00:{index:02x}" for index in range(1, 4)]
_atoms = st.one_of(
    st.builds(FieldTest, st.just("eth.src"), st.sampled_from(_MACS)),
    st.builds(FieldTest, st.just("eth.dst"), st.sampled_from(_MACS)),
    st.builds(FieldTest, st.just("tcp.dst"), st.sampled_from([22, 80])),
    # All eight values: exclusions can exhaust the domain.
    st.builds(FieldTest, st.just("vlan.pcp"), st.integers(0, 7)),
    st.just(TRUE),
    st.just(FALSE),
)
_predicates = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(pred_and, inner, inner),
        st.builds(pred_or, inner, inner),
        st.builds(pred_not, inner),
    ),
    max_leaves=8,
)


#: Predicate *text*: field tests, ``!=`` sugar and negations under ``and`` /
#: ``or``, over few values per field, so that same-endpoint statements that
#: split on one field (the pairs the exclusions prune) are common.
_text_atoms = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["eth.src", "eth.dst"]),
        st.sampled_from(["=", "!="]),
        st.sampled_from(_MACS[:2]),
    ),
    st.builds(
        "tcp.dst {} {}".format, st.sampled_from(["=", "!="]), st.sampled_from([22, 80])
    ),
    st.just("true"),
)
_texts = st.recursive(
    _text_atoms,
    lambda inner: st.one_of(
        st.builds("({} and {})".format, inner, inner),
        st.builds("({} or {})".format, inner, inner),
        st.builds("!({})".format, inner),
    ),
    max_leaves=6,
)
_parsed = _texts.map(parse_predicate)


def brute_force_pairs(lefts, rights=None):
    """The deleted loops: exact SAT on every pair."""
    if rights is None:
        return [
            (i, j)
            for i in range(len(lefts))
            for j in range(i + 1, len(lefts))
            if not is_disjoint(lefts[i], lefts[j])
        ]
    return [
        (i, j)
        for i in range(len(lefts))
        for j in range(len(rights))
        if not is_disjoint(lefts[i], rights[j])
    ]


class TestForcedEqualities:
    def test_conjunction_unions_and_clash_has_no_model(self):
        src, dst = FieldTest("eth.src", _MACS[0]), FieldTest("eth.dst", _MACS[1])
        assert forced_equalities(pred_and(src, dst, pred_not(FieldTest("tcp.dst", 80)))) == {
            "eth.src": _MACS[0],
            "eth.dst": _MACS[1],
        }
        assert forced_equalities(pred_and(src, FieldTest("eth.src", _MACS[1]))) is None

    def test_disjunction_keeps_what_both_arms_force(self):
        src = FieldTest("eth.src", _MACS[0])
        arms = pred_or(
            pred_and(src, FieldTest("tcp.dst", 80)), pred_and(src, FieldTest("tcp.dst", 22))
        )
        assert forced_equalities(arms) == {"eth.src": _MACS[0]}
        # An arm without models drops out instead of emptying the result.
        clash = pred_and(src, FieldTest("eth.src", _MACS[1]))
        assert forced_equalities(pred_or(src, clash)) == {"eth.src": _MACS[0]}
        assert forced_equalities(pred_or(clash, src)) == {"eth.src": _MACS[0]}

    def test_negation_and_constants_force_nothing(self):
        assert forced_equalities(pred_not(FieldTest("eth.src", _MACS[0]))) == {}
        assert forced_equalities(TRUE) == {}
        assert forced_equalities(FALSE) is None
        # !(a or b) is !a and !b; !(!a or !b) is a and b.
        a, b = FieldTest("eth.src", _MACS[0]), FieldTest("tcp.dst", 80)
        assert forced_equalities(pred_not(pred_or(a, b))) == {}
        assert forced_equalities(pred_not(pred_or(pred_not(a), pred_not(b)))) == {
            "eth.src": _MACS[0],
            "tcp.dst": 80,
        }

    @given(_predicates)
    @settings(max_examples=200, deadline=None)
    def test_forced_equalities_hold_in_every_model(self, predicate):
        forced = forced_equalities(predicate)
        if forced is None:
            assert not is_satisfiable(predicate)
            return
        for name, value in forced.items():
            assert not is_satisfiable(pred_and(predicate, pred_not(FieldTest(name, value))))


class TestForcedExclusions:
    def test_negated_tests_are_exclusions_and_conjunctions_collect_them(self):
        web = FieldTest("tcp.dst", 80)
        src = FieldTest("eth.src", _MACS[0])
        assert forced_tests(pred_and(src, pred_not(web))) == (
            {"eth.src": _MACS[0]},
            {"tcp.dst": {80}},
        )
        assert forced_tests(parse_predicate("tcp.dst != 80 and tcp.dst != 22")) == (
            {},
            {"tcp.dst": {80, 22}},
        )

    def test_disjunction_keeps_what_both_arms_exclude(self):
        either = parse_predicate("(tcp.dst != 80 and tcp.dst != 22) or tcp.dst != 80")
        assert forced_tests(either) == ({}, {"tcp.dst": {80}})
        assert forced_tests(parse_predicate("tcp.dst != 80 or tcp.dst = 22")) == ({}, {})

    @given(st.one_of(_predicates, _parsed))
    @settings(max_examples=200, deadline=None)
    def test_forced_exclusions_hold_in_every_model(self, predicate):
        forced = forced_tests(predicate)
        if forced is None:
            assert not is_satisfiable(predicate)
            return
        for name, values in forced[1].items():
            for value in values:
                assert not is_satisfiable(pred_and(predicate, FieldTest(name, value)))


class TestIndexEqualsBruteForce:
    @given(st.lists(_predicates, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_within_one_list(self, predicates):
        expected = brute_force_pairs(predicates)
        assert find_overlapping_pairs(predicates) == expected
        assert pairwise_disjoint(predicates) == (not expected)

    @given(st.lists(_predicates, max_size=8), st.lists(_predicates, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_between_two_lists(self, lefts, rights):
        assert find_overlapping_between(lefts, rights) == brute_force_pairs(lefts, rights)

    @given(st.lists(_parsed, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_within_one_list_of_parsed_text(self, predicates):
        expected = brute_force_pairs(predicates)
        assert find_overlapping_pairs(predicates) == expected
        assert pairwise_disjoint(predicates) == (not expected)

    @given(st.lists(_parsed, max_size=8), st.lists(_parsed, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_between_two_lists_of_parsed_text(self, lefts, rights):
        assert find_overlapping_between(lefts, rights) == brute_force_pairs(lefts, rights)

    def test_unforced_predicates_meet_every_bucket(self):
        pair = pred_and(FieldTest("eth.src", _MACS[0]), FieldTest("eth.dst", _MACS[1]))
        other = pred_and(FieldTest("eth.src", _MACS[1]), FieldTest("eth.dst", _MACS[0]))
        web = FieldTest("tcp.dst", 80)  # forces neither endpoint field
        predicates = [pair, web, other, pred_not(web), TRUE]
        assert find_overlapping_pairs(predicates) == brute_force_pairs(predicates)
        assert find_overlapping_pairs(predicates) == [
            (0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)
        ]


def _all_pairs_policy(hosts=12):
    """264 predicates: web / non-web traffic of every ordered host pair."""
    macs = [f"00:00:00:00:01:{index:02x}" for index in range(hosts)]
    predicates = []
    for source in macs:
        for destination in macs:
            if source != destination:
                pair = pred_and(FieldTest("eth.src", source), FieldTest("eth.dst", destination))
                predicates.append(pred_and(pair, FieldTest("tcp.dst", 80)))
                predicates.append(pred_and(pair, pred_not(FieldTest("tcp.dst", 80))))
    return predicates


class TestSearchCount:
    """The point of the index, counted in searches rather than wall time."""

    def test_all_pairs_policy_costs_a_linear_number_of_searches(self, monkeypatch):
        predicates = _all_pairs_policy()
        assert len(predicates) == 264
        searches = []
        search = sat._search
        monkeypatch.setattr(
            sat, "_search", lambda root: searches.append(root) or search(root)
        )
        assert find_overlapping_pairs(predicates) == []
        assert pairwise_disjoint(predicates)
        # None across host pairs (the all-pairs loop made 264 * 263 / 2 =
        # 34 716), and none for a (web, non-web) twin either: one forces the
        # port the other excludes.
        assert searches == []

    def test_overlaps_are_still_found_among_many_disjoint(self):
        predicates = _all_pairs_policy(hosts=6)
        predicates += [predicates[3], predicates[10], FieldTest("tcp.dst", 80)]
        assert find_overlapping_pairs(predicates) == brute_force_pairs(predicates)
        assert not pairwise_disjoint(predicates)
