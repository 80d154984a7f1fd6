"""Tests for PolicyDelta and policy diffing."""

from repro.core.compiler import MerlinCompiler
from repro.core.localization import localize
from repro.core.parser import parse_policy
from repro.incremental import PolicyDelta, policy_delta
from repro.topology.generators import figure2_example
from repro.units import Bandwidth

BASE = """
[ a : tcp.dst = 80 -> .* dpi .* ;
  b : tcp.dst = 22 -> .* ],
min(a, 10Mbps) and max(b, 100Mbps)
"""


def test_empty_delta():
    policy = parse_policy(BASE)
    delta = policy_delta(policy, policy)
    assert delta.is_empty()
    assert delta.num_changes() == 0


def test_added_statement_carries_localized_rates():
    new = parse_policy(
        BASE.replace(
            "min(a, 10Mbps)", "min(a, 10Mbps) and min(c, 5Mbps)"
        ).replace("-> .* ]", "-> .* ; c : tcp.dst = 443 -> .* ]")
    )
    policy = parse_policy(BASE)
    delta = policy_delta(policy, new)
    assert [d.statement.identifier for d in delta.add] == ["c"]
    assert delta.add[0].guarantee == Bandwidth.mbps(5)
    assert not delta.remove and not delta.update_rates


def test_removed_statement():
    policy = parse_policy(BASE)
    reduced = parse_policy("[ a : tcp.dst = 80 -> .* dpi .* ], min(a, 10Mbps)")
    delta = policy_delta(policy, reduced)
    assert delta.remove == ("b",)
    assert not delta.add


def test_path_change_is_remove_plus_add():
    policy = parse_policy(BASE)
    changed = parse_policy(BASE.replace(".* dpi .*", ".* dpi .* nat .*"))
    delta = policy_delta(policy, changed)
    assert delta.remove == ("a",)
    assert [d.statement.identifier for d in delta.add] == ["a"]
    assert not delta.update_rates


def test_predicate_change_is_remove_plus_add():
    policy = parse_policy(BASE)
    changed = parse_policy(BASE.replace("tcp.dst = 22", "tcp.dst = 23"))
    delta = policy_delta(policy, changed)
    assert delta.remove == ("b",)
    assert [d.statement.identifier for d in delta.add] == ["b"]


def test_rate_only_change_is_update():
    policy = parse_policy(BASE)
    changed = parse_policy(BASE.replace("min(a, 10Mbps)", "min(a, 20Mbps)"))
    delta = policy_delta(policy, changed)
    assert not delta.remove and not delta.add
    assert [u.identifier for u in delta.update_rates] == ["a"]
    assert delta.update_rates[0].guarantee == Bandwidth.mbps(20)


def test_cap_only_change_is_update():
    policy = parse_policy(BASE)
    changed = parse_policy(BASE.replace("max(b, 100Mbps)", "max(b, 50Mbps)"))
    delta = policy_delta(policy, changed)
    assert [u.identifier for u in delta.update_rates] == ["b"]
    assert delta.update_rates[0].cap == Bandwidth.mbps(50)


def test_str_summary():
    delta = PolicyDelta(remove=("a", "b"))
    assert "-2" in str(delta)


def test_aggregate_rate_change_splits_equally():
    source = """
    [ a : tcp.dst = 80 -> .* ; b : tcp.dst = 22 -> .* ],
    max(a + b, 100Mbps)
    """
    old = parse_policy(source)
    new = parse_policy(source.replace("100Mbps", "80Mbps"))
    equal_split = policy_delta(old, new)
    caps = {update.identifier: update.cap for update in equal_split.update_rates}
    assert caps["a"] == Bandwidth.mbps(40)


def test_rate_updates_equal_the_new_policy_localized():
    old = parse_policy(
        "[ a : tcp.dst = 80 -> .* ; b : tcp.dst = 22 -> .* ; c : tcp.dst = 53 -> .* ],"
        " max(a + b + c, 50MB/s) and min(a, 1MB/s)"
    )
    new = parse_policy(
        "[ a : tcp.dst = 80 -> .* ; b : tcp.dst = 22 -> .* ; c : tcp.dst = 53 -> .* ],"
        " max(a + b + c, 40MB/s) and min(a, 1MB/s)"
    )
    delta = policy_delta(old, new)
    localized = localize(new)
    assert [update.identifier for update in delta.update_rates] == ["a", "b", "c"]
    for update in delta.update_rates:
        assert update.cap.bits_per_second == localized[update.identifier].cap.bits_per_second
        assert update.guarantee == localized[update.identifier].guarantee


def test_recompiled_aggregate_rates_equal_a_fresh_compile():
    """The delta and the compiler split an aggregate clause the same way, so
    an incremental rate change lands on the rates a fresh compile gives."""
    source = """
    [ x : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
           and tcp.dst = 20) -> .* ;
      y : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
           and tcp.dst = 21) -> .* ],
    max(x + y, 50MB/s) and min(x, 10MB/s)
    """
    old, new = parse_policy(source), parse_policy(source.replace("50MB/s", "30MB/s"))

    def compiler():
        return MerlinCompiler(
            topology=figure2_example(capacity=Bandwidth.gbps(2)),
            overlap="trust",
            add_catch_all=False,
        )

    incremental = compiler()
    incremental.compile(old)
    recompiled = incremental.recompile(policy_delta(old, new))
    fresh = compiler().compile(new)
    for identifier in ("x", "y"):
        assert (
            recompiled.rates[identifier].cap.bits_per_second
            == fresh.rates[identifier].cap.bits_per_second
        )
        assert recompiled.rates[identifier].guarantee == fresh.rates[identifier].guarantee
    assert recompiled.link_reservations == fresh.link_reservations
