"""Seeded input generation: ``--seed`` is the only source of variation.

Everything here is plain data — Merlin source text, statement records for
the checker, delta and verification *specs* — built from names and MAC
addresses the caller read off a topology.  Nothing imports the program, so
two runs with one seed produce byte-identical inputs (``digest`` proves it).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from check import UNCONSTRAINED, Expected

MBPS = 1e6


def rng_for(workload: str, seed: int, *parts: object) -> random.Random:
    """An independent stream per (workload, seed, part): string seeds are stable."""
    return random.Random("/".join(str(part) for part in (workload, seed, *parts)))


def digest(*chunks: object) -> str:
    """Short content hash of generated inputs, printed per run."""
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(repr(chunk).encode("utf-8"))
    return sha.hexdigest()[:16]


@dataclass(frozen=True)
class PolicyInput:
    """One policy: the text the program gets, the records the checker gets."""

    source: str
    expected: Tuple[Expected, ...]


def _program(statements: Sequence[str], clauses: Sequence[str]) -> str:
    text = "[ " + " ;\n  ".join(statements) + " ]"
    return text + (",\n" + " and ".join(clauses) if clauses else "")


def _pair(macs: Mapping[str, str], source: str, destination: str) -> str:
    return f"eth.src = {macs[source]} and eth.dst = {macs[destination]}"


def _mbps_text(rate: float) -> str:
    return f"{rate:g}Mbps"


# -- compile-guaranteed -------------------------------------------------------


def guaranteed_policy(
    hosts: Sequence[str],
    macs: Mapping[str, str],
    rng: random.Random,
    classes: int,
    share: float = 0.05,
    rate_mbps: float = 50.0,
) -> PolicyInput:
    """The first ``classes`` all-pairs classes; a seeded ``share`` guaranteed."""
    pairs = [(s, d) for s in hosts for d in hosts if s != d][:classes]
    chosen = set(rng.sample(range(len(pairs)), int(round(share * len(pairs)))))
    statements, clauses, expected = [], [], []
    for index, (source, destination) in enumerate(pairs):
        identifier = f"t{index}"
        statements.append(f"{identifier} : ({_pair(macs, source, destination)}) -> .*")
        guarantee = rate_mbps * MBPS if index in chosen else None
        if guarantee:
            clauses.append(f"min({identifier}, {_mbps_text(rate_mbps)})")
        expected.append(Expected(identifier, source, destination, UNCONSTRAINED, guarantee))
    return PolicyInput(_program(statements, clauses), tuple(expected))


# -- compile-campus-default ---------------------------------------------------


def campus_policy(
    hosts: Sequence[str],
    macs: Mapping[str, str],
    rng: random.Random,
    share: float = 0.10,
    rate_mbps: float = 1.0,
) -> PolicyInput:
    """The Figure-4 "combination" policy: web through dpi, untrusted sources
    through a monitor, a seeded ``share`` of the remaining traffic guaranteed."""
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    chosen = set(rng.sample(range(len(pairs)), int(round(share * len(pairs)))))
    untrusted = set(rng.sample(list(hosts), max(1, len(hosts) // 4)))
    statements, clauses, expected = [], [], []
    for index, (source, destination) in enumerate(pairs):
        pair = _pair(macs, source, destination)
        statements.append(f"web{index} : ({pair} and tcp.dst = 80) -> .* dpi .*")
        expected.append(Expected(f"web{index}", source, destination, ".* dpi .*"))
        path = ".* monitor .*" if source in untrusted else UNCONSTRAINED
        statements.append(f"rest{index} : ({pair} and tcp.dst != 80) -> {path}")
        guarantee = rate_mbps * MBPS if index in chosen else None
        if guarantee:
            clauses.append(f"min(rest{index}, {_mbps_text(rate_mbps)})")
        expected.append(Expected(f"rest{index}", source, destination, path, guarantee))
    return PolicyInput(_program(statements, clauses), tuple(expected))


# -- churn-session ------------------------------------------------------------


def background_policy(
    hosts: Sequence[str], macs: Mapping[str, str], rng: random.Random, count: int
) -> PolicyInput:
    """``count`` port-disjoint best-effort statements between seeded host pairs."""
    statements, expected = [], []
    for index in range(count):
        source, destination = rng.sample(list(hosts), 2)
        identifier = f"bg{index}"
        statements.append(
            f"{identifier} : ({_pair(macs, source, destination)} and "
            f"tcp.dst = {20000 + index}) -> .*"
        )
        expected.append(Expected(identifier, source, destination, UNCONSTRAINED))
    return PolicyInput(_program(statements, ()), tuple(expected))


# -- service-ticket / service-burst -------------------------------------------


@dataclass(frozen=True)
class Pod:
    """One fat-tree pod: the locations its tenant may use, and its hosts."""

    switches: Tuple[str, ...]
    hosts: Tuple[str, ...]


@dataclass(frozen=True)
class DeltaSpec:
    """One tenant request: ``join`` / ``rate`` / ``leave`` on one statement."""

    kind: str
    tenant: int
    identifier: str
    rate_mbps: float = 0.0
    statement: str = ""  # Merlin source of the joining statement
    expected: Optional[Expected] = None


def pod_statement(
    pod: Pod, macs: Mapping[str, str], identifier: str, source: str,
    destination: str, port: int, rate_mbps: float,
) -> Tuple[str, Expected]:
    """A guaranteed statement confined to its pod, so tenants stay link-disjoint."""
    locations = "|".join(sorted({source, destination, *pod.switches}))
    path = f"({locations})*"
    text = (
        f"{identifier} : ({_pair(macs, source, destination)} and "
        f"tcp.dst = {port}) -> {path}"
    )
    return text, Expected(identifier, source, destination, path, rate_mbps * MBPS)


def tenant_base(
    pods: Sequence[Pod], macs: Mapping[str, str], rng: random.Random,
    pairs_per_pod: int, rate_mbps: float,
) -> PolicyInput:
    """One tenant per pod, ``pairs_per_pod`` guaranteed host pairs each.

    Pairs run from the pod's first rack to its last in every seed (only the
    direction is drawn): base statements live for the whole run, so a seeded
    shape would set the cost of every solve in their pod and make one seed's
    run incomparable with another's.
    """
    statements, clauses, expected = [], [], []
    for tenant, pod in enumerate(pods):
        for pair in range(pairs_per_pod):
            source, destination = pod.hosts[pair], pod.hosts[-1 - pair]
            if rng.random() < 0.5:
                source, destination = destination, source
            identifier = f"p{tenant}s{pair}"
            text, record = pod_statement(
                pod, macs, identifier, source, destination, 8000 + pair, rate_mbps
            )
            statements.append(text)
            clauses.append(f"min({identifier}, {_mbps_text(rate_mbps)})")
            expected.append(record)
    return PolicyInput(_program(statements, clauses), tuple(expected))


class TenantRequests:
    """A continuing stream of requests drawn 40/40/20 join / rate / leave.

    Membership is simulated so every request is valid when its turn comes
    (the service applies one group's requests in submission order): a leave
    names a statement that joined earlier, and a full pod renegotiates
    where it would have joined.
    """

    def __init__(
        self, pods: Sequence[Pod], macs: Mapping[str, str], rng: random.Random,
        base: PolicyInput, max_joined: int = 3,
        rates_mbps: Sequence[float] = (10, 20, 30, 40, 50),
    ) -> None:
        self.pods, self.macs, self.rng = pods, macs, rng
        self.max_joined, self.rates_mbps = max_joined, list(rates_mbps)
        self.base_ids: Dict[int, List[str]] = {
            tenant: [r.identifier for r in base.expected if r.source in pod.hosts]
            for tenant, pod in enumerate(pods)
        }
        self.joined: Dict[int, List[str]] = {tenant: [] for tenant in range(len(pods))}
        self.issued = 0

    def take(self, count: int) -> List[DeltaSpec]:
        return [self._next() for _ in range(count)]

    def _next(self) -> DeltaSpec:
        rng = self.rng
        index = self.issued
        self.issued += 1
        tenant = rng.randrange(len(self.pods))
        joined = self.joined[tenant]
        draw = rng.random()
        if draw >= 0.8 and joined:
            return DeltaSpec("leave", tenant, joined.pop(rng.randrange(len(joined))))
        if (draw < 0.4 or draw >= 0.8) and len(joined) < self.max_joined:
            identifier = f"j{index}"
            source, destination = rng.sample(list(self.pods[tenant].hosts), 2)
            rate = rng.choice(self.rates_mbps)
            text, record = pod_statement(
                self.pods[tenant], self.macs, identifier, source, destination,
                9000 + index, rate,
            )
            joined.append(identifier)
            return DeltaSpec("join", tenant, identifier, rate, text, record)
        identifier = rng.choice(self.base_ids[tenant] + joined)
        return DeltaSpec("rate", tenant, identifier, rng.choice(self.rates_mbps))


def apply_spec(population: Dict[str, Expected], spec: DeltaSpec) -> None:
    """The checker's own model of what the service should now be carrying."""
    if spec.kind == "join":
        population[spec.identifier] = spec.expected
    elif spec.kind == "leave":
        del population[spec.identifier]
    else:
        population[spec.identifier] = replace(
            population[spec.identifier], guarantee_bps=spec.rate_mbps * MBPS
        )


# -- verify-delegation --------------------------------------------------------


@dataclass(frozen=True)
class VerifySpec:
    """One refinement to verify: family, size, and whether it must be accepted."""

    family: str  # "ports" | "waypoints" | "caps"
    size: int
    valid: bool
    offset: int  # first port / first waypoint number / cap in Mbps


#: Sizes chosen so the three families cost about the same per verdict.
VERIFY_SIZES = {"ports": (400, 600), "waypoints": (10, 13), "caps": (4000, 6000)}


def verify_spec(rng: random.Random, index: int) -> VerifySpec:
    """Families rotate; validity alternates within a family; sizes are seeded."""
    family = ("ports", "waypoints", "caps")[index % 3]
    low, high = VERIFY_SIZES[family]
    return VerifySpec(
        family=family,
        size=rng.randint(low, high),
        valid=(index // 3) % 2 == 0,
        offset=rng.randint(1, 1000),
    )
