"""Satisfiability, disjointness, and implication for Merlin predicates.

The paper uses the Z3 SMT solver to decide predicate disjointness and
implication during negotiator verification.  Merlin predicates are
propositional formulas over equality tests on packet header fields, so full
SMT machinery is unnecessary; this module implements a small backtracking
decision procedure specialised to that theory:

* a depth-first search walks the predicate as given, carrying each goal's
  polarity (so ``!`` costs a flag flip, not a negation-normal-form copy),
* it maintains a per-field environment (either "must equal v" or "must
  differ from {v1, ..., vk}"),
* conjunctions push obligations, disjunctions branch with backtracking (a
  negated conjunction is a disjunction, a negated disjunction a
  conjunction), and
* a finite-domain check catches fields whose every value has been excluded
  (e.g. the 8-value ``vlan.pcp``).

Unlike the obvious DNF expansion, the search handles the conjunctions of
negated conjunctions posed by totality/coverage checks (``p0 and !p1 and
... and !pn``) in linear time on the policies Merlin actually generates,
which is what lets negotiator verification scale to tens of thousands of
statements (Figure 9).  Those questions are never built as predicates:
:func:`implies`, :func:`is_disjoint` and :func:`covers` start the search
from one signed goal per operand.

Questions about *many* predicates at once (which statements of a policy
overlap, which refined statements touch which original ones) do not run
that search on every pair.  :func:`forced_tests` reads off, in one linear
walk, the ``field = value`` tests a predicate forces in every model and the
``field != value`` tests it forces (its *exclusions*); two predicates that
force different values on one field, or where one forces a value the other
excludes, share no packet.  The overlap index buckets the predicates on
forced fields, the pairs it cannot tell apart are checked against each
other's exclusions, and only what is left reaches the exact
:func:`is_disjoint` search.  So the answers are those of the all-pairs
loop, while a policy whose statements pin their endpoints (the common
case) costs a number of searches linear in its size — none at all when
same-endpoint statements split on one field (``tcp.dst = 80`` against
``tcp.dst != 80``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import PolicyError
from .ast import And, FieldTest, Not, Or, PFalse, Predicate, PTrue
from .fields import domain_size

#: Safety valve: the number of goals the search may take up before it gives
#: up and raises (never hit by realistic policies; prevents silent hangs on
#: adversarial inputs).
MAX_BRANCH_STEPS = 5_000_000


class _Environment:
    """A partial assignment of header fields with backtracking support."""

    __slots__ = ("fixed", "excluded", "_trail")

    def __init__(self) -> None:
        self.fixed: Dict[str, object] = {}
        self.excluded: Dict[str, Set[object]] = {}
        self._trail: List[Tuple[str, str, object]] = []

    # -- assignment ---------------------------------------------------------

    def mark(self) -> int:
        """A checkpoint for backtracking."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Undo every change made after the checkpoint."""
        while len(self._trail) > mark:
            kind, field, value = self._trail.pop()
            if kind == "fix":
                del self.fixed[field]
            else:
                self.excluded[field].discard(value)

    def assert_equal(self, field: str, value: object) -> bool:
        """Require ``field == value``; returns False on contradiction."""
        if field in self.fixed:
            return self.fixed[field] == value
        if value in self.excluded.get(field, ()):
            return False
        self.fixed[field] = value
        self._trail.append(("fix", field, value))
        return True

    def assert_not_equal(self, field: str, value: object) -> bool:
        """Require ``field != value``; returns False on contradiction."""
        if field in self.fixed:
            return self.fixed[field] != value
        exclusions = self.excluded.setdefault(field, set())
        if value not in exclusions:
            exclusions.add(value)
            self._trail.append(("exclude", field, value))
            size = domain_size(field)
            if size is not None and len(exclusions) >= size:
                # Every value of a finite domain is excluded: contradiction.
                return False
        return True


#: Pending goals, a persistent cons-list ``(node, positive, rest)``: ``node``
#: must match when ``positive`` and must not match otherwise.
_Goals = Optional[Tuple[Predicate, bool, object]]


def _search(goals: _Goals) -> bool:
    """Decide whether some packet meets every signed goal, by iterative backtracking.

    The polarity travels with the goal instead of a negation-normal-form
    copy being built first: ``Not`` flips it, a positive ``And`` or a
    negative ``Or`` pushes both operands, a negative ``And`` or a positive
    ``Or`` is a choice point, a field test asserts its equality (positive)
    or its exclusion (negative), and a constant holds when its truth equals
    the polarity.  Each popped goal is one step against
    :data:`MAX_BRANCH_STEPS`.  The goals form a cons-list so that a choice
    point resumes the exact remaining work in O(1) without copying; the
    environment records a trail for undo.

    A top-level goal that is a failing constant (``implies(p, true)``, a
    ``true`` part of :func:`covers`) fails on every branch, so it is read
    before the walk rather than after it has tried every branch of the
    goals ahead of it.
    """
    rest = goals
    while rest is not None:
        node, positive, rest = rest
        if isinstance(node, (PTrue, PFalse)) and isinstance(node, PTrue) != positive:
            return False
    env = _Environment()
    budget = MAX_BRANCH_STEPS
    steps = 0
    # Each choice point: (the goals resumed with the untried operand first,
    # the environment mark).
    choice_points: List[Tuple[_Goals, int]] = []
    while goals is not None:
        node, positive, goals = goals
        steps += 1
        if steps > budget:
            raise PolicyError(
                "predicate satisfiability search exceeded its branch budget"
            )
        if isinstance(node, FieldTest):
            if positive:
                holds = env.assert_equal(node.field, node.value)
            else:
                holds = env.assert_not_equal(node.field, node.value)
        elif isinstance(node, (And, Or)):
            if isinstance(node, And) != positive:
                choice_points.append(((node.right, positive, goals), env.mark()))
                goals = (node.left, positive, goals)
            else:
                goals = (node.left, positive, (node.right, positive, goals))
            continue
        elif isinstance(node, Not):
            goals = (node.operand, not positive, goals)
            continue
        elif isinstance(node, (PTrue, PFalse)):
            holds = isinstance(node, PTrue) == positive
        else:
            raise PolicyError(f"unknown predicate node: {node!r}")
        if not holds:
            if not choice_points:
                return False
            goals, mark = choice_points.pop()
            env.undo_to(mark)
    return True


def is_satisfiable(predicate: Predicate) -> bool:
    """Return ``True`` if some packet satisfies ``predicate``."""
    return _search((predicate, True, None))


def is_disjoint(left: Predicate, right: Predicate) -> bool:
    """Return ``True`` when no packet matches both predicates."""
    return not _search((left, True, (right, True, None)))


def implies(antecedent: Predicate, consequent: Predicate) -> bool:
    """Return ``True`` when every packet matching ``antecedent`` matches ``consequent``."""
    return not _search((antecedent, True, (consequent, False, None)))


def equivalent(left: Predicate, right: Predicate) -> bool:
    """Return ``True`` when the two predicates match exactly the same packets."""
    return implies(left, right) and implies(right, left)


def overlaps(left: Predicate, right: Predicate) -> bool:
    """Return ``True`` when some packet matches both predicates."""
    return not is_disjoint(left, right)


#: What :func:`forced_tests` reads off a predicate: the ``field -> value``
#: equalities and the ``field -> {values}`` exclusions every model keeps
#: (``None`` inside the walk while there are none: most predicates negate
#: no test, and they pay for exclusions nothing).
Forced = Tuple[Dict[str, object], Optional[Dict[str, Set[object]]]]


def forced_equalities(predicate: Predicate) -> Optional[Dict[str, object]]:
    """The ``field -> value`` equalities that hold in every model of
    ``predicate``, or ``None`` when :func:`forced_tests` shows it has none."""
    forced = forced_tests(predicate)
    return None if forced is None else forced[0]


def forced_tests(predicate: Predicate) -> Optional[Forced]:
    """The equalities and the exclusions that hold in every model of ``predicate``.

    One linear walk, with the polarity carried down instead of building the
    negation normal form: a conjunction forces what either side forces (two
    different values for one field leave no model), a disjunction only what
    both sides force, a test forces its equality and a negated test its
    exclusion, and ``true`` forces nothing.  Returns ``None`` when the walk
    itself shows there is no model.  The answer is sound but not complete:
    seven exclusions on the 8-value ``vlan.pcp`` force the eighth value, and
    the walk does not see it; nor does it see that a forced value is
    excluded on the same side.
    """
    forced = _forced(predicate, True)
    return None if forced is None else (forced[0], forced[1] or {})


def _forced(node: Predicate, positive: bool) -> Optional[Forced]:
    if isinstance(node, FieldTest):
        if positive:
            return {node.field: node.value}, None
        return {}, {node.field: {node.value}}
    if isinstance(node, Not):
        return _forced(node.operand, not positive)
    if isinstance(node, (PTrue, PFalse)):
        return ({}, None) if isinstance(node, PTrue) == positive else None
    if not isinstance(node, (And, Or)):
        raise PolicyError(f"unknown predicate node: {node!r}")
    left = _forced(node.left, positive)
    right = _forced(node.right, positive)
    if isinstance(node, And) == positive:
        # Conjunction (or a negated disjunction): both sides hold.
        if left is None or right is None:
            return None
        # Each side's dicts and sets are its own: merge the smaller into
        # the larger.
        (small, small_excluded), (large, large_excluded) = left, right
        if len(small) > len(large):
            small, large = large, small
        for name, value in small.items():
            if large.setdefault(name, value) != value:
                return None
        if not small_excluded or not large_excluded:
            return large, small_excluded or large_excluded
        if len(small_excluded) > len(large_excluded):
            small_excluded, large_excluded = large_excluded, small_excluded
        for name, values in small_excluded.items():
            found = large_excluded.get(name)
            if found is None:
                large_excluded[name] = values
            else:
                found |= values
        return large, large_excluded
    # Disjunction (or a negated conjunction): a side without models drops out.
    if left is None:
        return right
    if right is None:
        return left
    (left_equal, left_excluded), (right_equal, right_excluded) = left, right
    equal = {
        name: value
        for name, value in left_equal.items()
        if name in right_equal and right_equal[name] == value
    }
    if not left_excluded or not right_excluded:
        return equal, None
    excluded = {}
    for name in left_excluded.keys() & right_excluded.keys():
        values = left_excluded[name] & right_excluded[name]
        if values:
            excluded[name] = values
    return equal, excluded or None


#: One predicate in the overlap index: its position in the caller's sequence,
#: the equalities it forces and the values it excludes (or ``None``).
_Entry = Tuple[int, Dict[str, object], Optional[Dict[str, Set[object]]]]


def _entries(predicates: Sequence[Predicate]) -> List[_Entry]:
    """Index entries for the predicates the walk cannot rule out altogether."""
    entries = []
    for position, predicate in enumerate(predicates):
        forced = _forced(predicate, True)
        if forced is not None:
            entries.append((position, *forced))
    return entries


def _excludes(equal: Dict[str, object], excluded: Dict[str, Set[object]]) -> bool:
    """Whether some value one side forces is one the other side excludes."""
    if len(equal) > len(excluded):
        return any(
            name in equal and equal[name] in values for name, values in excluded.items()
        )
    return any(
        name in excluded and value in excluded[name] for name, value in equal.items()
    )


def _split(
    entries: List[_Entry], name: str
) -> Tuple[Dict[object, List[_Entry]], List[_Entry]]:
    """``entries`` bucketed by the value they force on ``name``, and the rest."""
    buckets: Dict[object, List[_Entry]] = {}
    free: List[_Entry] = []
    for entry in entries:
        forced = entry[1]
        if name in forced:
            buckets.setdefault(forced[name], []).append(entry)
        else:
            free.append(entry)
    return buckets, free


def _value_counts(entries: List[_Entry]) -> Dict[str, Dict[object, int]]:
    """For every forced field, how many of ``entries`` force each value."""
    counts: Dict[str, Dict[object, int]] = {}
    for _, forced, _ in entries:
        for name, value in forced.items():
            values = counts.setdefault(name, {})
            values[value] = values.get(value, 0) + 1
    return counts


def _pairs_between(
    lefts: List[_Entry], rights: List[_Entry]
) -> Iterator[Tuple[_Entry, _Entry]]:
    """Entry pairs (one of ``lefts``, one of ``rights``) no forced field tells apart.

    Every pair is yielded once, unless both entries force one field to
    different values.  The entries are split on the most discriminating
    field — the one separating the most pairs: of the pairs that both force
    it, all but those agreeing on the value — and each part recurses on the
    fields that are left; an entry that does not force the field meets every
    bucket of the other side.
    """
    if not lefts or not rights:
        return
    right_counts = _value_counts(rights)
    best_name, best_separated = None, 0
    for name, left_values in _value_counts(lefts).items():
        right_values = right_counts.get(name)
        if right_values is None:
            continue
        separated = sum(left_values.values()) * sum(right_values.values()) - sum(
            count * right_values.get(value, 0) for value, count in left_values.items()
        )
        if separated > best_separated:
            best_name, best_separated = name, separated
    if best_name is None:
        for left in lefts:
            for right in rights:
                yield left, right
        return
    left_buckets, left_free = _split(lefts, best_name)
    right_buckets, right_free = _split(rights, best_name)
    for value, bucket in left_buckets.items():
        yield from _pairs_between(bucket, right_buckets.get(value, []))
    left_forcing = [entry for bucket in left_buckets.values() for entry in bucket]
    yield from _pairs_between(left_forcing, right_free)
    yield from _pairs_between(left_free, rights)


def _overlapping(
    lefts: Sequence[Predicate], rights: Optional[Sequence[Predicate]] = None
) -> Iterator[Tuple[int, int]]:
    """Yield the overlapping index pairs, in no particular order.

    Pairs ``(i, j)`` with ``i < j`` inside ``lefts`` when ``rights`` is not
    given, otherwise pairs (index into ``lefts``, index into ``rights``).
    The index proposes, the exclusions prune, the exact search decides.
    """
    if not lefts or (rights is not None and not rights):
        return
    left_entries = _entries(lefts)
    if rights is None:
        # A sequence against itself proposes every pair in both orders.
        rights = lefts
        candidates: Iterable[Tuple[_Entry, _Entry]] = (
            (left, right)
            for left, right in _pairs_between(left_entries, left_entries)
            if left[0] < right[0]
        )
    else:
        candidates = _pairs_between(left_entries, _entries(rights))
    for (i, left_equal, left_excluded), (j, right_equal, right_excluded) in candidates:
        if (right_excluded and _excludes(left_equal, right_excluded)) or (
            left_excluded and _excludes(right_equal, left_excluded)
        ):
            continue
        if not is_disjoint(lefts[i], rights[j]):
            yield i, j


def pairwise_disjoint(predicates: Sequence[Predicate]) -> bool:
    """Return ``True`` when all predicates in the sequence are pairwise disjoint."""
    return next(_overlapping(predicates), None) is None


def find_overlapping_pairs(predicates: Sequence[Predicate]) -> List[Tuple[int, int]]:
    """Return the index pairs ``(i, j)``, ``i < j``, of predicates that overlap, sorted."""
    return sorted(_overlapping(predicates))


def find_overlapping_between(
    lefts: Sequence[Predicate], rights: Sequence[Predicate]
) -> List[Tuple[int, int]]:
    """Return the sorted pairs ``(i, j)`` where ``lefts[i]`` overlaps ``rights[j]``."""
    return sorted(_overlapping(lefts, rights))


def covers(original: Predicate, parts: Iterable[Predicate]) -> bool:
    """Return ``True`` when the union of ``parts`` covers all of ``original``.

    This is the totality condition on tenant refinements from §4.1: "all
    packets identified by the original policy must be identified by the set
    of new policies."
    """
    goals: _Goals = None
    for part in reversed(list(parts)):
        goals = (part, False, goals)
    return not _search((original, True, goals))


def is_partition(original: Predicate, parts: Sequence[Predicate]) -> bool:
    """Return ``True`` when ``parts`` is a valid refinement partition of ``original``.

    A valid partition (i) covers the original predicate, (ii) never matches a
    packet outside the original, and (iii) has pairwise-disjoint members.
    """
    part_list = list(parts)
    if not covers(original, part_list):
        return False
    if not all(implies(part, original) for part in part_list):
        return False
    return pairwise_disjoint(part_list)
