"""Undo journal: O(1) checkpoints, O(delta) rollback, O(1) commit.

The shadow-checkpoint transactions introduced in PR 5 copied *every*
session dict on each ``recompile(delta)`` — exact, but O(population) per
delta, which dominates once a long-running provisioner carries 100k+
statements and each delta touches a handful of them.  This module
replaces the copies with the classic inverse-operation log used by
in-memory databases:

* every mutation of journaled state appends a closure that undoes *just
  that mutation* (restore the old value, delete the inserted key,
  re-insert the removed list element at its old index);
* ``mark()`` — taking a checkpoint — merely records the current journal
  position: O(1), no copying;
* ``rollback(mark)`` pops and runs undo closures from the tail back to
  the mark's position: O(entries since the mark) = O(delta);
* ``release(mark)`` — committing — drops the mark and truncates any
  journal prefix no outstanding mark can still reach: O(freed entries),
  amortized O(1) per recorded entry.

When no marks are outstanding ``record`` is a no-op, so code outside a
transaction pays one predicate check per mutation and nothing else.

Marks are *stacked*, not independent: rolling back to an earlier mark
invalidates every later one (their positions no longer exist), and the
journal refuses stale marks loudly rather than silently corrupting
state.  This matches the transaction discipline of ``recompile`` (one
mark per delta, strictly nested) and of the session facade's
``checkpoint()``/``rollback()`` unit-of-work pattern.

Ordering caveat: undoing a dict deletion re-inserts the key at the *end*
of the dict, so journaled rollback preserves dict *contents* but not
insertion order.  State whose iteration order is behaviorally visible
(e.g. the statement order that drives VLAN/queue allocation in codegen)
must carry explicit insertion stamps and sort on use — see
``StatementRecord.stamp`` in ``incremental/solve.py``.  The solve loop
reads the engine's record dict in any order (partitioning canonicalizes
by sorted ids).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, MutableMapping

__all__ = ["JournalError", "JournalMark", "UndoJournal"]


class JournalError(RuntimeError):
    """A mark was used after the position it names ceased to exist."""


@dataclass(frozen=True)
class JournalMark:
    """An O(1) checkpoint token: a position in the undo journal.

    ``serial`` distinguishes marks that share a position (nested
    checkpoints taken back-to-back) and lets the journal detect stale
    tokens after a rollback invalidated them.
    """

    position: int
    serial: int


_ABSENT = object()


class UndoJournal:
    """An inverse-operation log over arbitrary Python containers.

    The journal does not own the state it protects; mutations flow
    through the helper methods (``set_item`` / ``del_item`` /
    ``set_attr``) which perform the mutation *and* record its inverse when
    at least one mark is outstanding.  Arbitrary inverses can be attached
    with ``record``.
    """

    def __init__(self) -> None:
        self._entries: List[Callable[[], None]] = []
        self._offset = 0  # absolute position of _entries[0]
        self._marks: Dict[int, int] = {}  # serial -> absolute position
        self._serial = 0

    # ------------------------------------------------------------------
    # transaction surface
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when at least one mark is outstanding (recording on)."""
        return bool(self._marks)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def position(self) -> int:
        """Absolute position of the journal tail."""
        return self._offset + len(self._entries)

    def mark(self) -> JournalMark:
        """Take an O(1) checkpoint at the current journal position."""
        self._serial += 1
        mark = JournalMark(position=self.position, serial=self._serial)
        self._marks[mark.serial] = mark.position
        return mark

    def rollback(self, mark: JournalMark) -> int:
        """Undo every mutation recorded since ``mark``; keep it live.

        Returns the number of undo entries replayed.  Later marks are
        invalidated (their positions no longer exist); the rolled-back
        mark itself stays valid so a unit of work can retry.
        """
        target = self._marks.get(mark.serial)
        if target is None or target != mark.position:
            raise JournalError(
                "stale journal mark: a rollback to an earlier mark already "
                "discarded this position"
            )
        replayed = 0
        while self.position > target:
            undo = self._entries.pop()
            undo()
            replayed += 1
        # Positions beyond the target no longer exist.
        self._marks = {
            serial: pos for serial, pos in self._marks.items() if pos <= target
        }
        return replayed

    def release(self, mark: JournalMark) -> None:
        """Commit: drop ``mark`` and truncate unreachable journal prefix.

        Releasing an already-invalidated mark is a no-op (the rollback
        that invalidated it already discarded its entries).
        """
        position = self._marks.pop(mark.serial, None)
        if position is None:
            return
        if not self._marks:
            # No outstanding mark can reach any entry: drop the whole log.
            self._offset = self.position
            self._entries.clear()
            return
        floor = min(self._marks.values())
        if floor > self._offset:
            del self._entries[: floor - self._offset]
            self._offset = floor

    # ------------------------------------------------------------------
    # journaled mutation helpers
    # ------------------------------------------------------------------
    def record(self, undo: Callable[[], None]) -> None:
        """Attach an arbitrary inverse operation (no-op when inactive)."""
        if self._marks:
            self._entries.append(undo)

    def set_item(self, mapping: MutableMapping, key: Any, value: Any) -> None:
        if self._marks:
            old = mapping.get(key, _ABSENT)
            if old is _ABSENT:
                def undo() -> None:
                    mapping.pop(key, None)
            else:
                def undo() -> None:
                    mapping[key] = old
            self._entries.append(undo)
        mapping[key] = value

    def del_item(self, mapping: MutableMapping, key: Any) -> None:
        """Delete ``key`` if present (missing keys are a silent no-op)."""
        if key not in mapping:
            return
        old = mapping[key]
        if self._marks:
            def undo() -> None:
                mapping[key] = old
            self._entries.append(undo)
        del mapping[key]

    def set_attr(self, obj: Any, name: str, value: Any) -> None:
        if self._marks:
            old = getattr(obj, name)

            def undo() -> None:
                setattr(obj, name, old)

            self._entries.append(undo)
        setattr(obj, name, value)
