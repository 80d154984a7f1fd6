"""The content-addressed component-solution cache.

Maps canonical component signatures (:mod:`repro.fabric.signature`) to
stored solution records.  Unlike the incremental engine's token-keyed
memo — which answers "is this exact session's component unchanged since
an earlier resolve?" — this cache answers "has *anyone*, in *any* session or
run, already solved a component with this content?", which is what lets a
topology-zoo or fat-tree sweep solve each distinct pod/tenant shape once.

Policy:

* **LRU-bounded** (``limit`` entries); a hit refreshes recency.
* **Proof-aware stores.**  Only proven-``optimal`` solutions (and
  proven-infeasible markers) are stored; time-limited ``feasible``
  incumbents are *bypassed* — an unproven incumbent memoized across runs
  would freeze one run's luck into every later run's answer, and so would
  a solve that ran out of time before finding anything, remembered as
  "infeasible".  Backends that never prove optimality (the anytime
  heuristic) therefore never populate the cache; see
  ``incremental/README.md`` for when to disable caching outright.
* **Optional JSON-lines spill.**  With ``spill_path`` set, stores append
  ``{"signature": ..., "digest": ..., "record": ...}`` lines and
  construction replays the file (last write wins), so separate sweep
  *processes* dedupe against each other's work.  The replay believes a
  line only if it parses, its digest is that of its record, and the record
  is a whole one of the current layout
  (:func:`~repro.fabric.signature.record_is_readable`); any other line is
  skipped and counted (``component_signature_spill_skipped``) — the worst
  case is a re-solve.

Counters (``hits`` / ``misses`` / ``stores`` / ``bypasses`` locally, the
``component_signature_*`` series in :mod:`repro.telemetry` globally) make
the cache's effect visible in ``ControlPlane.metrics()``.

Thread safety: a single lock guards the map — the control plane solves
batches for different groups concurrently in worker threads.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .. import telemetry
from .signature import record_is_readable

__all__ = ["ComponentSolutionCache"]


def _digest(record: Mapping[str, object]) -> str:
    """SHA-256 of a record's canonical JSON text: what a spill line is
    sealed with when written and checked against when replayed."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ComponentSolutionCache:
    """An LRU map of canonical component signature -> solution record."""

    def __init__(
        self,
        limit: int = 4096,
        spill_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._limit = limit
        self._lock = threading.Lock()
        self._entries: Dict[str, Mapping[str, object]] = {}
        self._spill_path = Path(spill_path) if spill_path is not None else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bypasses = 0
        if self._spill_path is not None and self._spill_path.exists():
            self._replay_spill()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def spill_path(self) -> Optional[Path]:
        return self._spill_path

    def get(self, signature: str) -> Optional[Mapping[str, object]]:
        """The stored record for ``signature``, refreshing its recency."""
        with self._lock:
            record = self._entries.get(signature)
            if record is None:
                self.misses += 1
            else:
                # dict preserves insertion order; re-inserting = mark MRU.
                del self._entries[signature]
                self._entries[signature] = record
                self.hits += 1
        if record is None:
            telemetry.counter("component_signature_misses")
        else:
            telemetry.counter("component_signature_hits")
        return record

    def put(self, signature: str, record: Mapping[str, object]) -> None:
        """Store a record, evicting least-recently-used entries past the bound."""
        with self._lock:
            self._insert(signature, record)
            self.stores += 1
        telemetry.counter("component_signature_stores")
        if self._spill_path is not None:
            self._append_spill(signature, record)

    def _insert(self, signature: str, record: Mapping[str, object]) -> None:
        """(Re)insert as most recently used; the caller holds the lock."""
        self._entries.pop(signature, None)
        self._entries[signature] = record
        while len(self._entries) > self._limit:
            self._entries.pop(next(iter(self._entries)))

    def bypass(self) -> None:
        """Record that an outcome was deliberately not cached (an unproven
        incumbent, or a no-solution status that is no proof of
        infeasibility — see the module docstring)."""
        with self._lock:
            self.bypasses += 1
        telemetry.counter("component_signature_bypass")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- disk spill --------------------------------------------------------------

    def _append_spill(self, signature: str, record: Mapping[str, object]) -> None:
        line = json.dumps(
            {"signature": signature, "digest": _digest(record), "record": record}
        )
        self._spill_path.parent.mkdir(parents=True, exist_ok=True)
        with self._spill_path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def _replay_spill(self) -> None:
        """Load a spill file written by an earlier run (or another process).

        Trusts nothing it reads: a truncated line (the writer died
        mid-append), a line whose digest is not its record's (a flipped
        byte), a record of another signature version or one lacking a
        field the decoder reads is skipped and counted, never fatal and
        never believed.
        """
        loaded = skipped = 0
        with self._spill_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    signature = entry["signature"]
                    record = entry["record"]
                    intact = _digest(record) == entry["digest"]
                except (ValueError, KeyError, TypeError):
                    intact = False
                if not intact or not record_is_readable(record):
                    skipped += 1
                    continue
                with self._lock:
                    self._insert(signature, record)
                loaded += 1
        if loaded:
            telemetry.counter("component_signature_spill_loads", float(loaded))
        if skipped:
            telemetry.counter("component_signature_spill_skipped", float(skipped))
