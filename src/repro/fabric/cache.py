"""The content-addressed component-solution cache.

Maps canonical component signatures (:mod:`repro.fabric.signature`) to
solved components, held in memory as they are.  Unlike the incremental
engine's token-keyed memo — which answers "is this exact session's
component unchanged since an earlier resolve?" — this cache answers "has
*any* session sharing it already solved a component with this content?",
which is what lets a topology-zoo or fat-tree sweep solve each distinct
pod/tenant shape once.  It lives in the process that made it; nothing is
written out or read back.

Policy:

* **LRU-bounded** (``limit`` entries); a hit refreshes recency.
* **Proof-aware stores.**  Only proven-``optimal`` solutions (and
  proven-infeasible markers) are stored; time-limited ``feasible``
  incumbents are *bypassed* — an unproven incumbent memoized across
  sessions would freeze one solve's luck into every later answer, and so
  would a solve that ran out of time before finding anything, remembered
  as "infeasible".  Backends that never prove optimality (the anytime
  heuristic) therefore never populate the cache; see
  ``incremental/README.md`` for when to disable caching outright.

Counters (``hits`` / ``misses`` / ``stores`` / ``bypasses`` locally, the
``component_signature_*`` series in :mod:`repro.telemetry` globally) make
the cache's effect visible in ``ControlPlane.metrics()``.

Thread safety: a single lock guards the map — the control plane solves
batches for different groups concurrently in worker threads.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .. import telemetry

__all__ = ["ComponentSolutionCache"]


class ComponentSolutionCache:
    """An LRU map of canonical component signature -> stored outcome."""

    def __init__(self, limit: int = 4096) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._limit = limit
        self._lock = threading.Lock()
        self._entries: Dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bypasses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, signature: str) -> Optional[object]:
        """The stored outcome for ``signature``, refreshing its recency."""
        with self._lock:
            stored = self._entries.get(signature)
            if stored is None:
                self.misses += 1
            else:
                # dict preserves insertion order; re-inserting = mark MRU.
                del self._entries[signature]
                self._entries[signature] = stored
                self.hits += 1
        if stored is None:
            telemetry.counter("component_signature_misses")
        else:
            telemetry.counter("component_signature_hits")
        return stored

    def put(self, signature: str, stored: object) -> None:
        """Store an outcome as most recently used, evicting least-recently-used
        entries past the bound."""
        with self._lock:
            self._entries.pop(signature, None)
            self._entries[signature] = stored
            while len(self._entries) > self._limit:
                self._entries.pop(next(iter(self._entries)))
            self.stores += 1
        telemetry.counter("component_signature_stores")

    def bypass(self) -> None:
        """Record that an outcome was deliberately not cached (an unproven
        incumbent, or a no-solution status that is no proof of
        infeasibility — see the module docstring)."""
        with self._lock:
            self.bypasses += 1
        telemetry.counter("component_signature_bypass")
