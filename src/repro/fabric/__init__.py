"""Content-addressed component solutions: signatures and an in-process cache.

Partitioned provisioning solves link-disjoint MIP components, one after
another in the calling process.  A sweep over structurally repeated
workloads would re-solve components it had already solved under a
different tenant's name; this package lets it solve each once:

* ``signature.py`` — the canonical signature of a component: normalized
  statement bodies, the sorted link footprint with capacities, bandwidth
  terms, and a backend+options fingerprint.  The signature is invariant
  under tenant renaming and statement permutation, and the members' rank
  order maps a stored solution onto the requesting component's identifiers.

* :class:`ComponentSolutionCache` (``cache.py``) — a content-addressed,
  LRU-bounded in-memory map of solved components keyed by that signature,
  so identical pods/tenant groups across a sweep solve once.  A caller
  that wants it passes one as ``ProvisionOptions.component_cache``.

No process pool exists anywhere in ``src/repro`` (``make lint-pool``).
"""

from .cache import ComponentSolutionCache
from .signature import CanonicalComponent, backend_fingerprint, canonicalize_component

__all__ = [
    "CanonicalComponent",
    "ComponentSolutionCache",
    "backend_fingerprint",
    "canonicalize_component",
]
