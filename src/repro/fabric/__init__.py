"""The solve fabric: persistent workers and a cross-run component cache.

Partitioned provisioning solves link-disjoint MIP components.  Before this
package, every multi-component solve paid to fork a fresh process pool and
every sweep re-solved components it had already solved under a different
tenant's name.  The fabric removes both costs:

* :class:`SolveFabric` (``pool.py``) — a persistent worker pool shared
  across ``compile`` / ``recompile`` / sweep calls.  Components are
  enqueued largest-first (by a variables x constraints estimate) so idle
  workers drain the smaller tail while the big models run, and every
  component is answered by the backend it was sent to — never by whichever
  of two solves the wall clock favours.  Worker crashes respawn the pool once
  and finish serially if it keeps dying — a dead worker degrades latency,
  never correctness.  A caller that wants pooled solves creates a fabric
  and passes it as ``ProvisionOptions.fabric``; without one, components
  solve in-process.

* :class:`ComponentSolutionCache` (``cache.py``) — a content-addressed
  store of solved components keyed by the canonical signature of
  ``signature.py``: normalized statement bodies, the sorted link footprint
  with capacities, bandwidth terms, and a backend+options fingerprint.
  The signature is invariant under tenant renaming and statement
  permutation, so identical pods/tenant groups across a sweep solve once;
  an optional JSON-lines spill file dedupes across *runs*.

Construction of a bare ``ProcessPoolExecutor`` anywhere else in
``src/repro`` is lint-banned (``make lint-pool``): pool lifecycle belongs
here.
"""

from .cache import ComponentSolutionCache
from .pool import SolveFabric
from .signature import (
    CanonicalComponent,
    backend_fingerprint,
    canonicalize_component,
    decode_solution,
    encode_infeasible,
    encode_solution,
)

__all__ = [
    "CanonicalComponent",
    "ComponentSolutionCache",
    "SolveFabric",
    "backend_fingerprint",
    "canonicalize_component",
    "decode_solution",
    "encode_infeasible",
    "encode_solution",
]
