"""Outside-in span tracer: per-layer time without touching the program.

The tracer wraps the public functions listed in :data:`TARGETS` — one group
per layer (layer = module) — by rebinding every ``repro.*`` module attribute
that *is* the original function, and the class attribute for methods.  A
wrapper records a span (layer, parent, start, end, op id) only when the call
crosses a layer boundary: a call made from inside a span of the same layer
runs unrecorded, so ``find_overlapping_pairs -> is_disjoint`` costs one
context-variable read and not 35 000 spans per compile.  The parent travels
in a :class:`contextvars.ContextVar`, which ``asyncio.to_thread`` copies, so
a span opened on the control plane's worker thread keeps the parent it had
on the event loop.  Spans stay in memory until :func:`summarize` folds them
into per-layer self time (duration minus the part child spans cover) and
call counts.

A target that no longer resolves is listed in ``Tracer.unresolved`` and its
numbers are simply absent: a later change may delete a function without
editing this file.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from stats import covered

# Span record layout.  A record is a tuple of strings and numbers — the
# parent is named by its id, not referenced — so the garbage collector stops
# tracking it: a hundred thousand retained spans must not slow the program's
# own collections.
LAYER, PARENT, START, END, OP, ID = range(6)

#: ``PARENT`` of a span that no wrapped call encloses.
NO_PARENT = -1

#: The layer whose spans are the per-op roots; its self time is "unattributed".
ROOT_LAYER = "core.compiler"


def _count(name: str, value: Callable) -> Callable:
    """A hook adding ``value(args, kwargs, result)`` to counter ``name``."""

    def hook(tracer: "Tracer", started, args, kwargs, result) -> None:
        try:
            tracer.counts[name] += value(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            tracer.broken_hooks.add(name)

    return hook


def _remember_result(tracer: "Tracer", started, args, kwargs, result) -> None:
    # Lets the service workloads find the apply() that served a ticket:
    # a ticket resolves to the CompilationResult its transaction returned.
    tracer.started_by_result[id(result)] = started


_model_size = (
    _count("core.provisioning.build_model.variables", lambda a, k, r: r.model.num_variables()),
    _count("core.provisioning.build_model.constraints", lambda a, k, r: r.model.num_constraints()),
)

_SCENARIO_EVENTS = (
    "LinkFailure", "LinkRecovery", "SwitchFailure", "SwitchRecovery",
    "TenantJoin", "TenantLeave", "RateRenegotiation", "MiddleboxRewrite",
)

#: (layer, module, qualified name, hooks).
TARGETS: Tuple[Tuple[str, str, str, tuple], ...] = (
    ("core.compiler", "repro.core.compiler", "MerlinCompiler.compile", ()),
    ("core.compiler", "repro.core.compiler", "MerlinCompiler.recompile", ()),
    ("core.compiler", "repro.core.session", "ProvisioningSession.apply", (_remember_result,)),
    ("core.parser", "repro.core.parser", "parse_policy",
     (_count("core.parser.source_kb", lambda a, k, r: len(a[0]) / 1024.0),)),
    ("core.preprocessor", "repro.core.preprocessor", "preprocess", ()),
    ("core.localization", "repro.core.localization", "localize", ()),
    ("core.logical.endpoints", "repro.core.logical", "infer_endpoints", ()),
    ("core.logical.build", "repro.core.logical", "build_logical_topology",
     (_count("core.logical.build.edges", lambda a, k, r: r.num_edges()),)),
    ("incremental.partition", "repro.incremental.partition", "tighten_logical_topologies", ()),
    ("incremental.partition", "repro.incremental.partition", "partition_statements",
     (_count("incremental.partition.components", lambda a, k, r: len(r)),)),
    ("core.provisioning", "repro.core.provisioning", "provision", ()),
    ("core.provisioning.build_model", "repro.incremental.solve", "build_partition_model", _model_size),
    ("core.provisioning.build_model", "repro.core.provisioning", "build_model_for_links", _model_size),
    ("incremental.solve", "repro.incremental.solve", "solve_components_with_widening",
     (_count("incremental.solve.slack_retries", lambda a, k, r: r.slack_retries),)),
    ("lp", "repro.lp.model", "Model.solve", ()),
    ("rateless", "repro.core.sink_tree", "compute_sink_trees", ()),
    ("rateless", "repro.core.logical", "LogicalTopology.find_path", ()),
    ("codegen", "repro.codegen.generator", "CodeGenerator.generate",
     (_count("codegen.instructions", lambda a, k, r: r.total()),)),
    ("incremental.engine", "repro.incremental.engine", "IncrementalProvisioner.resolve",
     (_count("incremental.engine.dirty_components",
             lambda a, k, r: r.solve_statistics.get("partitions_dirty", 0.0)),)),
    ("incremental.engine", "repro.incremental.engine", "IncrementalProvisioner.add_statement", ()),
    ("incremental.engine", "repro.incremental.engine", "IncrementalProvisioner.remove_statement", ()),
    ("incremental.engine", "repro.incremental.engine", "IncrementalProvisioner.update_rates", ()),
    ("incremental.engine", "repro.incremental.engine", "IncrementalProvisioner.replace_logical", ()),
    ("fabric.signature", "repro.fabric.signature", "canonicalize_component", ()),
    ("fabric.cache", "repro.fabric.cache", "ComponentSolutionCache.get",
     (_count("fabric.cache.lookups", lambda a, k, r: 1),
      _count("fabric.cache.hits", lambda a, k, r: 0 if r is None else 1))),
    ("fabric.cache", "repro.fabric.cache", "ComponentSolutionCache.put", ()),
    *(("scenarios", "repro.scenarios.events", f"{event}.to_delta", ()) for event in _SCENARIO_EVENTS),
    ("service", "repro.service.daemon", "ControlPlane.submit", ()),
    ("service", "repro.incremental.delta", "merge_policy_deltas", ()),
    ("negotiator", "repro.negotiator.verification", "verify_refinement", ()),
    ("regex", "repro.regex.operations", "included", ()),
    ("regex", "repro.regex.operations", "equivalent", ()),
    ("regex", "repro.regex.operations", "intersection_empty", ()),
    ("regex", "repro.regex.operations", "counterexample", ()),
    # Every public decision procedure of the module, so that a quadratic
    # caller such as find_overlapping_pairs is one span and its 35 000
    # is_disjoint calls stay inside the layer, unrecorded.
    *(("predicates", "repro.predicates.sat", name, ()) for name in (
        "is_partition", "implies", "is_disjoint", "pairwise_disjoint",
        "find_overlapping_pairs", "overlaps", "covers", "is_satisfiable",
    )),
)

#: Every layer a summary reports, in TARGETS order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS))


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.started_by_result: Dict[int, float] = {}
        self.unresolved: List[str] = []
        self.broken_hooks: set = set()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None
        )
        self._ids = itertools.count()
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer: str, function: Callable, hooks: Sequence[Callable] = ()) -> Callable:
        """``function`` with a span recorded at each entry from another layer."""
        current, spans, clock, ids = self._current, self.spans, self.clock, self._ids

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = current.get()  # (span id, layer, op id) of the enclosing span
            if parent is None:
                number = op = next(ids)
                parent_id = NO_PARENT
            elif parent[1] == layer:
                return function(*args, **kwargs)
            else:
                number = next(ids)
                parent_id, _, op = parent
            token = current.set((number, layer, op))
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                spans.append((layer, parent_id, started, clock(), op, number))
                current.reset(token)
            for hook in hooks:
                hook(self, started, args, kwargs, result)
            return result

        return traced

    def install(self, targets: Iterable[Tuple[str, str, str, tuple]] = TARGETS) -> None:
        """Wrap every resolvable target; list the others in ``unresolved``."""
        for layer, module_name, qualified, hooks in targets:
            label = f"{module_name}.{qualified}"
            try:
                owner = importlib.import_module(module_name)
                *path, name = qualified.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                self.unresolved.append(label)
                continue
            if not inspect.isfunction(original):
                self.unresolved.append(label)
                continue
            wrapper = self.wrap(layer, original, hooks)
            if inspect.isclass(owner):
                self._bind(owner, name, original, wrapper)
                continue
            # ``from .parser import parse_policy`` copied the function into
            # the importing module: rebind every repro.* alias of it.
            for module in list(sys.modules.values()):
                if module is None or not (
                    module.__name__ == "repro" or module.__name__.startswith("repro.")
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, alias, original, wrapper)

    def _bind(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading ------------------------------------------------------------

    def start_of(self, result) -> Optional[float]:
        """When the ``apply`` that returned ``result`` started (service workloads)."""
        return self.started_by_result.get(id(result))


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Self time per span id: duration minus child-covered time.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children (parallel threads) are not subtracted twice and
    a child that outlives its parent cannot drive self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] != NO_PARENT:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def summarize(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Fold spans into ``{layer: {"self_s", "calls"}}`` plus the root totals.

    The extra ``"__root__"`` entry carries ``total_s`` (summed duration of
    the parentless :data:`ROOT_LAYER` spans), ``self_s`` (their own self
    time: the unattributed part) and ``attributed_s`` (self time of every
    span beneath such a root, roots included), so a caller can assert that
    the parts sum to the whole.
    """
    own = self_times(spans)
    layers: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    roots = {"total_s": 0.0, "self_s": 0.0, "attributed_s": 0.0, "calls": 0}
    root_ops = {
        span[OP] for span in spans if span[PARENT] == NO_PARENT and span[LAYER] == ROOT_LAYER
    }
    for span in spans:
        entry = layers[span[LAYER]]
        entry["self_s"] += own[span[ID]]
        entry["calls"] += 1
        if span[OP] in root_ops:
            roots["attributed_s"] += own[span[ID]]
            if span[PARENT] == NO_PARENT:
                roots["total_s"] += span[END] - span[START]
                roots["self_s"] += own[span[ID]]
                roots["calls"] += 1
    summary = dict(layers)
    summary["__root__"] = roots
    return summary
