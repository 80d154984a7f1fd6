"""Merlin: a language for provisioning network resources — Python reproduction.

This package reproduces the Merlin system (Soulé et al., CoNEXT 2014): a
declarative policy language for software-defined networks, a compiler that
turns policies into forwarding paths, middlebox placements, and bandwidth
allocations, negotiators for dynamic adaptation and verified delegation, and
the substrates the system depends on (predicate logic, automata over network
locations, topology models, an LP/MIP solver layer, code generation for
switches/middleboxes/hosts, and a flow-level network simulator standing in
for the paper's hardware testbed).

Quickstart::

    from repro import compile_policy, fat_tree

    topology = fat_tree(4)
    result = compile_policy(policy_source, topology, placements={"dpi": [...]})
    print(result.instructions.counts())

The package root is the supported import surface for the whole lifecycle:
``MerlinCompiler`` + ``ProvisionOptions`` to compile, ``ProvisioningSession``
with ``PolicyDelta`` / ``TopologyDelta`` / ``ScenarioEvent`` to stream
changes at a live compile, and ``ControlPlane`` + ``AdmissionPolicy`` to run
the compiler as a multi-tenant provisioning service.  ``Telemetry`` (and
the :mod:`repro.telemetry` module) adds scoped tracing and metrics over
all of it — ``with Telemetry.recording().use(): ...``.
``ComponentSolutionCache`` (the :mod:`repro.fabric` layer) makes repeated
provisioning fast: one content-addressed component-solution cache shared
across compiles, sweeps, and control-plane tenants via
``ProvisionOptions(component_cache=...)``.  Components are solved in the
calling process.
"""

from .core import (
    CompilationResult,
    MerlinCompiler,
    PathSelectionHeuristic,
    Policy,
    ProvisioningSession,
    ProvisionOptions,
    Statement,
    compile_policy,
    parse_policy,
)
from .fabric import ComponentSolutionCache
from .incremental import PolicyDelta, RateUpdate, TopologyDelta, policy_delta
from .negotiator import Negotiator, delegate, verify_refinement
from .scenarios import ScenarioEvent
from .service import AdmissionPolicy, ControlPlane
from .telemetry import MetricsSnapshot, Telemetry
from .topology import (
    Topology,
    balanced_tree,
    dumbbell,
    fat_tree,
    figure2_example,
    linear,
    single_switch,
    stanford_campus,
    topology_zoo_like,
)
from .units import Bandwidth

__version__ = "1.0.0"

__all__ = [
    "CompilationResult",
    "MerlinCompiler",
    "PathSelectionHeuristic",
    "Policy",
    "ProvisioningSession",
    "ProvisionOptions",
    "Statement",
    "compile_policy",
    "parse_policy",
    "ComponentSolutionCache",
    "PolicyDelta",
    "RateUpdate",
    "TopologyDelta",
    "policy_delta",
    "ScenarioEvent",
    "AdmissionPolicy",
    "ControlPlane",
    "MetricsSnapshot",
    "Telemetry",
    "Negotiator",
    "delegate",
    "verify_refinement",
    "Topology",
    "balanced_tree",
    "dumbbell",
    "fat_tree",
    "figure2_example",
    "linear",
    "single_switch",
    "stanford_campus",
    "topology_zoo_like",
    "Bandwidth",
    "__version__",
]
