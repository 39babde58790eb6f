"""The pass-pipeline substrate every compiler in this repo runs on.

The paper presents 2QAN as a six-stage pipeline (Figure 2): circuit
unitary unifying, qubit mapping, permutation-aware routing, SWAP
dressing, hybrid scheduling, gate decomposition.  This module makes that
structure explicit and shared:

* :class:`CompilationContext` -- the IR threaded through a compilation:
  the problem, the target device/gate set, and every artifact a stage
  produces (assignment, routed problem, schedule, hardware circuit),
  plus per-pass wall-time and the decomposition cache handle.
* :class:`Pass` -- the stage protocol: ``run(ctx) -> ctx``.  A pass
  reads what earlier passes left on the context and writes its own
  artifact back.  Passes are tiny, stateless-by-default objects, so an
  ablation is a pass swap rather than a boolean knob buried in a driver.
* :class:`PassPipeline` -- an ordered pass list with per-pass timing.
  ``pipeline.run(ctx)`` executes the passes in order and records one
  ``ctx.timings[pass.name]`` entry per executed pass.
* :class:`CompilationResult` -- the single result type shared by 2QAN
  and every baseline.

The concrete 2QAN passes (:class:`UnifyPass`, :class:`MapPass`,
:class:`RoutePass`, :class:`SchedulePass`, :class:`DecomposePass`) live
here; baseline-specific passes live next to their compilers in
:mod:`repro.baselines`.  Compiler *names* resolve to configured
pipelines through :mod:`repro.core.registry`.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.core.cancel import CancelToken
from repro.core.decompose import DecomposeCache, decompose_circuit
from repro.core.metrics import CircuitMetrics
from repro.core.routing import QubitMap, RoutedProblem, route
from repro.core.scheduling import ScheduledCircuit, schedule_alap
from repro.core.unify import unify_circuit_operators
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep
from repro.mapping.placement import best_of_k_mapping
from repro.mapping.qap import qap_from_problem, validated_assignment
from repro.quantum.circuit import Circuit
from repro.synthesis.gateset import GateSet, get_gateset


def resolve_gateset(gateset: str | GateSet) -> GateSet:
    """Accept a gate-set name or object; return the object."""
    return get_gateset(gateset) if isinstance(gateset, str) else gateset


# ----------------------------------------------------------------------
# The compilation IR
# ----------------------------------------------------------------------
@dataclass
class CompilationContext:
    """Everything a pass may read or write during one compilation.

    Inputs (set by the driver): ``step``, ``device``, ``gateset``,
    ``seed``, ``cache`` and optionally ``initial`` (a fixed qubit
    assignment that mapping passes honour instead of searching).

    Artifacts (set by passes): ``working`` (the possibly-unified
    problem), ``assignment``/``qap_cost``, ``routed``, ``scheduled``,
    ``app_circuit`` (application-level, pre-decomposition),
    ``circuit`` (hardware basis), ``metrics``, the SWAP counters and the
    logical->physical maps.  ``timings`` collects one wall-time entry
    per executed pass, keyed by the pass name.
    """

    step: TrotterStep
    gateset: GateSet
    device: Device | None = None
    seed: int = 0
    cache: DecomposeCache | None = None
    initial: np.ndarray | None = None
    binding: dict[str, float] | None = None
    cancel: CancelToken | None = None

    working: TrotterStep | None = None
    assignment: np.ndarray | None = None
    qap_cost: float = math.nan
    routed: RoutedProblem | None = None
    scheduled: ScheduledCircuit | None = None
    app_circuit: Circuit | None = None
    circuit: Circuit | None = None
    metrics: CircuitMetrics | None = None
    n_swaps: int = 0
    n_dressed: int = 0
    initial_map: QubitMap | None = None
    final_map: QubitMap | None = None
    timings: dict[str, float] = field(default_factory=dict)
    cache_events: dict[str, str] = field(default_factory=dict)

    def require(self, attribute: str) -> object:
        """Fetch an artifact a pass depends on, or fail loudly."""
        value = getattr(self, attribute)
        if value is None:
            raise ValueError(
                f"pass requires context.{attribute}; is an earlier pass "
                f"missing from the pipeline?"
            )
        return value


class Deferred:
    """A context field whose value is not loaded yet.

    The cache layer (:mod:`repro.cache.cached`) binds one in two cases:
    the ``step`` of a compilation from a problem recipe, whose
    ``source`` builds the step, and an artifact served by a cache hit,
    whose ``source`` is the field's pickled bytes.  ``content_id`` is
    the value's content fingerprint where it is known without loading
    (the recipe's step); a hit artifact's derivation id is kept in the
    cache layer's per-compilation memo.

    :meth:`load` of pickled bytes makes a fresh object on every call,
    so no two readers share one.  A pass never sees a deferred value:
    the cache layer loads one and binds it to the context when a missing
    pass reads the field.  A content hash loads a throwaway copy and
    leaves the field deferred.  :class:`CompilationResult` loads one at
    the first read of its attribute.  A caller that reads raw context
    fields after a cache hit may get a deferred value; read the result
    built by ``result_from_context``, or call :meth:`load`.
    """

    __slots__ = ("source", "content_id")

    def __init__(self, source, content_id: str | None = None) -> None:
        self.source = source
        self.content_id = content_id

    def load(self) -> object:
        source = self.source
        return (pickle.loads(source) if isinstance(source, bytes)
                else source())


@runtime_checkable
class Pass(Protocol):
    """One pipeline stage: consume a context, return it enriched.

    Passes may additionally declare two class attributes consumed by
    the content-addressed cache (:mod:`repro.cache`):

    * ``reads`` -- the context fields the pass consumes (its cache key);
    * ``writes`` -- the artifact fields it produces (its cache value).

    A pass without declarations is still cacheable: it is keyed on the
    full context and snapshots every artifact field, which can only
    over-invalidate, never serve a stale artifact.
    """

    name: str

    def run(self, ctx: CompilationContext) -> CompilationContext: ...


@dataclass(frozen=True)
class PassPipeline:
    """An ordered list of passes executed with per-pass timing."""

    passes: tuple[Pass, ...]

    def __init__(self, passes) -> None:
        object.__setattr__(self, "passes", tuple(passes))

    def run(self, ctx: CompilationContext) -> CompilationContext:
        for stage in self.passes:
            if ctx.cancel is not None:
                ctx.cancel.checkpoint(stage.name)
            start = time.perf_counter()
            result = stage.run(ctx)
            elapsed = time.perf_counter() - start
            if result is None:
                raise TypeError(
                    f"pass {stage.name!r} returned None; "
                    f"run(ctx) must return the context"
                )
            ctx = result
            ctx.timings[stage.name] = ctx.timings.get(stage.name, 0.0) + elapsed
        return ctx

    # -- introspection / surgery (ablations are pass swaps) ------------
    def names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.passes)

    def replaced(self, name: str, stage: Pass) -> "PassPipeline":
        """A new pipeline with the ``name`` stage swapped for ``stage``."""
        if name not in self.names():
            raise ValueError(f"no pass named {name!r} in {self.names()}")
        return PassPipeline(
            stage if existing.name == name else existing
            for existing in self.passes
        )

    def without(self, name: str) -> "PassPipeline":
        """A new pipeline with the ``name`` stage removed."""
        if name not in self.names():
            raise ValueError(f"no pass named {name!r} in {self.names()}")
        return PassPipeline(s for s in self.passes if s.name != name)


# ----------------------------------------------------------------------
# The unified result type
# ----------------------------------------------------------------------
@dataclass
class CompilationResult:
    """Everything the evaluation needs from one compilation.

    Shared by 2QAN and every baseline; fields a compiler does not
    produce stay at their defaults (``routed``/``scheduled`` are
    ``None`` for baselines, ``qap_cost`` is NaN where no QAP instance
    was solved).  ``timings`` holds one entry per executed pass.

    A result built from a context with cache-hit fields holds them as
    :class:`Deferred` values and loads each at the first read of its
    attribute, so a caller reading only ``metrics`` never unpickles the
    circuits.  Every read, comparison, copy and pickle sees real values.
    """

    circuit: Circuit                    # hardware-basis circuit
    metrics: CircuitMetrics
    qap_cost: float = math.nan
    timings: dict[str, float] = field(default_factory=dict)
    cache_events: dict[str, str] = field(default_factory=dict)
    scheduled: ScheduledCircuit | None = None
    routed: RoutedProblem | None = None
    app_circuit: Circuit | None = None
    n_swaps: int = 0
    n_dressed: int = 0
    initial_map: QubitMap | None = None
    final_map: QubitMap | None = None

    def __getattribute__(self, name: str):
        value = object.__getattribute__(self, name)
        if type(value) is Deferred:
            value = value.load()
            object.__setattr__(self, name, value)
        return value

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in vars(self)}

    def metric_fields(self) -> dict:
        """The deterministic metrics as a JSON-ready dict.

        The one source of the ``n_swaps`` .. ``qap_cost`` fields shared
        by ``repro compile/bind --json`` and the service responses;
        a NaN ``qap_cost`` (no QAP instance solved) becomes ``None``.
        """
        metrics = self.metrics
        return {
            "n_swaps": metrics.n_swaps,
            "n_dressed": metrics.n_dressed,
            "n_two_qubit_gates": metrics.n_two_qubit_gates,
            "two_qubit_depth": metrics.two_qubit_depth,
            "total_depth": metrics.total_depth,
            "qap_cost": (None if math.isnan(self.qap_cost)
                         else float(self.qap_cost)),
        }


def result_from_context(ctx: CompilationContext) -> CompilationResult:
    """Package a fully-run context into a :class:`CompilationResult`."""
    if ctx.circuit is None or ctx.metrics is None:
        raise ValueError("pipeline did not produce a hardware circuit; "
                         "is a decomposition/scheduling pass missing?")
    return CompilationResult(
        circuit=ctx.circuit,
        metrics=ctx.metrics,
        qap_cost=ctx.qap_cost,
        timings=dict(ctx.timings),
        cache_events=dict(ctx.cache_events),
        scheduled=ctx.scheduled,
        routed=ctx.routed,
        app_circuit=ctx.app_circuit,
        n_swaps=ctx.n_swaps,
        n_dressed=ctx.n_dressed,
        initial_map=ctx.initial_map,
        final_map=ctx.final_map,
    )


def run_pipeline(pipeline: PassPipeline, step: TrotterStep, *,
                 gateset: str | GateSet, device: Device | None = None,
                 seed: int = 0, cache: DecomposeCache | None = None,
                 initial: np.ndarray | None = None,
                 binding: dict[str, float] | None = None,
                 cancel: CancelToken | None = None,
                 ) -> CompilationResult:
    """Build a context, run ``pipeline`` over it, package the result."""
    ctx = CompilationContext(
        step=step,
        gateset=resolve_gateset(gateset),
        device=device,
        seed=seed,
        cache=cache if cache is not None else DecomposeCache(),
        initial=initial,
        binding=dict(binding) if binding else None,
        cancel=cancel,
    )
    return result_from_context(pipeline.run(ctx))


# ----------------------------------------------------------------------
# The 2QAN passes (Figure 2 stages 1-6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnifyPass:
    """Stage 1: merge same-pair term exponentials into SU(4) blocks.

    With ``enabled=False`` the problem passes through untouched (the
    paper's unify ablation); the pass still runs so the timings record
    stays shaped the same.
    """

    enabled: bool = True
    name: str = "unify"

    reads: ClassVar[tuple[str, ...]] = ("step",)
    writes: ClassVar[tuple[str, ...]] = ("working",)

    def run(self, ctx: CompilationContext) -> CompilationContext:
        ctx.working = (unify_circuit_operators(ctx.step) if self.enabled
                       else ctx.step)
        return ctx


@dataclass(frozen=True)
class MapPass:
    """Stage 2: QAP-formulated placement via best-of-k Tabu search.

    Honours a fixed ``ctx.initial`` assignment when the driver provides
    one (validating it and scoring it on the QAP instance instead of
    searching).

    The ``trials`` Tabu searches run in lockstep on one stacked
    gain-matrix tensor (:func:`repro.mapping.tabu.tabu_trials`), each
    trial updated by a rank-1 term per move; interaction-count flows and
    hop-count distances are integer-valued, so the kernel is exact and
    every trial's trajectory is bit-identical to running it alone -- see
    "Mapping performance" in ``docs/architecture.md``.
    """

    trials: int = 5
    name: str = "mapping"

    reads: ClassVar[tuple[str, ...]] = ("working", "device", "seed",
                                        "initial")
    writes: ClassVar[tuple[str, ...]] = ("assignment", "qap_cost")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        device = ctx.require("device")
        instance = qap_from_problem(working, device)
        if ctx.initial is None:
            mapping = best_of_k_mapping(instance, k=self.trials,
                                        seed=ctx.seed)
            ctx.assignment, ctx.qap_cost = mapping.assignment, float(mapping.cost)
        else:
            ctx.assignment = validated_assignment(
                ctx.initial, instance.n_logical, instance.n_physical)
            ctx.qap_cost = float(instance.cost(ctx.assignment))
        return ctx


@dataclass(frozen=True)
class RoutePass:
    """Stages 3+4: permutation-aware routing with optional SWAP dressing."""

    dress: bool = True
    criteria: tuple[str, ...] = ("count", "depth", "dress")
    name: str = "routing"

    reads: ClassVar[tuple[str, ...]] = ("working", "device", "assignment",
                                        "seed")
    writes: ClassVar[tuple[str, ...]] = ("routed", "n_swaps", "n_dressed")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        device = ctx.require("device")
        assignment = ctx.require("assignment")
        routed = route(working, device, assignment, seed=ctx.seed,
                       dress=self.dress, criteria=self.criteria)
        ctx.routed = routed
        ctx.n_swaps = routed.n_swaps
        ctx.n_dressed = routed.n_dressed
        return ctx


@dataclass(frozen=True)
class SchedulePass:
    """Stage 5: permutation-aware hybrid ALAP scheduling (Algorithm 2)."""

    hybrid: bool = True
    name: str = "scheduling"

    reads: ClassVar[tuple[str, ...]] = ("routed", "seed")
    writes: ClassVar[tuple[str, ...]] = ("scheduled", "initial_map",
                                         "final_map")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        routed = ctx.require("routed")
        scheduled = schedule_alap(routed, seed=ctx.seed, hybrid=self.hybrid)
        ctx.scheduled = scheduled
        ctx.initial_map = scheduled.initial_map
        ctx.final_map = scheduled.final_map
        return ctx


@dataclass(frozen=True)
class BindPass:
    """Bind symbolic parameters into concrete unitaries.

    The seam of the structure/parameter split: every pass before it is
    *structural* (operates on pairs, interaction counts and factor
    structure, never on matrix entries) and runs once per circuit shape;
    every pass after it sees only concrete unitaries.  The pass resolves
    ``ctx.binding`` into the scheduled operators and any already-present
    circuits, preserving object identity where artifacts alias each
    other (e.g. baselines that publish ``app_circuit is circuit``).

    On a fully-concrete compilation with no binding the pass is a no-op,
    so it sits in every pipeline (keeping the one-timing-entry-per-pass
    shape) without perturbing existing behaviour.  Unknown parameter
    names in the binding are ignored -- a sweep may carry one mapping for
    circuits touching different parameter subsets -- while *missing*
    names raise :class:`~repro.quantum.params.UnboundParameterError`
    before any downstream pass can trip over a ``None`` unitary.
    """

    name: str = "binding"

    reads: ClassVar[tuple[str, ...]] = ("scheduled", "app_circuit",
                                        "circuit", "binding")
    writes: ClassVar[tuple[str, ...]] = ("scheduled", "app_circuit",
                                         "circuit")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        from repro.core.bind import bind_scheduled, context_parameters
        from repro.quantum.params import UnboundParameterError

        binding = ctx.binding or {}
        names = context_parameters(ctx)
        if not names:
            return ctx
        missing = names - binding.keys()
        if missing:
            raise UnboundParameterError(missing)
        if ctx.scheduled is not None:
            ctx.scheduled = bind_scheduled(ctx.scheduled, binding)
        if ctx.app_circuit is not None:
            bound_app = ctx.app_circuit.bind(binding)
            if ctx.circuit is ctx.app_circuit:
                ctx.circuit = bound_app
            elif ctx.circuit is not None:
                ctx.circuit = ctx.circuit.bind(binding)
            ctx.app_circuit = bound_app
        elif ctx.circuit is not None:
            ctx.circuit = ctx.circuit.bind(binding)
        return ctx


@dataclass(frozen=True)
class DecomposePass:
    """Stage 6: lower to the hardware basis and collect circuit metrics.

    Shared verbatim by 2QAN and the baselines: lowers ``ctx.app_circuit``
    (materialising it from the schedule when a scheduling pass produced
    one) through the KAK/Weyl synthesis with the context's cache, then
    records :class:`CircuitMetrics` including the SWAP counters earlier
    passes left on the context.
    """

    solve: bool = False
    name: str = "decomposition"

    reads: ClassVar[tuple[str, ...]] = ("app_circuit", "scheduled",
                                        "gateset", "seed", "n_swaps",
                                        "n_dressed")
    writes: ClassVar[tuple[str, ...]] = ("app_circuit", "circuit",
                                         "metrics")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        if ctx.app_circuit is None:
            scheduled = ctx.require("scheduled")
            ctx.app_circuit = scheduled.to_circuit()
        ctx.circuit = decompose_circuit(ctx.app_circuit, ctx.gateset,
                                        solve=self.solve, seed=ctx.seed,
                                        cache=ctx.cache)
        ctx.metrics = CircuitMetrics.from_circuit(
            ctx.circuit, n_swaps=ctx.n_swaps, n_dressed=ctx.n_dressed
        )
        return ctx


# ----------------------------------------------------------------------
# Layer repetition (the paper's odd/even reuse scheme, Section V-C/D)
# ----------------------------------------------------------------------
def repeat_layers(first: CompilationResult, layers: list[Circuit],
                  n_qubits: int, *,
                  relower_seconds: float = 0.0) -> CompilationResult:
    """Combine per-layer circuits into one multi-layer result.

    The single place where layer circuits are concatenated and the
    combined metrics derived -- previously triplicated across
    ``compile``/``compile_layers``/``compile_trotter``.  ``first`` is the
    one genuinely-compiled layer whose mapping/routing artifacts the
    combined result inherits; ``layers`` are the per-layer hardware
    circuits (already reversed for even layers where applicable).

    ``relower_seconds`` is the total wall time spent re-lowering reused
    layers; it is *added* to the first layer's decomposition timing so
    the combined ``timings`` reflect the whole multi-layer compilation
    rather than just layer one.
    """
    if not layers:
        raise ValueError("need at least one layer")
    if len(layers) == 1 and relower_seconds == 0.0:
        return first
    combined = Circuit(n_qubits)
    for layer in layers:
        combined.extend(layer.gates)
    n = len(layers)
    metrics = CircuitMetrics.from_circuit(
        combined,
        n_swaps=first.n_swaps * n,
        n_dressed=first.n_dressed * n,
    )
    timings = dict(first.timings)
    if relower_seconds:
        timings["decomposition"] = (
            timings.get("decomposition", 0.0) + relower_seconds
        )
    return replace(
        first,
        circuit=combined,
        metrics=metrics,
        timings=timings,
        n_swaps=metrics.n_swaps,
        n_dressed=metrics.n_dressed,
    )


# ----------------------------------------------------------------------
# Compiler base: a configured pipeline plus the context plumbing
# ----------------------------------------------------------------------
class PipelineCompiler:
    """Mixin turning a pass list into a ``compile()`` entry point.

    Concrete compilers (dataclasses holding their knobs) implement
    :meth:`build_pipeline`; this mixin provides the context construction
    and result packaging shared by all of them.  Subclasses must expose
    ``gateset``, ``seed`` and ``cache`` attributes and may expose
    ``device`` (compilers that target no device simply omit it).  The
    shared ``__post_init__`` resolves gate-set names and defaults the
    decomposition cache, so subclasses normally need none of their own.
    """

    def __post_init__(self) -> None:
        if getattr(self, "gateset", None) is not None:
            self.gateset = resolve_gateset(self.gateset)
        if hasattr(self, "cache") and self.cache is None:
            self.cache = DecomposeCache()

    def build_pipeline(self) -> PassPipeline:
        raise NotImplementedError

    def compile(self, step: TrotterStep,
                initial: np.ndarray | None = None,
                binding: dict[str, float] | None = None,
                cancel: CancelToken | None = None,
                ) -> CompilationResult:
        """Compile one Trotter step / QAOA layer through the pipeline.

        ``binding`` maps symbolic parameter names to angles; it is
        required exactly when ``step`` is symbolic (the pipeline's bind
        pass resolves it before decomposition).  ``cancel`` is checked
        at every pass boundary; a fired token aborts the compilation
        with :class:`~repro.core.cancel.CompilationCancelled`.
        """
        return run_pipeline(
            self.build_pipeline(), step,
            gateset=self.gateset, device=getattr(self, "device", None),
            seed=self.seed, cache=self.cache, initial=initial,
            binding=binding, cancel=cancel,
        )
