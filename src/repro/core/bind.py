"""Structural compilation and late angle binding.

The structure/parameter split: every pass up to (but excluding) the
pipeline's ``binding`` pass depends only on the circuit *shape* --
interaction pairs, counts, device distances -- never on angle values.
:func:`compile_structural` runs exactly that prefix once and captures
the context; :func:`bind_structural` replays the remaining suffix
(binding + decomposition) per angle set.  Compiling ``bind(step)``
from scratch and binding after a structural compile produce
bit-identical circuits: the suffix is the same code over the same
artifacts, and binding an operator folds the same factor matrices the
concrete front end builds.

:func:`bind_scheduled` is the schedule-level binder the pipeline's
``BindPass`` uses: it rebuilds the scheduled item list with concrete
operators without mutating the (shared, reusable) structural schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.cancel import CancelToken
from repro.core.pipeline import (
    CompilationContext,
    CompilationResult,
    PassPipeline,
    result_from_context,
)
from repro.core.routing import RoutedSwap
from repro.core.scheduling import ScheduledCircuit, ScheduledItem

BIND_PASS_NAME = "binding"


# ----------------------------------------------------------------------
# Schedule-level binding
# ----------------------------------------------------------------------
def scheduled_parameters(scheduled: ScheduledCircuit) -> frozenset[str]:
    """Unbound parameter names across a scheduled circuit's operators."""
    names: frozenset[str] = frozenset()
    for item in scheduled.items:
        if item.operator is not None:
            names |= item.operator.parameters
        if item.swap is not None and item.swap.dressed_with is not None:
            names |= item.swap.dressed_with.parameters
    for op in scheduled.one_qubit_ops:
        names |= op.parameters
    return names


def bind_scheduled(scheduled: ScheduledCircuit,
                   binding: dict[str, float]) -> ScheduledCircuit:
    """A concrete schedule with every symbolic operator resolved.

    The input schedule is left untouched (a structural compilation binds
    it many times); items whose operator is already concrete are shared.
    Operators aliased across items (unify emits one object per merged
    pair occurrence) bind to one concrete object.
    """
    memo: dict[int, object] = {}

    def _bound(op):
        key = id(op)
        if key not in memo:
            memo[key] = op.bind(binding)
        return memo[key]

    items: list[ScheduledItem] = []
    for item in scheduled.items:
        if item.operator is not None and item.operator.is_symbolic:
            items.append(ScheduledItem(item.kind, item.physical_pair,
                                       item.cycle,
                                       operator=_bound(item.operator)))
        elif (item.swap is not None and item.swap.dressed_with is not None
              and item.swap.dressed_with.is_symbolic):
            swap = RoutedSwap(item.swap.physical_pair, item.swap.map_index,
                              dressed_with=_bound(item.swap.dressed_with))
            items.append(ScheduledItem(item.kind, item.physical_pair,
                                       item.cycle, swap=swap))
        else:
            items.append(item)
    return ScheduledCircuit(
        n_physical=scheduled.n_physical,
        items=items,
        initial_map=scheduled.initial_map,
        final_map=scheduled.final_map,
        one_qubit_ops=[_bound(op) if op.is_symbolic else op
                       for op in scheduled.one_qubit_ops],
    )


def context_parameters(ctx: CompilationContext) -> frozenset[str]:
    """Unbound parameter names across a context's bindable artifacts."""
    names: frozenset[str] = frozenset()
    if ctx.scheduled is not None:
        names |= scheduled_parameters(ctx.scheduled)
    if ctx.app_circuit is not None:
        names |= ctx.app_circuit.parameters()
    if ctx.circuit is not None and ctx.circuit is not ctx.app_circuit:
        names |= ctx.circuit.parameters()
    return names


# ----------------------------------------------------------------------
# Compile-once / bind-per-request
# ----------------------------------------------------------------------
@dataclass
class StructuralCompilation:
    """A pipeline prefix run once, ready to accept angle bindings.

    ``ctx`` holds the structural artifacts (unified problem, mapping,
    routed problem, schedule); ``suffix`` is the remaining pipeline from
    the bind pass onward.  ``parameters`` are the names every
    :meth:`bind` call must supply.
    """

    suffix: PassPipeline
    ctx: CompilationContext
    parameters: frozenset[str]
    prefix_names: tuple[str, ...]

    def bind(self, binding: dict[str, float] | None = None,
             ) -> CompilationResult:
        return bind_structural(self, binding)


def compile_structural(compiler, step,
                       initial: np.ndarray | None = None,
                       cancel: CancelToken | None = None,
                       ) -> StructuralCompilation:
    """Run a compiler's structural prefix (everything before binding).

    ``compiler`` is any :class:`~repro.core.pipeline.PipelineCompiler`
    whose pipeline contains a pass named ``"binding"``; the step may be
    symbolic or concrete.  ``cancel`` governs only the prefix run; the
    stored structural context carries no token (each bind supplies its
    own), so one request's cancellation never poisons a structural twin
    compiled on its behalf.
    """
    pipeline = compiler.build_pipeline()
    names = pipeline.names()
    if BIND_PASS_NAME not in names:
        raise ValueError(
            f"compiler pipeline {names} has no {BIND_PASS_NAME!r} pass; "
            f"cannot split it into structure and binding"
        )
    split = names.index(BIND_PASS_NAME)
    prefix = PassPipeline(pipeline.passes[:split])
    suffix = PassPipeline(pipeline.passes[split:])
    ctx = CompilationContext(
        step=step,
        gateset=compiler.gateset,
        device=getattr(compiler, "device", None),
        seed=compiler.seed,
        cache=compiler.cache,
        initial=initial,
        cancel=cancel,
    )
    ctx = prefix.run(ctx)
    ctx.cancel = None
    return StructuralCompilation(
        suffix=suffix,
        ctx=ctx,
        parameters=context_parameters(ctx),
        prefix_names=names[:split],
    )


def bind_structural(structural: StructuralCompilation,
                    binding: dict[str, float] | None = None,
                    cancel: CancelToken | None = None,
                    ) -> CompilationResult:
    """Bind one angle set into a structural compilation.

    Replays only the pipeline suffix (binding + decomposition) on a copy
    of the structural context; the structural artifacts are shared, not
    mutated, so a compilation binds any number of angle sets.  Each bind
    carries its own ``cancel`` token (the structural context stores
    none) and starts with empty ``timings``, so it reports only the
    suffix passes it ran, never the prefix's one-off mapping search.
    """
    ctx = replace(
        structural.ctx,
        binding=dict(binding) if binding else None,
        timings={},
        cache_events=dict(structural.ctx.cache_events),
        cancel=cancel,
    )
    ctx = structural.suffix.run(ctx)
    return result_from_context(ctx)
