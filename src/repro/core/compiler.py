"""The 2QAN compiler driver: a configured pass pipeline.

:class:`TwoQANCompiler` assembles the paper's configuration (best-of-5
Tabu mapping, full SWAP criteria, dressing on, hybrid ALAP scheduling,
decomposition last) as a
``PassPipeline([UnifyPass, MapPass, RoutePass, SchedulePass,
DecomposePass])``; the knobs the ablation benchmarks flip select pass
parameters.  Swapping whole stages goes through
:meth:`TwoQANCompiler.build_pipeline` and
:func:`repro.core.pipeline.run_pipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.decompose import DecomposeCache, decompose_circuit
from repro.core.pipeline import (
    BindPass,
    CompilationResult,
    DecomposePass,
    MapPass,
    PassPipeline,
    PipelineCompiler,
    RoutePass,
    SchedulePass,
    UnifyPass,
    repeat_layers,
)
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep
from repro.quantum.circuit import Circuit
from repro.synthesis.gateset import GateSet

__all__ = ["CompilationResult", "TwoQANCompiler", "compile_step"]


@dataclass
class TwoQANCompiler(PipelineCompiler):
    """The 2QAN compiler with the paper's default configuration."""

    device: Device
    gateset: GateSet
    seed: int = 0
    mapping_trials: int = 5
    unify: bool = True
    dress: bool = True
    hybrid_schedule: bool = True
    swap_criteria: tuple[str, ...] = ("count", "depth", "dress")
    solve_angles: bool = False
    cache: DecomposeCache | None = None

    # gateset/cache normalisation comes from PipelineCompiler.__post_init__

    # ------------------------------------------------------------------
    def build_pipeline(self) -> PassPipeline:
        """The paper's Figure 2 stages, parameterised by the knobs."""
        return PassPipeline([
            UnifyPass(enabled=self.unify),
            MapPass(trials=self.mapping_trials),
            RoutePass(dress=self.dress, criteria=self.swap_criteria),
            SchedulePass(hybrid=self.hybrid_schedule),
            BindPass(),
            DecomposePass(solve=self.solve_angles),
        ])

    # ``compile`` is inherited from PipelineCompiler.

    # ------------------------------------------------------------------
    def compile_layers(self, steps: list[TrotterStep],
                       binding: dict[str, float] | None = None,
                       ) -> CompilationResult:
        """Multi-layer compilation via the paper's odd/even scheme.

        Only the first layer is compiled; odd layers reuse its circuit
        and even layers reverse the two-qubit gate order (Section V-C).
        The per-layer operator *parameters* may differ (QAOA), so each
        reused layer re-lowers the first layer's schedule with its own
        unitaries -- structure (SWAPs, depth shape) is shared.  A
        symbolic first layer takes its angles from ``binding``.
        """
        if not steps:
            raise ValueError("need at least one layer")
        first = self.compile(steps[0], binding=binding)
        if len(steps) == 1:
            return first
        # layer 0 is exactly first.circuit (the re-lowering is
        # deterministic), so only the reused layers re-lower
        layers: list[Circuit] = [first.circuit]
        relower_seconds = 0.0
        for layer_index, step in enumerate(steps[1:], start=1):
            start = time.perf_counter()
            layer = self._relower_layer(first, step)
            relower_seconds += time.perf_counter() - start
            if layer_index % 2 == 1:
                layer = layer.reversed_two_qubit_order()
            layers.append(layer)
        return repeat_layers(first, layers, self.device.n_qubits,
                             relower_seconds=relower_seconds)

    def _relower_layer(self, first: CompilationResult,
                       step: TrotterStep) -> Circuit:
        """Lower the first layer's schedule with this layer's unitaries.

        For benchmarks all layers share operator structure; when the
        layer's operators match the first layer's pairs, the schedule is
        reused directly (QAOA layers differ only in angles, which does
        not change counts/depth of the lowered circuit).
        """
        app_circuit = first.scheduled.to_circuit()
        return decompose_circuit(app_circuit, self.gateset,
                                 solve=self.solve_angles, seed=self.seed,
                                 cache=self.cache)

    # ------------------------------------------------------------------
    def compile_trotter(self, hamiltonian, n_steps: int,
                        total_time: float = 1.0) -> CompilationResult:
        """Compile an ``n_steps`` Trotterised evolution (Section V-D).

        Implements the paper's scheme: compile the first step once, reuse
        it for odd-numbered steps and reverse the two-qubit gate order
        for even-numbered steps (equivalent in spirit to second-order
        Trotterisation and free of extra compilation cost).
        """
        from repro.hamiltonians.trotter import trotter_step

        step = trotter_step(hamiltonian, t=total_time / n_steps)
        first = self.compile(step)
        if n_steps == 1:
            return first
        forward = first.circuit
        backward = forward.reversed_two_qubit_order()
        layers = [forward if i % 2 == 0 else backward
                  for i in range(n_steps)]
        return repeat_layers(first, layers, self.device.n_qubits)


def compile_step(step: TrotterStep, device: Device, gateset: str | GateSet,
                 seed: int = 0, **kwargs) -> CompilationResult:
    """One-call convenience wrapper around :class:`TwoQANCompiler`."""
    compiler = TwoQANCompiler(device=device, gateset=gateset, seed=seed,
                              **kwargs)
    return compiler.compile(step)
