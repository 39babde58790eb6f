"""Order-respecting gate-level routers: the generic-compiler stand-ins.

Both honour the *input gate order*: a gate may execute only when every
earlier gate sharing one of its qubits has executed (the standard gate
dependency DAG).  Disjoint gates may run in any order -- that is the full
extent of reordering a generic compiler can prove safe, and precisely
what 2QAN's permutation-awareness goes beyond.

* :class:`TketLikeCompiler` / :func:`compile_tket_like` -- line
  placement + frontier routing with a lookahead window and decay, in the
  spirit of t|ket>'s routing pass.
* :class:`QiskitLikeCompiler` / :func:`compile_qiskit_like` --
  randomized placement (best of 5 by QAP cost) + frontier routing
  *without* lookahead and with stochastic tie breaking, in the spirit of
  Qiskit 0.26's stochastic swapper.

Neither dresses SWAPs.  Inputs are pair-unified first, matching the
paper's protocol ("we also pre-process the input circuits for t|ket> and
Qiskit by applying the circuit unitary unifying").

Pipelines: ``UnifyPass -> {LinePlacementPass | RandomPlacementPass} ->
FrontierRoutePass -> DecomposePass``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.baselines.base import app_1q_gate, app_2q_gate, swap_gate
from repro.core.decompose import DecomposeCache
from repro.core.pipeline import (
    BindPass,
    CompilationContext,
    CompilationResult,
    DecomposePass,
    PassPipeline,
    PipelineCompiler,
    UnifyPass,
)
from repro.core.routing import QubitMap
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep, TwoQubitOperator
from repro.mapping.placement import line_placement, random_mapping
from repro.mapping.qap import qap_from_problem, validated_assignment
from repro.quantum.circuit import Circuit
from repro.synthesis.gateset import GateSet


@dataclass
class _DagState:
    """Frontier iteration over the gate dependency DAG."""

    operators: list[TwoQubitOperator]
    predecessors: list[set[int]]
    successors: list[set[int]]
    executed: set[int]

    @classmethod
    def from_operators(cls, operators: list[TwoQubitOperator]) -> "_DagState":
        last_on_qubit: dict[int, int] = {}
        predecessors: list[set[int]] = [set() for _ in operators]
        successors: list[set[int]] = [set() for _ in operators]
        for index, op in enumerate(operators):
            for qubit in op.pair:
                prev = last_on_qubit.get(qubit)
                if prev is not None:
                    predecessors[index].add(prev)
                    successors[prev].add(index)
                last_on_qubit[qubit] = index
        return cls(operators, predecessors, successors, set())

    def frontier(self) -> list[int]:
        return [
            i for i in range(len(self.operators))
            if i not in self.executed and not (self.predecessors[i] - self.executed)
        ]

    def lookahead(self, frontier: list[int], window: int) -> list[int]:
        """The next ``window`` gates beyond the frontier, program order."""
        found: list[int] = []
        frontier_set = set(frontier)
        for i in range(len(self.operators)):
            if i in self.executed or i in frontier_set:
                continue
            found.append(i)
            if len(found) >= window:
                break
        return found


def _route_order_respecting(step: TrotterStep, device: Device,
                            initial: np.ndarray, *, lookahead: int,
                            stochastic: bool, seed: int,
                            ) -> tuple[Circuit, int, QubitMap, QubitMap]:
    """Shared frontier-routing loop; returns the application circuit."""
    rng = np.random.default_rng(seed)
    qmap = QubitMap.from_assignment(initial)
    initial_map = qmap.copy()
    dag = _DagState.from_operators(step.two_qubit_ops)
    circuit = Circuit(device.n_qubits)
    dist = device.distance
    n_swaps = 0
    last_swap: tuple[int, int] | None = None
    guard = 0
    limit = 200 * (len(step.two_qubit_ops) + 1) * (device.diameter + 1)

    def gate_distance(index: int, mapping: QubitMap) -> float:
        u, v = dag.operators[index].pair
        return float(dist[mapping.physical(u), mapping.physical(v)])

    while True:
        guard += 1
        if guard > limit:
            raise RuntimeError("order-respecting router failed to converge")
        frontier = dag.frontier()
        if not frontier:
            break
        ready = [
            i for i in frontier
            if device.are_neighbors(
                qmap.physical(dag.operators[i].pair[0]),
                qmap.physical(dag.operators[i].pair[1]),
            )
        ]
        if ready:
            for index in ready:
                op = dag.operators[index]
                u, v = op.pair
                pu, pv = qmap.physical(u), qmap.physical(v)
                circuit.append(app_2q_gate(op, pu, pv))
                dag.executed.add(index)
            last_swap = None
            continue
        # No executable gate: insert a SWAP chosen by the heuristic.
        candidates: set[tuple[int, int]] = set()
        for index in frontier:
            for logical in dag.operators[index].pair:
                physical = qmap.physical(logical)
                for neighbour in device.neighbors(physical):
                    candidates.add((min(physical, neighbour),
                                    max(physical, neighbour)))
        if last_swap in candidates and len(candidates) > 1:
            candidates.discard(last_swap)
        extended = dag.lookahead(frontier, lookahead) if lookahead else []
        scored: list[tuple[float, tuple[int, int]]] = []
        for edge in sorted(candidates):
            trial = qmap.after_swap(edge)
            score = sum(gate_distance(i, trial) for i in frontier)
            if extended:
                score += 0.5 * sum(
                    gate_distance(i, trial) for i in extended
                ) / len(extended) * len(frontier)
            scored.append((score, edge))
        best_score = min(s for s, _ in scored)
        ties = [e for s, e in scored if s <= best_score + 1e-9]
        if stochastic and len(ties) > 1:
            edge = ties[int(rng.integers(len(ties)))]
        else:
            edge = ties[0]
        circuit.append(swap_gate(*edge))
        qmap = qmap.after_swap(edge)
        n_swaps += 1
        last_swap = edge
    return circuit, n_swaps, initial_map, qmap


def _append_one_qubit_ops(circuit: Circuit, step: TrotterStep,
                          final_map: QubitMap) -> Circuit:
    for op in step.one_qubit_ops:
        circuit.append(app_1q_gate(op, final_map.physical(op.qubit)))
    return circuit


# ----------------------------------------------------------------------
# Pipeline passes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinePlacementPass:
    """Deterministic line placement (the t|ket>-style initial map)."""

    name: str = "mapping"

    reads: ClassVar[tuple[str, ...]] = ("step", "device", "initial")
    writes: ClassVar[tuple[str, ...]] = ("assignment",)

    def run(self, ctx: CompilationContext) -> CompilationContext:
        device = ctx.require("device")
        n_logical = ctx.step.n_qubits
        ctx.assignment = (
            validated_assignment(ctx.initial, n_logical, device.n_qubits)
            if ctx.initial is not None
            else line_placement(n_logical, device))
        return ctx


@dataclass(frozen=True)
class RandomPlacementPass:
    """Best of ``trials`` random placements scored by QAP cost."""

    trials: int = 5
    name: str = "mapping"

    reads: ClassVar[tuple[str, ...]] = ("working", "step", "device",
                                        "seed", "initial")
    writes: ClassVar[tuple[str, ...]] = ("assignment", "qap_cost")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        device = ctx.require("device")
        instance = qap_from_problem(working, device)
        if ctx.initial is not None:
            ctx.assignment = validated_assignment(
                ctx.initial, instance.n_logical, instance.n_physical)
        else:
            placements = [
                random_mapping(ctx.step.n_qubits, device,
                               seed=ctx.seed + 31 * t)
                for t in range(self.trials)
            ]
            ctx.assignment = min(placements, key=instance.cost)
        ctx.qap_cost = float(instance.cost(ctx.assignment))
        return ctx


@dataclass(frozen=True)
class FrontierRoutePass:
    """Order-respecting frontier routing (shared t|ket>/Qiskit loop)."""

    lookahead: int = 0
    stochastic: bool = False
    name: str = "routing"

    reads: ClassVar[tuple[str, ...]] = ("working", "device", "assignment",
                                        "seed")
    writes: ClassVar[tuple[str, ...]] = ("app_circuit", "n_swaps",
                                         "initial_map", "final_map")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        device = ctx.require("device")
        assignment = ctx.require("assignment")
        app, n_swaps, init_map, final_map = _route_order_respecting(
            working, device, assignment, lookahead=self.lookahead,
            stochastic=self.stochastic, seed=ctx.seed,
        )
        ctx.app_circuit = _append_one_qubit_ops(app, working, final_map)
        ctx.n_swaps = n_swaps
        ctx.initial_map = init_map
        ctx.final_map = final_map
        return ctx


# ----------------------------------------------------------------------
# Compilers
# ----------------------------------------------------------------------
@dataclass
class _OrderRespectingCompiler(PipelineCompiler):
    """Shared configuration for the two order-respecting stand-ins."""

    device: Device
    gateset: GateSet
    seed: int = 0
    unify: bool = True
    solve: bool = False
    cache: DecomposeCache | None = None


@dataclass
class TketLikeCompiler(_OrderRespectingCompiler):
    """Line placement + lookahead frontier routing (t|ket> stand-in)."""

    lookahead: int = 20

    def build_pipeline(self) -> PassPipeline:
        return PassPipeline([
            UnifyPass(enabled=self.unify),
            LinePlacementPass(),
            FrontierRoutePass(lookahead=self.lookahead, stochastic=False),
            BindPass(),
            DecomposePass(solve=self.solve),
        ])


@dataclass
class QiskitLikeCompiler(_OrderRespectingCompiler):
    """Random best-of-k placement + stochastic no-lookahead routing
    (Qiskit-0.26 stand-in)."""

    trials: int = 5

    def build_pipeline(self) -> PassPipeline:
        return PassPipeline([
            UnifyPass(enabled=self.unify),
            RandomPlacementPass(trials=self.trials),
            FrontierRoutePass(lookahead=0, stochastic=True),
            BindPass(),
            DecomposePass(solve=self.solve),
        ])


def compile_tket_like(step: TrotterStep, device: Device,
                      gateset: str | GateSet, seed: int = 0, *,
                      unify: bool = True, solve: bool = False,
                      lookahead: int = 20, cache=None) -> CompilationResult:
    """Line placement + lookahead frontier routing (t|ket> stand-in)."""
    return TketLikeCompiler(device=device, gateset=gateset, seed=seed,
                            unify=unify, solve=solve, lookahead=lookahead,
                            cache=cache).compile(step)


def compile_qiskit_like(step: TrotterStep, device: Device,
                        gateset: str | GateSet, seed: int = 0, *,
                        unify: bool = True, solve: bool = False,
                        trials: int = 5, cache=None) -> CompilationResult:
    """Random best-of-k placement + stochastic no-lookahead routing
    (Qiskit-0.26 stand-in)."""
    return QiskitLikeCompiler(device=device, gateset=gateset, seed=seed,
                              unify=unify, solve=solve, trials=trials,
                              cache=cache).compile(step)
