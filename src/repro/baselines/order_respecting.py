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
from repro.hamiltonians.trotter import TrotterStep
from repro.mapping.placement import line_placement, random_mapping
from repro.mapping.qap import qap_from_problem, validated_assignment
from repro.quantum.circuit import Circuit
from repro.synthesis.gateset import GateSet


def _dependency_dag(pairs: list[tuple[int, int]],
                    ) -> tuple[list[list[int]], list[int]]:
    """Successor lists and in-degrees of the gate dependency DAG.

    Gate ``i`` waits on the previous gate of each of its qubits (one
    edge when both qubits last met in the same gate).
    """
    last_on_qubit: dict[int, int] = {}
    successors: list[list[int]] = [[] for _ in pairs]
    indegree = [0] * len(pairs)
    for index, (u, v) in enumerate(pairs):
        for prev in {last_on_qubit.get(u), last_on_qubit.get(v)} - {None}:
            successors[prev].append(index)
            indegree[index] += 1
        last_on_qubit[u] = last_on_qubit[v] = index
    return successors, indegree


def _route_order_respecting(step: TrotterStep, device: Device,
                            initial: np.ndarray, *, lookahead: int,
                            stochastic: bool, seed: int,
                            ) -> tuple[Circuit, int, QubitMap, QubitMap]:
    """Shared frontier-routing loop; returns the application circuit.

    The frontier (gates whose predecessors all ran, program order) is
    kept by in-degree counters: only successors of executed gates can
    join it.  With no frontier gate on an edge, every SWAP candidate --
    the device edges touching a frontier qubit, sorted -- is scored in
    one gather: ``(candidates x gates)`` post-swap distances over the
    frontier and the next ``lookahead`` waiting gates.  Per-gate
    distances are accumulated left to right in frontier (then program)
    order, the order a Python ``sum`` adds them, so non-integer
    ``edge_weights`` give the same float scores and tie-breaks as a
    per-candidate loop.
    """
    rng = np.random.default_rng(seed)
    qmap = QubitMap.from_assignment(initial)
    initial_map = qmap.copy()
    ops = step.two_qubit_ops
    pairs = [op.pair for op in ops]
    successors, indegree = _dependency_dag(pairs)
    logical_pairs = np.array(pairs, dtype=np.intp).reshape(len(ops), 2)
    circuit = Circuit(device.n_qubits)
    dist = device.distance
    adjacent = device.adjacency_matrix
    incidence = device.edge_incidence
    # relabel[e, p]: where the qubit on p sits after SWAP e
    edge_ends = np.array(device.edges, dtype=np.intp).reshape(-1, 2)
    relabel = np.tile(np.arange(device.n_qubits), (len(edge_ends), 1))
    rows = np.arange(len(edge_ends))
    relabel[rows, edge_ends[:, 0]] = edge_ends[:, 1]
    relabel[rows, edge_ends[:, 1]] = edge_ends[:, 0]
    l2p = np.array(initial, dtype=np.intp)
    frontier = [i for i, degree in enumerate(indegree) if not degree]
    # gates neither executed nor in the frontier: the lookahead pool
    waiting = np.ones(len(ops), dtype=bool)
    waiting[frontier] = False
    n_swaps = 0
    last_swap: int | None = None
    guard = 0
    limit = 200 * (len(ops) + 1) * (device.diameter + 1)

    while frontier:
        guard += 1
        if guard > limit:
            raise RuntimeError("order-respecting router failed to converge")
        phys = l2p[logical_pairs[frontier]]
        ready = adjacent[phys[:, 0], phys[:, 1]]
        if ready.any():
            blocked, joined = [], []
            for index, is_ready, (pu, pv) in zip(frontier, ready.tolist(),
                                                  phys.tolist()):
                if not is_ready:
                    blocked.append(index)
                    continue
                circuit.append(app_2q_gate(ops[index], pu, pv))
                for succ in successors[index]:
                    indegree[succ] -= 1
                    if not indegree[succ]:
                        joined.append(succ)
            waiting[joined] = False
            frontier = sorted(blocked + joined)
            last_swap = None
            continue
        # No executable gate: insert a SWAP chosen by the heuristic.
        touched = incidence[phys.ravel()].any(axis=0)
        if last_swap is not None and touched[last_swap] \
                and np.count_nonzero(touched) > 1:
            touched[last_swap] = False
        candidates = np.flatnonzero(touched)
        gates = phys
        if lookahead:
            extended = np.flatnonzero(waiting)[:lookahead]
            gates = np.concatenate((phys, l2p[logical_pairs[extended]]))
        moved = relabel[candidates]
        trial = dist[moved[:, gates[:, 0]], moved[:, gates[:, 1]]]
        n_frontier = len(frontier)
        n_ahead = len(gates) - n_frontier
        scores = np.add.accumulate(trial[:, :n_frontier], axis=1)[:, -1]
        if n_ahead:
            ahead = np.add.accumulate(trial[:, n_frontier:], axis=1)[:, -1]
            scores = scores + 0.5 * ahead / n_ahead * n_frontier
        ties = candidates[scores <= scores.min() + 1e-9]
        if stochastic and len(ties) > 1:
            chosen = int(ties[int(rng.integers(len(ties)))])
        else:
            chosen = int(ties[0])
        edge = device.edges[chosen]
        circuit.append(swap_gate(*edge))
        qmap = qmap.after_swap(edge)
        for physical in edge:
            logical = qmap.logical(physical)
            if logical is not None:
                l2p[logical] = physical
        n_swaps += 1
        last_swap = chosen
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
