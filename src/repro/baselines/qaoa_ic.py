"""IC-QAOA-style compiler (stand-in for Alam et al., MICRO/DAC 2020).

The real tool exploits the *commutativity* of the QAOA cost layer: all
``exp(i gamma ZZ)`` operators commute, so any of them may execute whenever
its qubits are adjacent -- the "instruction-gain" insight.  The router
therefore looks like 2QAN's (order-free absorption of NN gates) but:

* SWAP selection greedily maximises the number of *newly executable*
  gates (instruction gain), breaking ties by remaining-distance sum --
  rather than 2QAN's prioritised global criteria;
* there is no SWAP dressing and no ALAP hybrid scheduling;
* it refuses Hamiltonians whose two-qubit terms do not all commute
  (the real tool is QAOA-specific; this is what restricts it to
  CNOT/CZ-friendly commuting circuits in the paper's comparison).

Pipeline: ``UnifyPass -> CommutationGuardPass -> DegreePlacementPass ->
InstructionGainRoutePass -> DecomposePass``.
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
from repro.mapping.qap import validated_assignment
from repro.quantum.circuit import Circuit
from repro.quantum.params import probe_binding
from repro.synthesis.gateset import GateSet


#: Row/column order of ``SWAP @ U @ SWAP`` for a 4x4 two-qubit ``U``.
_SWAPPED = [0, 2, 1, 3]
_I2 = np.eye(2)


def _all_commuting(step: TrotterStep) -> bool:
    """Check pairwise commutation of the generating Pauli pairs.

    Unified ZZ...ZZ products commute iff their generators do; operator
    labels record the generators, but checking the unitaries directly is
    simpler and exact: commuting 4x4 blocks on overlapping qubits is not
    sufficient in general, so we check matrix commutators on the joint
    support for overlapping pairs.

    Every pair sharing exactly one qubit is laid out on three qubits
    ``(x, shared, y)``: the first operator as ``A (x) I``, the second as
    ``I (x) B``, each flipped by a SWAP conjugation where its shared
    qubit sits on the other side.  All pairs are stacked and share one
    batched commutator.

    A symbolic step is probed under a generic angle binding: whether two
    exponential families commute does not depend on generic (non-special)
    angle values, so the structural guard needs no real binding.
    """
    if step.is_symbolic:
        step = step.bind(probe_binding(step.parameters()))
    ops = step.two_qubit_ops
    pairs = np.array([op.pair for op in ops]).reshape(-1, 2)
    meets = pairs[:, None, :, None] == pairs[None, :, None, :]
    # pairs sharing exactly one qubit, first operator earlier
    first, second = np.nonzero(np.triu(meets.sum(axis=(2, 3)) == 1, k=1))
    if not len(first):
        return True
    unitaries = np.stack([op.unitary for op in ops])
    # A's shared qubit must be its second factor, B's its first
    flip_a = meets[first, second, 0, :].any(axis=1)
    flip_b = meets[first, second, :, 1].any(axis=1)
    a = unitaries[first]
    b = unitaries[second]
    a[flip_a] = a[flip_a][:, _SWAPPED][:, :, _SWAPPED]
    b[flip_b] = b[flip_b][:, _SWAPPED][:, :, _SWAPPED]
    count = len(first)
    a_i = (a[:, :, None, :, None] * _I2[:, None, :]).reshape(count, 8, 8)
    i_b = (_I2[:, None, :, None] * b[:, None, :, None, :]).reshape(count, 8, 8)
    return not (np.abs(a_i @ i_b - i_b @ a_i) > 1e-9).any()


def _degree_bfs_placement(step: TrotterStep, device: Device,
                          seed: int = 0) -> np.ndarray:
    """Greedy placement: highest-degree problem qubit onto the
    highest-degree free device qubit adjacent to already-placed partners."""
    n = step.n_qubits
    degree = np.zeros(n, dtype=int)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for op in step.two_qubit_ops:
        u, v = op.pair
        degree[u] += 1
        degree[v] += 1
        neighbours[u].add(v)
        neighbours[v].add(u)
    order = sorted(range(n), key=lambda q: -degree[q])
    placement: dict[int, int] = {}
    used: set[int] = set()
    device_degree = [len(device.neighbors(q)) for q in range(device.n_qubits)]
    for logical in order:
        placed_partners = [p for p in neighbours[logical] if p in placement]
        candidates: set[int] = set()
        for partner in placed_partners:
            candidates |= device.neighbors(placement[partner]) - used
        if not candidates:
            candidates = set(range(device.n_qubits)) - used
        # prefer highly connected free qubits close to placed partners
        def score(physical: int) -> tuple[float, int]:
            if placed_partners:
                total = sum(
                    device.distance[physical, placement[p]]
                    for p in placed_partners
                )
            else:
                total = 0.0
            return (total, -device_degree[physical])
        chosen = min(sorted(candidates), key=score)
        placement[logical] = chosen
        used.add(chosen)
    return np.array([placement[q] for q in range(n)])


# ----------------------------------------------------------------------
# Pipeline passes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommutationGuardPass:
    """Refuse problems whose two-qubit layers do not all commute."""

    name: str = "validate"

    reads: ClassVar[tuple[str, ...]] = ("working",)
    writes: ClassVar[tuple[str, ...]] = ()

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        if not _all_commuting(working):
            raise ValueError(
                "IC-QAOA handles only mutually commuting two-qubit layers "
                "(QAOA cost layers / Ising models)"
            )
        return ctx


@dataclass(frozen=True)
class DegreePlacementPass:
    """Greedy degree-BFS placement (the IC-QAOA initial map)."""

    name: str = "mapping"

    reads: ClassVar[tuple[str, ...]] = ("working", "device", "seed",
                                        "initial")
    writes: ClassVar[tuple[str, ...]] = ("assignment",)

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        device = ctx.require("device")
        ctx.assignment = (
            validated_assignment(ctx.initial, working.n_qubits,
                                 device.n_qubits)
            if ctx.initial is not None
            else _degree_bfs_placement(working, device, ctx.seed))
        return ctx


@dataclass(frozen=True)
class InstructionGainRoutePass:
    """SWAP selection greedily maximising newly-executable gates."""

    name: str = "routing"

    # seed was declared here through PR 9 but run() never consumes it:
    # the greedy gain rule is deterministic given the placement, so the
    # over-scoped key fragmented the cache across seeds for nothing.
    reads: ClassVar[tuple[str, ...]] = ("working", "device", "assignment")
    writes: ClassVar[tuple[str, ...]] = ("app_circuit", "n_swaps",
                                         "initial_map", "final_map")

    def run(self, ctx: CompilationContext) -> CompilationContext:
        working = ctx.require("working")
        device = ctx.require("device")
        assignment = ctx.require("assignment")
        qmap = QubitMap.from_assignment(assignment)
        initial_map = qmap.copy()
        circuit = Circuit(device.n_qubits)
        remaining = list(working.two_qubit_ops)
        dist = device.distance
        n_swaps = 0
        guard = 0
        limit = 200 * (len(remaining) + 1) * (device.diameter + 1)

        def execute_ready() -> None:
            nonlocal remaining
            still = []
            for op in remaining:
                u, v = op.pair
                pu, pv = qmap.physical(u), qmap.physical(v)
                if device.are_neighbors(pu, pv):
                    circuit.append(app_2q_gate(op, pu, pv))
                else:
                    still.append(op)
            remaining = still

        execute_ready()
        while remaining:
            guard += 1
            if guard > limit:
                raise RuntimeError("IC-QAOA router failed to converge")
            # candidate swaps: edges incident to any remaining gate's qubits
            candidates: set[tuple[int, int]] = set()
            for op in remaining:
                for logical in op.pair:
                    physical = qmap.physical(logical)
                    for neighbour in device.neighbors(physical):
                        candidates.add((min(physical, neighbour),
                                        max(physical, neighbour)))
            # score every candidate against every remaining gate at once:
            # a trial swap (a, b) moves the qubit sitting on a to b and
            # vice versa, so the post-swap positions are a pair of
            # np.where relabellings and the (gates x candidates) distance
            # block one fancy index.  Distances are integer hop counts,
            # so the vectorized sums are exact and the selected edge is
            # identical to the old per-candidate scalar probes.
            edges = sorted(candidates)
            phys = np.array([[qmap.physical(op.pair[0]),
                              qmap.physical(op.pair[1])]
                             for op in remaining])
            edge_a = np.array([a for a, _ in edges])[None, :]
            edge_b = np.array([b for _, b in edges])[None, :]
            pu, pv = phys[:, :1], phys[:, 1:]
            pu_trial = np.where(pu == edge_a, edge_b,
                                np.where(pu == edge_b, edge_a, pu))
            pv_trial = np.where(pv == edge_a, edge_b,
                                np.where(pv == edge_b, edge_a, pv))
            trial_dist = dist[pu_trial, pv_trial]
            gain = (trial_dist == 1.0).sum(axis=0)
            total = trial_dist.sum(axis=0)
            # first strict minimum of (-gain, total) in sorted edge order
            best_idx = np.lexsort((np.arange(len(edges)), total, -gain))[0]
            best_edge = edges[int(best_idx)]
            circuit.append(swap_gate(*best_edge))
            qmap = qmap.after_swap(best_edge)
            n_swaps += 1
            execute_ready()

        for op in working.one_qubit_ops:
            circuit.append(app_1q_gate(op, qmap.physical(op.qubit)))
        ctx.app_circuit = circuit
        ctx.n_swaps = n_swaps
        ctx.initial_map = initial_map
        ctx.final_map = qmap
        return ctx


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
@dataclass
class ICQAOACompiler(PipelineCompiler):
    """Instruction-gain routing for commuting (QAOA/Ising) layers."""

    device: Device
    gateset: GateSet
    seed: int = 0
    unify: bool = True
    solve: bool = False
    cache: DecomposeCache | None = None

    def build_pipeline(self) -> PassPipeline:
        return PassPipeline([
            UnifyPass(enabled=self.unify),
            CommutationGuardPass(),
            DegreePlacementPass(),
            InstructionGainRoutePass(),
            BindPass(),
            DecomposePass(solve=self.solve),
        ])


def compile_ic_qaoa(step: TrotterStep, device: Device,
                    gateset: str | GateSet, seed: int = 0, *,
                    unify: bool = True, solve: bool = False,
                    cache=None) -> CompilationResult:
    """Instruction-gain routing for commuting (QAOA/Ising) layers."""
    return ICQAOACompiler(device=device, gateset=gateset, seed=seed,
                          unify=unify, solve=solve, cache=cache).compile(step)
