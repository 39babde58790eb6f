"""Reference frontier router: the per-candidate loop the array kernel replaced.

A verbatim copy of ``_DagState`` and ``_route_order_respecting`` as they
stood before :func:`repro.baselines.order_respecting._route_order_respecting`
moved to in-degree counters and one gathered score matrix.  It rescans
the DAG at every step and copies a ``QubitMap`` per candidate SWAP, so
it is slow; it lives here, not in ``src/``, as the oracle the property
tests compare the kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import app_2q_gate, swap_gate
from repro.core.routing import QubitMap
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep, TwoQubitOperator
from repro.quantum.circuit import Circuit


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


def route_order_respecting_reference(step: TrotterStep, device: Device,
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
