"""The quadratic assignment formulation of qubit mapping (Equation 7).

Circuit qubits are *facilities*, hardware qubits are *locations*, the
*flow* between two circuit qubits is their interaction count (number of
two-qubit operators on that pair in one Trotter step), and the *distance*
is the hardware shortest-path hop count.  The objective ::

    min_phi  sum_ij  f_ij * d_{phi(i), phi(j)}

counts (twice) the SWAP-distance work an ideal router would need, so a
good assignment directly reduces inserted SWAPs.  The paper argues this
formulation works *better* for 2-local Hamiltonian simulation than for
generic circuits because any NN operator can be scheduled in any map,
making gate order irrelevant to the objective.

One neighbourhood kernel sits on top of the instance: the *gain
matrix* ``G[i, p] = sum_k F[i, k] * D[p, a_k]`` of
:mod:`repro.mapping.tabu` -- the flow-weighted distance from physical
location ``p`` to logical ``i``'s partners -- from which both Tabu
search and GRASP's local search read every swap and relocation delta.
Its closed forms rely on the preconditions
:meth:`QAPInstance.__post_init__` enforces: a symmetric flow with a zero
diagonal (no self-interaction) and a symmetric distance with a zero
diagonal.  Because ``flow`` (interaction counts) and ``distance`` (hop
counts) are integer-valued, every vectorized float64 sum is a sum of
exactly representable integers and therefore *exact*, independent of
summation order -- the kernel returns bit-identical values to the
retained scalar references (:meth:`QAPInstance.swap_delta_reference`,
:meth:`QAPInstance.relocate_delta_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep


@dataclass
class QAPInstance:
    """Flow/distance matrices for one mapping problem.

    ``flow`` is ``n_logical x n_logical``; ``distance`` is
    ``n_physical x n_physical`` with ``n_physical >= n_logical``.
    Both are symmetric with a zero diagonal; construction rejects
    anything else, since the Tabu gain-matrix closed forms drop the
    ``k = i`` terms on that assumption.  An assignment maps logical
    index ``i`` to ``assignment[i]``.
    """

    flow: np.ndarray
    distance: np.ndarray

    def __post_init__(self) -> None:
        if self.flow.shape[0] != self.flow.shape[1]:
            raise ValueError("flow matrix must be square")
        if self.distance.shape[0] != self.distance.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.flow.shape[0] > self.distance.shape[0]:
            raise ValueError("more logical qubits than physical qubits")
        if not np.allclose(self.flow, self.flow.T):
            raise ValueError("flow matrix must be symmetric")
        if np.any(np.diagonal(self.flow)):
            raise ValueError("flow matrix must have a zero diagonal")
        if not np.array_equal(self.distance, self.distance.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diagonal(self.distance)):
            raise ValueError("distance matrix must have a zero diagonal")

    @property
    def n_logical(self) -> int:
        return self.flow.shape[0]

    @property
    def n_physical(self) -> int:
        return self.distance.shape[0]

    def cost(self, assignment: np.ndarray) -> float:
        """Objective value of a logical->physical assignment."""
        sub = self.distance[np.ix_(assignment, assignment)]
        return float((self.flow * sub).sum())

    # ------------------------------------------------------------------
    # Single-move probes
    # ------------------------------------------------------------------
    def swap_delta(self, assignment: np.ndarray, i: int, j: int) -> float:
        """Cost change from swapping the locations of logical i and j.

        Vectorized O(n) evaluation; for integer-valued instances the
        result is bit-identical to :meth:`swap_delta_reference`.
        """
        a, b = assignment[i], assignment[j]
        if a == b:
            return 0.0
        terms = (self.flow[i] - self.flow[j]) * (
            self.distance[b, assignment] - self.distance[a, assignment]
        )
        return float(2.0 * (terms.sum() - terms[i] - terms[j]))

    def swap_delta_reference(self, assignment: np.ndarray,
                             i: int, j: int) -> float:
        """Scalar reference for :meth:`swap_delta` and the gain-matrix
        kernel (kept for equivalence tests; not used on the compile
        path)."""
        a, b = assignment[i], assignment[j]
        if a == b:
            return 0.0
        delta = 0.0
        for k in range(self.n_logical):
            if k == i or k == j:
                continue
            c = assignment[k]
            delta += 2 * (self.flow[i, k] - self.flow[j, k]) * (
                self.distance[b, c] - self.distance[a, c]
            )
        return float(delta)

    def relocate_delta_reference(self, assignment: np.ndarray,
                                 i: int, new_loc: int) -> float:
        """Scalar reference: cost change from moving logical ``i`` to the
        free location ``new_loc``."""
        old = assignment[i]
        delta = 0.0
        for k in range(self.n_logical):
            if k == i:
                continue
            c = assignment[k]
            delta += 2 * self.flow[i, k] * (
                self.distance[new_loc, c] - self.distance[old, c]
            )
        return float(delta)


def validated_assignment(assignment, n_logical: int,
                         n_physical: int) -> np.ndarray:
    """``assignment`` as an array, checked to place ``n_logical`` logical
    qubits on distinct physical qubits in ``[0, n_physical)``."""
    placed = np.asarray(assignment)
    if (placed.shape != (n_logical,) or placed.dtype.kind not in "iu"
            or placed.min() < 0 or placed.max() >= n_physical
            or len(np.unique(placed)) != n_logical):
        raise ValueError(
            f"initial assignment must place {n_logical} logical qubits on "
            f"distinct physical qubits 0..{n_physical - 1}, got "
            f"{placed.tolist()}")
    return placed


def qap_from_problem(step: TrotterStep, device: Device) -> QAPInstance:
    """Build the QAP instance for a Trotter step on a device."""
    n = step.n_qubits
    if n > device.n_qubits:
        raise ValueError(
            f"problem needs {n} qubits but device has {device.n_qubits}"
        )
    flow = np.zeros((n, n))
    for (u, v), count in step.interaction_counts().items():
        flow[u, v] += count
        flow[v, u] += count
    return QAPInstance(flow, device.distance)


def qap_cost(step: TrotterStep, device: Device,
             assignment: np.ndarray) -> float:
    """Convenience: Equation-7 cost of an assignment."""
    return qap_from_problem(step, device).cost(assignment)
