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

Two neighbourhood kernels sit on top of the instance.  The Tabu search
(:mod:`repro.mapping.tabu`) keeps the *gain matrix*
``G[i, p] = sum_k F[i, k] * D[p, a_k]`` -- the flow-weighted distance
from physical location ``p`` to logical ``i``'s partners -- and reads
every swap and relocation delta off it.  GRASP keeps the Taillard
swap-delta table (the paper's refs [52, 53]):
:meth:`QAPInstance.swap_delta_matrix` scores every swap move at once and
:meth:`QAPInstance.update_deltas_after_swap` refreshes it in O(n^2)
after a move.  The gain-matrix closed forms rely on the preconditions
:meth:`QAPInstance.__post_init__` enforces: a symmetric flow with a zero
diagonal (no self-interaction) and a symmetric distance with a zero
diagonal.  Because ``flow`` (interaction counts) and ``distance`` (hop
counts) are integer-valued, every vectorized float64 sum is a sum of
exactly representable integers and therefore *exact*, independent of
summation order -- the kernels return bit-identical values to the
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
        """Scalar reference for :meth:`swap_delta` (kept for equivalence
        tests and the CI perf smoke; not used on the compile path)."""
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

    # ------------------------------------------------------------------
    # Full-neighbourhood kernels
    # ------------------------------------------------------------------
    def swap_delta_matrix(self, assignment: np.ndarray) -> np.ndarray:
        """All swap-move deltas at once: ``delta[i, j]`` is the cost
        change of swapping logical ``i`` and ``j``.

        Symmetric with a zero diagonal; one matmul instead of O(n^2)
        scalar probes.  Exact for integer-valued instances.
        """
        flow = self.flow
        sub = self.distance[np.ix_(assignment, assignment)]
        cross = flow @ sub.T                    # cross[i, j] = sum_k F[i,k] S[j,k]
        diag_sum = np.einsum("ik,ik->i", flow, sub)
        flow_diag = np.diagonal(flow)
        sub_diag = np.diagonal(sub)
        # full-sum expansion minus the k=i and k=j terms the move excludes
        k_is_i = (flow_diag[:, None] - flow.T) * (sub.T - sub_diag[:, None])
        k_is_j = (flow - flow_diag[None, :]) * (sub_diag[None, :] - sub)
        delta = 2.0 * (cross + cross.T
                       - diag_sum[:, None] - diag_sum[None, :]
                       - k_is_i - k_is_j)
        np.fill_diagonal(delta, 0.0)
        return delta

    def swap_delta_row(self, assignment: np.ndarray, i: int) -> np.ndarray:
        """One row of :meth:`swap_delta_matrix`: deltas of swapping ``i``
        with every other logical qubit, under ``assignment``."""
        flow = self.flow
        sub = self.distance[np.ix_(assignment, assignment)]
        terms = (flow[i][None, :] - flow) * (sub - sub[i][None, :])
        row = 2.0 * (terms.sum(axis=1) - terms[:, i] - np.diagonal(terms))
        row[i] = 0.0
        return row

    # ------------------------------------------------------------------
    # Taillard-style O(n^2) incremental updates
    # ------------------------------------------------------------------
    def update_deltas_after_swap(self, delta: np.ndarray,
                                 assignment: np.ndarray,
                                 i: int, j: int) -> np.ndarray:
        """Refresh a delta table in place after swapping ``i`` and ``j``.

        ``assignment`` is the assignment *after* the swap.  Entries not
        involving ``i``/``j`` pick up only the two changed summation
        terms (Taillard's update); rows/columns ``i`` and ``j`` are
        recomputed.  O(n^2) total, and exact for integer-valued
        instances -- the updated table equals a fresh
        :meth:`swap_delta_matrix` bit for bit.
        """
        flow_diff = self.flow[:, i] - self.flow[:, j]
        # pre-swap location of i is assignment[j] and vice versa; rows
        # i/j of these vectors are wrong but overwritten just below
        dist_diff = (self.distance[assignment[i], assignment]
                     - self.distance[assignment[j], assignment])
        delta -= 2.0 * np.subtract.outer(flow_diff, flow_diff) \
            * np.subtract.outer(dist_diff, dist_diff)
        for moved in (i, j):
            row = self.swap_delta_row(assignment, moved)
            delta[moved, :] = row
            delta[:, moved] = row
        return delta


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
