"""Hardware gate sets and the retargetable decomposition entry point.

2QAN performs all permutation-aware passes on application-level SU(4)
blocks and only afterwards decomposes into the hardware basis.  This
module provides that final pass for the four bases the paper evaluates:

* ``CNOT``  -- IBMQ Montreal (analytic, exact),
* ``CZ``    -- Sycamore/Aspen alternative basis (analytic, exact),
* ``SYC``   -- Google Sycamore (numerical sandwich + KAK alignment),
* ``ISWAP`` -- Rigetti Aspen (numerical sandwich + KAK alignment).

Two modes:

* ``solve=True`` produces unitary-exact circuits (used in tests/examples).
* ``solve=False`` produces a structurally identical circuit with
  placeholder single-qubit gates -- same two-qubit count and depth, much
  faster.  The benchmark harness uses this mode, mirroring how the paper
  reports gate counts and depths rather than full unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.quantum.circuit import Circuit, ColumnarCircuit, to_columns
from repro.quantum.gates import Gate, standard_gate_unitary
from repro.quantum.transforms import merge_single_qubit_gates
from repro.synthesis.batch import batch_weyl_coordinates
from repro.synthesis.cnot_basis import (
    batch_cnot_blocks,
    cnot_count,
    decompose_kak_aligned,
    decompose_to_cnots,
)
from repro.synthesis.numerical import min_basis_gates, solve_sandwich
from repro.synthesis.weyl import weyl_coordinates

_H = standard_gate_unitary("H")


@dataclass(frozen=True)
class GateSet:
    """A hardware two-qubit basis."""

    name: str
    basis_coords: tuple[float, float, float]

    def basis_matrix(self) -> np.ndarray:
        return standard_gate_unitary(self.name)

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def gates_needed(self, unitary: np.ndarray) -> int:
        """Minimal number of basis two-qubit gates for this unitary."""
        coords = weyl_coordinates(unitary)
        if self.name in ("CNOT", "CZ"):
            return cnot_count(coords)
        return min_basis_gates(coords, self.basis_coords)

    # ------------------------------------------------------------------
    # decomposition
    # ------------------------------------------------------------------
    def decompose(self, unitary: np.ndarray, *, solve: bool = True,
                  seed: int = 0) -> tuple[Circuit, complex]:
        """Two-qubit circuit (on qubits 0, 1) implementing ``unitary``.

        Returns ``(circuit, phase)``; when ``solve`` is true,
        ``phase * circuit.unitary() == unitary`` to numerical precision.
        With ``solve=False``, only the structure (basis-gate count, depth
        shape) is guaranteed.
        """
        if self.name == "CNOT":
            circuit, phase = decompose_to_cnots(unitary)
            return merge_single_qubit_gates(_rewrite_cz_as_cnot(circuit)), phase
        if self.name == "CZ":
            circuit, phase = decompose_to_cnots(unitary)
            return merge_single_qubit_gates(_rewrite_cnot_as_cz(circuit)), phase
        return self._decompose_numerical(unitary, solve=solve, seed=seed)

    def decompose_batch(self, unitaries, *, solve: bool = True,
                        seed: int = 0,
                        ) -> list[tuple[ColumnarCircuit, complex]]:
        """Batched :meth:`decompose`: one ``(block, phase)`` per input.

        Every block is a two-qubit
        :class:`~repro.quantum.circuit.ColumnarCircuit` whose gates are,
        per matrix, bit-identical to the scalar method's.  The analytic
        CNOT/CZ bases build their blocks for the whole batch at once
        (:func:`~repro.synthesis.cnot_basis.batch_cnot_blocks`); the
        structural (``solve=False``) numerical path counts basis gates on
        the batched KAK engine and hands out the shared placeholder
        blocks; the exact numerical path is solver-bound (scipy sandwich
        search per matrix) and runs the scalar method per input.
        """
        if self.name in ("CNOT", "CZ"):
            return batch_cnot_blocks(unitaries, self.name)
        if not solve:
            return [
                (_PLACEHOLDER_BLOCKS[self.name,
                                     min_basis_gates(coords,
                                                     self.basis_coords)],
                 1.0 + 0j)
                for coords in batch_weyl_coordinates(unitaries)
            ]
        blocks = []
        for unitary in unitaries:
            circuit, phase = self._decompose_numerical(unitary, solve=True,
                                                       seed=seed)
            blocks.append((to_columns(circuit), phase))
        return blocks

    def _decompose_numerical(self, unitary: np.ndarray, *, solve: bool,
                             seed: int) -> tuple[Circuit, complex]:
        count = self.gates_needed(unitary)
        basis = self.basis_matrix()
        if not solve:
            return _structural_circuit(self.name, count), 1.0 + 0j
        # Near Weyl-chamber boundaries the Makhlin invariants flatten, so
        # the sandwich class can be off by ~1e-3 in coordinates even at
        # loss ~1e-14; the alignment tolerance is therefore loose and the
        # final polish (plus a verified retry loop) restores precision.
        last_error = None
        for attempt in range(3):
            attempt_seed = seed + 1013 * attempt
            try:
                core_gates = self._core_gates(basis, count, unitary,
                                              attempt_seed)
                circuit, phase = decompose_kak_aligned(
                    unitary, core_gates, tol=2e-2
                )
                circuit = merge_single_qubit_gates(circuit)
                circuit, phase = _polish(circuit, unitary)
                error = np.abs(phase * circuit.unitary() - unitary).max()
                if error < 5e-6:
                    return circuit, phase
                last_error = RuntimeError(
                    f"polish stalled at error {error:.1e}"
                )
            except RuntimeError as exc:
                last_error = exc
        raise RuntimeError(
            f"numerical decomposition into {self.name} failed: {last_error}"
        )

    def _core_gates(self, basis: np.ndarray, count: int,
                    unitary: np.ndarray, seed: int) -> list[Gate]:
        if count == 0:
            return []
        if count == 1:
            return [Gate(self.name, (0, 1))]
        solution = solve_sandwich(basis, count, unitary, seed=seed)
        if solution is None:
            # One extra application always suffices (calibrated).
            solution = solve_sandwich(basis, count + 1, unitary, seed=seed,
                                      restarts=24)
        if solution is None:
            raise RuntimeError("sandwich solver found no solution")
        return solution.gates(self.name, basis)


def _polish(circuit: Circuit, target: np.ndarray) -> tuple[Circuit, complex]:
    """Refine every single-qubit gate to match the target unitary exactly.

    Starts from an already-close circuit (the KAK-aligned sandwich) and
    minimises the true gate infidelity ``1 - |tr(V^dag U)| / 4``, which is
    smooth, so convergence to machine precision takes a few iterations.
    """
    from scipy.optimize import minimize

    from repro.synthesis.one_qubit import zyz_angles, zyz_matrix

    slots = [i for i, g in enumerate(circuit.gates) if g.n_qubits == 1]
    if not slots:
        phase = _relative_phase(circuit.unitary(), target)
        return circuit, phase
    x0 = []
    for i in slots:
        _, phi, theta, lam = zyz_angles(circuit.gates[i].unitary())
        x0.extend((phi, theta, lam))

    def build(params: np.ndarray) -> Circuit:
        rebuilt = circuit.copy()
        for slot_idx, i in enumerate(slots):
            phi, theta, lam = params[3 * slot_idx : 3 * slot_idx + 3]
            matrix = zyz_matrix(0.0, phi, theta, lam)
            rebuilt.gates[i] = Gate("U1Q", circuit.gates[i].qubits, matrix=matrix)
        return rebuilt

    def loss(params: np.ndarray) -> float:
        v = build(params).unitary()
        return 1.0 - abs(np.trace(target.conj().T @ v)) / 4.0

    result = minimize(loss, np.array(x0), method="L-BFGS-B",
                      options={"maxiter": 400, "ftol": 1e-18, "gtol": 1e-15})
    # Second pass from the optimum with a smaller finite-difference step
    # typically gains one or two digits.
    result = minimize(loss, result.x, method="L-BFGS-B",
                      options={"maxiter": 200, "ftol": 1e-20,
                               "gtol": 1e-16, "eps": 1e-9})
    polished = build(result.x)
    phase = _relative_phase(polished.unitary(), target)
    return polished, phase


def _relative_phase(actual: np.ndarray, target: np.ndarray) -> complex:
    """Phase ``p`` minimising ``|p * actual - target|``."""
    tr = np.trace(actual.conj().T @ target)
    if abs(tr) < 1e-12:
        return 1.0 + 0j
    return tr / abs(tr)


def _placeholder_block(basis_name: str, count: int) -> Circuit:
    """Placeholder circuit with the right structure for metrics.

    Read-only: the gate list is a tuple and the one identity matrix the
    ``U1Q`` slots share is not writeable.
    """
    eye = np.eye(2, dtype=complex)
    eye.setflags(write=False)
    slots = [Gate("U1Q", (0,), matrix=eye), Gate("U1Q", (1,), matrix=eye)]
    gates = list(slots)
    for _ in range(count):
        gates.append(Gate(basis_name, (0, 1)))
        gates.extend(slots)
    return Circuit(2, tuple(gates))


def _structural_circuit(basis_name: str, count: int) -> Circuit:
    """The shared placeholder block for ``count`` basis gates.

    Every ``solve=False`` numerical decomposition of the same count
    returns this one object (the memos keep it, the lowering walk only
    reads it), so serving many angle sets retains no per-bind copies.
    """
    return _PLACEHOLDERS[basis_name, count]


def _rewrite_cz_as_cnot(circuit: Circuit) -> Circuit:
    """Replace CZ gates by H-conjugated CNOTs (entangling count unchanged)."""
    rewritten = Circuit(circuit.n_qubits)
    for gate in circuit:
        if gate.name == "CZ":
            a, b = gate.qubits
            rewritten.append(Gate("H", (b,)))
            rewritten.append(Gate("CNOT", (a, b)))
            rewritten.append(Gate("H", (b,)))
        else:
            rewritten.append(gate)
    return rewritten


def _rewrite_cnot_as_cz(circuit: Circuit) -> Circuit:
    """Replace CNOT gates by H-conjugated CZs (entangling count unchanged)."""
    rewritten = Circuit(circuit.n_qubits)
    for gate in circuit:
        if gate.name == "CNOT":
            a, b = gate.qubits
            rewritten.append(Gate("H", (b,)))
            rewritten.append(Gate("CZ", (a, b)))
            rewritten.append(Gate("H", (b,)))
        else:
            rewritten.append(gate)
    return rewritten


_SYC_COORDS = (math.pi / 4, math.pi / 4, math.pi / 24)
_ISWAP_COORDS = (math.pi / 4, math.pi / 4, 0.0)
_CNOT_COORDS = (math.pi / 4, 0.0, 0.0)

GATESETS: dict[str, GateSet] = {
    "CNOT": GateSet("CNOT", _CNOT_COORDS),
    "CZ": GateSet("CZ", _CNOT_COORDS),
    "SYC": GateSet("SYC", _SYC_COORDS),
    "ISWAP": GateSet("ISWAP", _ISWAP_COORDS),
}


#: The placeholder blocks of the numerical bases, one per basis-gate
#: count :func:`~repro.synthesis.numerical.min_basis_gates` can return.
_PLACEHOLDERS: dict[tuple[str, int], Circuit] = {
    (name, count): _placeholder_block(name, count)
    for name in ("SYC", "ISWAP")
    for count in range(4)
}
#: The same placeholders as columns, what :meth:`GateSet.decompose_batch`
#: hands out.
_PLACEHOLDER_BLOCKS: dict[tuple[str, int], ColumnarCircuit] = {
    key: to_columns(block) for key, block in _PLACEHOLDERS.items()
}


def get_gateset(name: str) -> GateSet:
    """Look up a gate set by (case-insensitive) name."""
    try:
        return GATESETS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown gate set {name!r}; available: {sorted(GATESETS)}"
        ) from None
