"""Numerical two-qubit synthesis for non-CNOT hardware bases (SYC, iSWAP).

This mirrors the approach the paper takes for Sycamore and Aspen: gate
decomposition for bases without textbook analytic forms is done
numerically (their reference [47]).  Given a hardware basis gate ``B`` and
target class coordinates, we search over the interleaving single-qubit
layers of the sandwich ::

    core(k) = B (L_{k-1}) B ... (L_1) B

so that the sandwich reaches the target's local-equivalence class; outer
locals are then fixed exactly by KAK alignment
(:func:`repro.synthesis.cnot_basis.decompose_kak_aligned`).

The class-matching loss uses the Makhlin invariants, which are smooth in
the circuit parameters (unlike folded Weyl coordinates), so a local
optimiser converges quickly; a handful of random restarts makes it
reliable.  Calibrated minimal counts (verified numerically, see
``tests/synthesis``): both iSWAP and SYC reach every ``z = 0`` class with
two applications and every class with three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.quantum.gates import Gate
from repro.synthesis.weyl import MAGIC

_PI4 = math.pi / 4


def makhlin_invariants(unitary: np.ndarray) -> tuple[complex, float]:
    """The Makhlin local invariants ``(g1, g2)`` of a two-qubit gate."""
    det = np.linalg.det(unitary)
    special = unitary / det ** 0.25
    m = MAGIC.conj().T @ special @ MAGIC
    w = m.T @ m
    tr = np.trace(w)
    g1 = tr**2 / 16
    g2 = float(((tr**2 - np.trace(w @ w)) / 4).real)
    return g1, g2


def invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smooth squared distance between the local classes of two gates."""
    g1a, g2a = makhlin_invariants(a)
    g1b, g2b = makhlin_invariants(b)
    return abs(g1a - g1b) ** 2 + (g2a - g2b) ** 2


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _sandwich(basis: np.ndarray, count: int, params: np.ndarray) -> np.ndarray:
    result = basis.copy()
    for i in range(count - 1):
        block = params[6 * i : 6 * i + 6]
        local = np.kron(_u3(*block[:3]), _u3(*block[3:]))
        result = basis @ local @ result
    return result


@dataclass
class SandwichSolution:
    """A solved sandwich: ``count`` basis gates + middle local layers."""

    count: int
    params: np.ndarray

    def gates(self, basis_name: str, basis: np.ndarray) -> list[Gate]:
        """Core gate list on qubits (0, 1), in application order."""
        gates: list[Gate] = [Gate(basis_name, (0, 1), matrix=basis)]
        for i in range(self.count - 1):
            block = self.params[6 * i : 6 * i + 6]
            gates.append(Gate("U1Q", (0,), matrix=_u3(*block[:3])))
            gates.append(Gate("U1Q", (1,), matrix=_u3(*block[3:])))
            gates.append(Gate(basis_name, (0, 1), matrix=basis))
        return gates


def solve_sandwich(basis: np.ndarray, count: int, target: np.ndarray,
                   seed: int = 0, restarts: int = 12,
                   tol: float = 1e-10) -> SandwichSolution | None:
    """Find middle locals so the sandwich matches the target's class."""
    from scipy.optimize import minimize

    if count == 0:
        ok = invariant_distance(np.eye(4, dtype=complex), target) < tol
        return SandwichSolution(0, np.zeros(0)) if ok else None
    if count == 1:
        ok = invariant_distance(basis, target) < tol
        return SandwichSolution(1, np.zeros(0)) if ok else None
    rng = np.random.default_rng(seed)
    n_params = 6 * (count - 1)

    def loss(p: np.ndarray) -> float:
        return invariant_distance(_sandwich(basis, count, p), target)

    best_val, best_p = np.inf, None
    for _ in range(restarts):
        p0 = rng.uniform(0, 2 * math.pi, n_params)
        res = minimize(loss, p0, method="L-BFGS-B",
                       options={"maxiter": 600, "ftol": 1e-18, "gtol": 1e-14})
        if res.fun < best_val:
            best_val, best_p = res.fun, res.x
        if best_val < 1e-16:
            break
    if best_val < tol and best_p is not None:
        return SandwichSolution(count, best_p)
    return None


def min_basis_gates(coords: tuple[float, float, float], basis_coords:
                    tuple[float, float, float], tol: float = 1e-7) -> int:
    """Minimal applications of a supercontrolled-type basis gate.

    Calibrated numerically for iSWAP ``(pi/4, pi/4, 0)`` and SYC
    ``(pi/4, pi/4, pi/24)``: one application only for the basis's own
    class, two for any ``z = 0`` class, three otherwise.
    """
    x, y, z = coords
    if max(abs(x), abs(y), abs(z)) < tol:
        return 0
    if max(abs(x - basis_coords[0]), abs(y - basis_coords[1]),
           abs(z - basis_coords[2])) < tol:
        return 1
    if abs(z) < tol:
        return 2
    return 3
