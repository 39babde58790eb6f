"""Pauli strings and their algebra.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators
acting on named qubits, e.g. ``X0*X1`` or ``Z2*Z5``.  It is the basic term
type of the 2-local Hamiltonians compiled by 2QAN.  The class supports

* commutation checks (needed to argue which operator permutations a generic
  gate-level compiler may *not* perform),
* dense matrices on a given number of qubits, and
* exponentials ``exp(i * theta * P)`` which are the building blocks of
  product-formula (Trotter) circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_VALID_LABELS = frozenset(_PAULI_1Q)


def pauli_matrix(label: str) -> np.ndarray:
    """Return the 2x2 matrix of a single-qubit Pauli operator.

    Parameters
    ----------
    label:
        One of ``"I"``, ``"X"``, ``"Y"``, ``"Z"``.
    """
    try:
        return _PAULI_1Q[label].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


@dataclass(frozen=True)
class PauliString:
    """A product of single-qubit Paulis on distinct qubits.

    Attributes
    ----------
    paulis:
        Mapping from qubit index to Pauli label (identity factors omitted).
        Stored as a sorted tuple of ``(qubit, label)`` pairs so the object
        is hashable.
    """

    paulis: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for qubit, label in self.paulis:
            if label not in _VALID_LABELS:
                raise ValueError(f"unknown Pauli label {label!r}")
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if qubit in seen:
                raise ValueError(f"duplicate qubit {qubit} in Pauli string")
            seen.add(qubit)
        # Normalise: drop identities, sort by qubit.
        cleaned = tuple(sorted((q, p) for q, p in self.paulis if p != "I"))
        object.__setattr__(self, "paulis", cleaned)

    @classmethod
    def from_label(cls, label: str, qubits: tuple[int, ...] | None = None) -> "PauliString":
        """Build from a dense label, e.g. ``"XIZ"`` acts X on 0 and Z on 2.

        If ``qubits`` is given, ``label[i]`` acts on ``qubits[i]`` instead of
        qubit ``i``.
        """
        if qubits is None:
            qubits = tuple(range(len(label)))
        if len(qubits) != len(label):
            raise ValueError("label and qubits must have the same length")
        return cls(tuple((q, p) for q, p in zip(qubits, label)))

    @property
    def qubits(self) -> tuple[int, ...]:
        """The qubits on which this string acts non-trivially."""
        return tuple(q for q, _ in self.paulis)

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return len(self.paulis)

    def label_on(self, qubit: int) -> str:
        """Pauli label acting on ``qubit`` (``"I"`` if untouched)."""
        for q, p in self.paulis:
            if q == qubit:
                return p
        return "I"

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two Pauli strings commute.

        Two Pauli strings commute iff they anti-commute on an even number of
        shared qubits.
        """
        anti = 0
        mine = dict(self.paulis)
        for qubit, label in other.paulis:
            p = mine.get(qubit)
            if p is not None and p != label:
                anti += 1
        return anti % 2 == 0

    def to_matrix(self, n_qubits: int) -> np.ndarray:
        """Dense ``2**n x 2**n`` matrix on ``n_qubits`` qubits.

        Qubit 0 is the *most significant* tensor factor, matching the
        ordering used by :mod:`repro.quantum.statevector`.
        """
        if self.paulis and max(self.qubits) >= n_qubits:
            raise ValueError(
                f"Pauli string acts on qubit {max(self.qubits)} but only "
                f"{n_qubits} qubits were requested"
            )
        factors = [_PAULI_1Q[self.label_on(q)] for q in range(n_qubits)]
        return reduce(np.kron, factors, np.eye(1, dtype=complex))

    def exp(self, theta: float) -> np.ndarray:
        """Dense matrix of ``exp(i * theta * P)`` on the *support* qubits.

        The returned matrix acts on ``self.weight`` qubits ordered by
        increasing qubit index.  Because every Pauli string squares to the
        identity, ``exp(i t P) = cos(t) I + i sin(t) P``.
        """
        k = self.weight
        if k == 0:
            return np.exp(1j * theta) * np.eye(1, dtype=complex)
        label = "".join(p for _, p in self.paulis)
        mat = _COMPACT_MATRICES.get(label)
        if mat is None:
            mat = PauliString.from_label(label).to_matrix(k)
        dim = 2**k
        return np.cos(theta) * np.eye(dim, dtype=complex) + 1j * np.sin(theta) * mat

    def __mul__(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        """Product of two Pauli strings as ``(phase, string)``."""
        phase = 1.0 + 0.0j
        result: dict[int, str] = dict(self.paulis)
        for qubit, label in other.paulis:
            if qubit not in result:
                result[qubit] = label
                continue
            p, product_phase, product_label = _single_product(result[qubit], label)
            del p  # left label already known
            phase *= product_phase
            if product_label == "I":
                result.pop(qubit)
            else:
                result[qubit] = product_label
        return phase, PauliString(tuple(result.items()))

    def __str__(self) -> str:
        if not self.paulis:
            return "I"
        return "*".join(f"{p}{q}" for q, p in self.paulis)


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


#: ``from_label(label).to_matrix(len(label))`` for every compact label of
#: weight 1 and 2 -- the 12 that 2-local terms use -- built once, shared
#: read-only by :meth:`PauliString.exp`.
_COMPACT_MATRICES: dict[str, np.ndarray] = {
    label: _read_only(PauliString.from_label(label).to_matrix(len(label)))
    for label in [*"XYZ", *(a + b for a in "XYZ" for b in "XYZ")]
}


_PRODUCT_TABLE: dict[tuple[str, str], tuple[complex, str]] = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _single_product(left: str, right: str) -> tuple[str, complex, str]:
    phase, label = _PRODUCT_TABLE[(left, right)]
    return left, complex(phase), label
