"""A minimal circuit IR: an ordered list of gates on ``n_qubits`` qubits.

The IR is deliberately simple -- the compiler passes manipulate *lists of
two-qubit operators* most of the time and only produce a :class:`Circuit`
at the end.  The class provides the metrics the paper reports:

* ``depth()`` -- number of layers when gates are packed as-soon-as-possible,
* ``two_qubit_depth()`` -- layers counting only multi-qubit gates,
* gate counting helpers (``count``, ``n_two_qubit_gates``).

A lowered (hardware) circuit is a :class:`ColumnarCircuit`: the same
interface, stored as integer columns plus one stacked matrix table, with
the :class:`Gate` list built only when ``gates`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.quantum.gates import Gate


@dataclass
class Circuit:
    """An ordered gate list with layering/metric utilities."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        for gate in self.gates:
            self._check(gate)

    def _check(self, gate: Gate) -> None:
        if gate.qubits and max(gate.qubits) >= self.n_qubits:
            raise ValueError(
                f"gate {gate} acts outside the {self.n_qubits}-qubit register"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.append(gate)

    def add(self, name: str, *qubits: int, params: tuple[float, ...] = (),
            matrix: np.ndarray | None = None) -> None:
        """Convenience constructor-and-append."""
        self.append(Gate(name, tuple(qubits), params, matrix))

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.gates))

    # ------------------------------------------------------------------
    # symbolic parameters
    # ------------------------------------------------------------------
    def parameters(self) -> frozenset[str]:
        """Names of unbound symbolic parameters across all gates."""
        names: frozenset[str] = frozenset()
        for gate in self.gates:
            names |= gate.parameters
        return names

    @property
    def is_symbolic(self) -> bool:
        return bool(self.parameters())

    def bind(self, mapping: dict[str, float]) -> "Circuit":
        """A concrete circuit with every symbolic angle resolved.

        Gates shared by identity (the same object appended twice) bind to
        the same concrete object, preserving aliasing.
        """
        memo: dict[int, Gate] = {}
        bound = []
        for gate in self.gates:
            key = id(gate)
            if key not in memo:
                memo[key] = gate.bind(mapping)
            bound.append(memo[key])
        return Circuit(self.n_qubits, bound)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        """Number of gates with the given (case-insensitive) name."""
        key = name.upper()
        return sum(1 for g in self.gates if g.name.upper() == key)

    @property
    def n_two_qubit_gates(self) -> int:
        return sum(1 for g in self.gates if g.n_qubits >= 2)

    @property
    def n_single_qubit_gates(self) -> int:
        return sum(1 for g in self.gates if g.n_qubits == 1)

    def depth(self, *, two_qubit_only: bool = False) -> int:
        """Circuit depth under ASAP layering.

        With ``two_qubit_only`` single-qubit gates still occupy their qubits
        (they constrain packing) but layers containing only single-qubit
        gates are not counted; this matches the paper's "depth of two-qubit
        gates" metric.
        """
        _, depth, two_qubit_depth = self._layer_metrics()
        return two_qubit_depth if two_qubit_only else depth

    def two_qubit_depth(self) -> int:
        """Depth counting only layers that contain a two-qubit gate."""
        return self._layer_metrics()[2]

    def _layer_metrics(self) -> tuple[int, int, int]:
        """``(two-qubit gate count, depth, two-qubit depth)`` in one walk.

        Gates pack as-soon-as-possible; a gate on no qubits occupies no
        layer.
        """
        frontier = [0] * self.n_qubits
        two_qubit_layers: set[int] = set()
        n_two_qubit = 0
        depth = 0
        for gate in self.gates:
            qubits = gate.qubits
            if len(qubits) == 1:
                q = qubits[0]
                start = frontier[q]
                frontier[q] = start + 1
            elif qubits:
                start = max(frontier[q] for q in qubits)
                for q in qubits:
                    frontier[q] = start + 1
                two_qubit_layers.add(start)
                n_two_qubit += 1
            else:
                continue
            if start >= depth:
                depth = start + 1
        return n_two_qubit, depth, len(two_qubit_layers)

    def layers(self) -> list[list[Gate]]:
        """Greedy ASAP layering of the gate list."""
        frontier = [0] * self.n_qubits
        layered: list[list[Gate]] = []
        for gate in self.gates:
            if not gate.qubits:
                continue
            start = max(frontier[q] for q in gate.qubits)
            for q in gate.qubits:
                frontier[q] = start + 1
            while len(layered) <= start:
                layered.append([])
            layered[start].append(gate)
        return layered

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def unitary(self) -> np.ndarray:
        """Dense unitary of the whole circuit (small circuits only).

        Qubit 0 is the most significant bit of the row/column index.
        """
        if self.n_qubits > 12:
            raise ValueError("dense unitary limited to 12 qubits")
        dim = 2**self.n_qubits
        result = np.eye(dim, dtype=complex)
        for gate in self.gates:
            result = _expand(gate, self.n_qubits) @ result
        return result

    def reversed_two_qubit_order(self) -> "Circuit":
        """Circuit with the order of multi-qubit gates reversed.

        Single-qubit gates keep their relative position class (they are
        emitted after the reversed two-qubit list), matching the paper's
        treatment of even-numbered Trotter steps / QAOA layers.
        """
        two_q = [g for g in self.gates if g.n_qubits >= 2]
        one_q = [g for g in self.gates if g.n_qubits < 2]
        return Circuit(self.n_qubits, list(reversed(two_q)) + one_q)


def stack_matrices(matrices: list) -> tuple[np.ndarray, dict]:
    """A ``(k, 2, 2)`` complex128 table of ``matrices`` plus the ones
    whose own dtype is not complex128, by index (the table holds their
    cast; arithmetic that involves them runs on the originals)."""
    if not matrices:
        return np.zeros((0, 2, 2), dtype=complex), {}
    exotic = {i: m for i, m in enumerate(matrices)
              if m.dtype != np.complex128}
    return np.array(matrices, dtype=complex), exotic


#: Columns of a :class:`ColumnarCircuit` row.
OP, Q0, Q1, MAT, SOURCE = range(5)


class ColumnarCircuit(Circuit):
    """A circuit of one- and two-qubit gates stored as columns.

    Row ``i`` of ``rows`` (an ``(r, 5)`` int32 array) is one gate:

    * ``rows[i, OP] == -1``: a ``U1Q`` on qubit ``rows[i, Q0]`` whose
      matrix is ``matrices[rows[i, MAT]]`` (or ``exotic[rows[i, MAT]]``
      for a matrix whose dtype is not complex128); ``rows[i, Q1]`` is -1;
    * ``rows[i, OP] == k >= 0``: the two-qubit gate ``kinds[k]`` (its
      name, params, matrix and meta) placed on ``(rows[i, Q0], rows[i, Q1])``;
    * ``rows[i, SOURCE]``: the index of the application gate the row
      lowers, -1 for a fused single-qubit row (it may fold matrices of
      several application gates) and for rows with no source.

    ``gates`` builds the :class:`Gate` list on first read; from then on
    the list is the circuit (appends and edits go to it, and pickling
    and the metrics walk read it), while :attr:`sources` keeps reading
    the lowering's column.  Until then the metrics walk and pickling
    read the columns.
    """

    def __init__(self, n_qubits: int, kinds: tuple[Gate, ...],
                 rows: np.ndarray, matrices: np.ndarray,
                 exotic: dict[int, np.ndarray] | None = None) -> None:
        self.n_qubits = n_qubits
        self.kinds = tuple(kinds)
        self.rows = rows
        self.matrices = matrices
        self.exotic = exotic or {}
        self._gates: list[Gate] | None = None

    @property
    def gates(self) -> list[Gate]:
        if self._gates is None:
            self._gates = self._build_gates()
        return self._gates

    def _build_gates(self) -> list[Gate]:
        gates = []
        kinds, matrices, exotic = self.kinds, self.matrices, self.exotic
        for op, q0, q1, mat, _ in self.rows.tolist():
            if op < 0:
                matrix = exotic[mat] if mat in exotic else matrices[mat]
                gates.append(Gate("U1Q", (q0,), matrix=matrix))
            else:
                kind = kinds[op]
                gates.append(Gate(kind.name, (q0, q1), kind.params,
                                  kind.matrix, meta=dict(kind.meta)))
        return gates

    @property
    def sources(self) -> np.ndarray:
        """Per row, the application gate it lowers (-1: none)."""
        return self.rows[:, SOURCE]

    def __len__(self) -> int:
        return len(self.rows) if self._gates is None else len(self._gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.n_qubits, self.gates) == (other.n_qubits, other.gates)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"ColumnarCircuit(n_qubits={self.n_qubits}, "
                f"rows={len(self)})")

    def __reduce__(self):
        if self._gates is not None:
            return Circuit, (self.n_qubits, self._gates)
        return ColumnarCircuit, (self.n_qubits, self.kinds, self.rows,
                                 self.matrices, self.exotic)

    def _layer_metrics(self) -> tuple[int, int, int]:
        if self._gates is not None:
            return super()._layer_metrics()
        frontier = [0] * self.n_qubits
        two_qubit_layers: set[int] = set()
        depth = 0
        for a, b in self.rows[:, Q0:Q1 + 1].tolist():
            start = frontier[a]
            if b >= 0:
                if frontier[b] > start:
                    start = frontier[b]
                frontier[b] = start + 1
                two_qubit_layers.add(start)
            frontier[a] = start + 1
            if start >= depth:
                depth = start + 1
        n_two_qubit = int(np.count_nonzero(self.rows[:, Q1] >= 0))
        return n_two_qubit, depth, len(two_qubit_layers)


def to_columns(circuit: Circuit) -> ColumnarCircuit:
    """``circuit`` as columns: a single-qubit gate becomes a ``U1Q`` row
    holding its unitary, a two-qubit gate a row whose kind is the gate
    itself.  Raises ``ValueError`` on gates of other sizes."""
    if isinstance(circuit, ColumnarCircuit):
        return circuit
    kinds: dict[int, int] = {}
    matrices, rows = [], []
    for gate in circuit.gates:
        if gate.n_qubits == 1:
            rows.append((-1, gate.qubits[0], -1, len(matrices), -1))
            matrices.append(gate.unitary())
        elif gate.n_qubits == 2:
            op = kinds.setdefault(id(gate), len(kinds))
            rows.append((op, *gate.qubits, -1, -1))
        else:
            raise ValueError(f"cannot store {gate.n_qubits}-qubit gate "
                             f"{gate.name} as a column row")
    by_id = {id(gate): gate for gate in circuit.gates}
    table, exotic = stack_matrices(matrices)
    return ColumnarCircuit(
        circuit.n_qubits, tuple(by_id[key] for key in kinds),
        np.array(rows, dtype=np.int32).reshape(len(rows), 5), table, exotic)


def _expand(gate: Gate, n_qubits: int) -> np.ndarray:
    """Embed a k-qubit gate unitary into the full 2**n space."""
    small = gate.unitary()
    k = gate.n_qubits
    if k == 0:
        return np.eye(2**n_qubits, dtype=complex)
    tensor = small.reshape((2,) * (2 * k))
    identity = np.eye(2**n_qubits, dtype=complex).reshape((2,) * (2 * n_qubits))
    targets = list(gate.qubits)
    # Contract the gate's input legs (axes k..2k-1) with the identity's
    # output legs on the target qubits.  tensordot places the gate's output
    # legs first, followed by the identity's surviving output legs and then
    # all n input legs; transpose back to (outputs 0..n-1, inputs 0..n-1).
    contracted = np.tensordot(tensor, identity, axes=(list(range(k, 2 * k)), targets))
    remaining = [q for q in range(n_qubits) if q not in targets]
    out_position = {q: idx for idx, q in enumerate(targets)}
    out_position.update({q: k + idx for idx, q in enumerate(remaining)})
    axes = [out_position[q] for q in range(n_qubits)]
    axes += [n_qubits + q for q in range(n_qubits)]
    return contracted.transpose(axes).reshape(2**n_qubits, 2**n_qubits)
