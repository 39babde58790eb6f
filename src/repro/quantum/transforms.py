"""Circuit-level rewrites: single-qubit gate fusion and identity removal.

All target devices support arbitrary single-qubit rotations, so runs of
adjacent single-qubit gates on the same qubit fuse into one ``U1Q`` gate.
This keeps the gate-count and depth metrics honest: a decomposed circuit
is charged one single-qubit "slot" between entangling gates, exactly as
the paper's tooling (Qiskit/t|ket> 1q-optimisation) would produce.

Fusion lives in one helper, :class:`SingleQubitRuns`.  Its caller feeds
it a circuit's gates in order -- single-qubit *matrices* join their
qubit's pending run, multi-qubit gates are barriers -- so a producer
that already holds the matrices (the final lowering walk in
:mod:`repro.core.decompose`) fuses while it emits, without first
building the unfused circuit.  :func:`merge_single_qubit_gates` is the
same helper fed from an existing circuit.

The fold is vectorized: all runs fold together as stacked 2x2 matmuls
-- round ``j`` multiplies the ``j``-th gate of every still-active run
onto its accumulator in one gufunc call.  Per slice the stacked matmul
reproduces the scalar ``matrix @ accumulated`` byte for byte, so the
result is bit-identical to the retained scalar walk
(:func:`merge_single_qubit_gates_reference`).
"""

from __future__ import annotations

import numpy as np

from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate


def _is_phase(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    return (
        abs(matrix[0, 1]) < atol
        and abs(matrix[1, 0]) < atol
        and abs(matrix[0, 0] - matrix[1, 1]) < atol
    )


def _fold_runs(runs: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Product of every run, last matrix leftmost.

    Round ``j`` left-multiplies matrix ``j`` of each run still active
    onto its accumulator -- the same ``matrix @ accumulated`` op order
    the scalar walk applies, one slice per run.  A single-matrix run
    folds to that matrix object itself.
    """
    folded = [mats[0] for mats in runs]
    long_ids = []
    for i, mats in enumerate(runs):
        if len(mats) == 1:
            continue
        if all(m.dtype == np.complex128 for m in mats):
            long_ids.append(i)
        else:
            # Exotic dtypes promote per-multiply in the scalar walk;
            # stacking would promote up front.  Fold those few scalar.
            result = mats[0]
            for matrix in mats[1:]:
                result = matrix @ result
            folded[i] = result
    if long_ids:
        acc = np.stack([runs[i][0] for i in long_ids])
        max_len = max(len(runs[i]) for i in long_ids)
        for j in range(1, max_len):
            active = [s for s, i in enumerate(long_ids) if len(runs[i]) > j]
            mats = np.stack([runs[long_ids[s]][j] for s in active])
            acc[active] = np.matmul(mats, acc[active])
        for s, i in enumerate(long_ids):
            folded[i] = acc[s]
    return folded


class SingleQubitRuns:
    """Fuse single-qubit runs while a circuit is being walked.

    Feed gates in circuit order: :meth:`add` appends a single-qubit
    matrix to its qubit's pending run, :meth:`barrier` closes the runs
    on a multi-qubit gate's qubits (in ``gate.qubits`` order) and queues
    the gate behind them.  :meth:`fuse` closes the runs still open, in
    the order they were opened, folds every run at once and returns the
    circuit: one ``U1Q`` per run (dropped when it is a phase) in the
    order the runs closed, barrier gates as given.
    """

    def __init__(self) -> None:
        self._qubits: list[int] = []                # run id -> qubit
        self._matrices: list[list[np.ndarray]] = []  # run id -> matrices
        self._events: list[int | Gate] = []         # closed run id | gate
        self._open: dict[int, int] = {}             # qubit -> open run id

    def add(self, qubit: int, matrix: np.ndarray) -> None:
        run_id = self._open.get(qubit)
        if run_id is None:
            self._open[qubit] = len(self._qubits)
            self._qubits.append(qubit)
            self._matrices.append([matrix])
        else:
            self._matrices[run_id].append(matrix)

    def barrier(self, gate: Gate) -> None:
        for q in gate.qubits:
            run_id = self._open.pop(q, None)
            if run_id is not None:
                self._events.append(run_id)
        self._events.append(gate)

    def fuse(self, n_qubits: int, atol: float = 1e-9) -> Circuit:
        self._events.extend(self._open.values())
        self._open.clear()
        folded = _fold_runs(self._matrices)
        gates = []
        for event in self._events:
            if isinstance(event, Gate):
                gates.append(event)
                continue
            matrix = folded[event]
            if not _is_phase(matrix, atol):
                gates.append(Gate("U1Q", (self._qubits[event],),
                                  matrix=matrix))
        return Circuit(n_qubits, gates)


def merge_single_qubit_gates(circuit: Circuit, atol: float = 1e-9) -> Circuit:
    """Fuse adjacent single-qubit gates; drop the ones that are a phase.

    Multi-qubit gates act as barriers on their qubits.  The result has at
    most one single-qubit gate per qubit between consecutive entangling
    gates, named ``U1Q`` with an explicit matrix.
    """
    runs = SingleQubitRuns()
    for gate in circuit:
        if gate.n_qubits == 1:
            runs.add(gate.qubits[0], gate.unitary())
        else:
            runs.barrier(gate)
    return runs.fuse(circuit.n_qubits, atol)


def merge_single_qubit_gates_reference(circuit: Circuit,
                                       atol: float = 1e-9) -> Circuit:
    """Scalar per-gate fusion walk (the pre-vectorization reference).

    Kept verbatim as the bit-identity oracle for the vectorized fold.
    """
    pending: dict[int, np.ndarray] = {}
    merged = Circuit(circuit.n_qubits)

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None or _is_phase(matrix, atol):
            return
        merged.append(Gate("U1Q", (qubit,), matrix=matrix))

    for gate in circuit:
        if gate.n_qubits == 1:
            q = gate.qubits[0]
            accumulated = pending.get(q)
            matrix = gate.unitary()
            pending[q] = matrix if accumulated is None else matrix @ accumulated
        else:
            for q in gate.qubits:
                flush(q)
            merged.append(gate)
    for q in list(pending):
        flush(q)
    return merged


def count_entangling(circuit: Circuit) -> int:
    """Number of gates acting on two or more qubits."""
    return sum(1 for g in circuit if g.n_qubits >= 2)
