"""Circuit-level rewrites: single-qubit gate fusion and identity removal.

All target devices support arbitrary single-qubit rotations, so runs of
adjacent single-qubit gates on the same qubit fuse into one ``U1Q`` gate.
This keeps the gate-count and depth metrics honest: a decomposed circuit
is charged one single-qubit "slot" between entangling gates, exactly as
the paper's tooling (Qiskit/t|ket> 1q-optimisation) would produce.

Fusion lives in one kernel, :func:`fuse_runs`, over a row table: a
single-qubit row holds an index into a stacked matrix table, every
other row is a barrier on its qubits.  The kernel finds every run with
array operations, folds all runs together as stacked 2x2 matmuls --
round ``j`` multiplies the ``j``-th matrix of every run still active
onto its accumulator in one gufunc call -- drops the runs that fold to
a phase, and returns the output order.  Per slice the stacked matmul
reproduces the scalar ``matrix @ accumulated`` byte for byte, so the
result is bit-identical to the retained scalar walk
(:func:`merge_single_qubit_gates_reference`).  The final lowering walk
(:mod:`repro.core.decompose`) and the CNOT/CZ block assembly
(:mod:`repro.synthesis.cnot_basis`) feed it rows directly;
:func:`merge_single_qubit_gates` feeds it an existing circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quantum.circuit import Circuit, stack_matrices
from repro.quantum.gates import Gate


def _is_phase(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    return (
        abs(matrix[0, 1]) < atol
        and abs(matrix[1, 0]) < atol
        and abs(matrix[0, 0] - matrix[1, 1]) < atol
    )


def below(values: np.ndarray, atol: float, scalar) -> np.ndarray:
    """``values < atol`` elementwise, exact against a scalar test.

    ``np.abs`` over an array may differ from Python's ``abs`` of one
    numpy scalar in the last bit, so an element within a relative 1e-9
    of ``atol`` is decided by ``scalar(index)`` instead.
    """
    verdict = values < atol
    for i in np.flatnonzero(np.abs(values - atol) <= atol * 1e-9).tolist():
        verdict[i] = scalar(i)
    return verdict


def _phase_mask(matrices: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """:func:`_is_phase` of every matrix of a ``(k, 2, 2)`` stack."""
    if not len(matrices):
        return np.zeros(0, dtype=bool)
    worst = np.maximum(np.maximum(np.abs(matrices[:, 0, 1]),
                                  np.abs(matrices[:, 1, 0])),
                       np.abs(matrices[:, 0, 0] - matrices[:, 1, 1]))
    return below(worst, atol, lambda i: _is_phase(matrices[i], atol))


@dataclass(frozen=True)
class Fused:
    """What :func:`fuse_runs` returns.

    ``events`` lists the output in order: a barrier row by its index, a
    kept run by the index of its first row (a single-qubit row).
    ``is_run`` marks the run events; ``folded[j]`` is the product of the
    ``j``-th kept run, and ``exotic[j]`` replaces it where the run held a
    matrix whose dtype is not complex128 (folded on the originals, as
    the scalar walk promotes, per multiply).
    """

    events: np.ndarray
    is_run: np.ndarray
    folded: np.ndarray
    exotic: dict


def fuse_runs(one_qubit: np.ndarray, row_matrix: np.ndarray,
              pair_row: np.ndarray, pair_qubit: np.ndarray,
              pair_slot: np.ndarray, table: np.ndarray,
              exotic: dict | None = None, atol: float = 1e-9) -> Fused:
    """Fuse every single-qubit run of a row table in one stacked pass.

    Row ``i`` (in circuit order) is a single-qubit row when
    ``one_qubit[i]``, holding ``table[row_matrix[i]]``; otherwise it is a
    barrier.  ``(pair_row, pair_qubit, pair_slot)`` list which qubits
    each row touches: one pair for a single-qubit row, one per qubit (in
    gate order, ``pair_slot`` 0, 1, ...) for a barrier.

    A run is a maximal sequence of single-qubit rows on one qubit with no
    barrier on that qubit between them; it folds to the product of its
    matrices, last leftmost.  Output order is the scalar walk's: a run
    closes just before the barrier that ends it (the barrier's runs in
    its qubit order), runs still open at the end follow in the order they
    opened, and a run that folds to a phase is dropped.
    """
    exotic = exotic or {}
    n_rows = len(one_qubit)
    order = np.lexsort((pair_row, pair_qubit))
    qubit, row = pair_qubit[order], pair_row[order]
    slot = pair_slot[order]
    single = one_qubit[row]
    same_qubit = qubit[1:] == qubit[:-1]
    # pair j continues the run of pair j - 1
    follows = np.zeros(len(order), dtype=bool)
    follows[1:] = same_qubit & single[1:] & single[:-1]
    starts = np.flatnonzero(single & ~follows)
    ends = np.flatnonzero(single & ~np.append(follows[1:], False))
    lengths = ends - starts + 1
    first_row = row[starts]
    # the pair after a run's last one, on the same qubit, is the barrier
    # that closes it
    after = np.minimum(ends + 1, max(len(order) - 1, 0))
    closed = (ends + 1 < len(order)) & (qubit[after] == qubit[ends])
    width = int(pair_slot.max(initial=0)) + 2
    run_keys = np.where(closed, row[after] * width + slot[after],
                        n_rows * width + first_row)
    barriers = np.flatnonzero(~one_qubit)

    member = row_matrix[row]          # table index of each run pair
    folded = table[member[starts]]
    odd_runs = set()
    if exotic:
        odd = np.zeros(len(table), dtype=bool)
        odd[list(exotic)] = True
        run_of = np.cumsum(single & ~follows) - 1
        odd_runs = set(run_of[single & odd[member]].tolist())
    long_runs = np.flatnonzero(lengths > 1)
    if odd_runs:
        long_runs = np.array([r for r in long_runs.tolist()
                              if r not in odd_runs], dtype=np.intp)
    if len(long_runs):
        rank = long_runs[np.argsort(-lengths[long_runs], kind="stable")]
        run_lengths = lengths[rank]
        acc = folded[rank]
        for j in range(1, int(run_lengths[0])):
            active = int(np.count_nonzero(run_lengths > j))
            step = table[member[starts[rank[:active]] + j]]
            acc[:active] = np.matmul(step, acc[:active])
        folded[rank] = acc
    keep = ~_phase_mask(folded, atol)
    odd_folded = {}
    for r in sorted(odd_runs):
        mats = [exotic.get(m, table[m])
                for m in member[starts[r]:ends[r] + 1].tolist()]
        result = mats[0]
        for matrix in mats[1:]:
            result = matrix @ result
        odd_folded[r] = result
        keep[r] = not _is_phase(result, atol)

    kept = np.flatnonzero(keep)
    keys = np.concatenate([barriers * width + width - 1, run_keys[kept]])
    output = np.argsort(keys, kind="stable")
    is_run = output >= len(barriers)
    run_order = kept[output[is_run] - len(barriers)]
    events = np.concatenate([barriers, first_row[kept]])[output]
    out_exotic = {j: odd_folded[r] for j, r in enumerate(run_order.tolist())
                  if r in odd_folded}
    return Fused(events, is_run, folded[run_order], out_exotic)


def merge_single_qubit_gates(circuit: Circuit, atol: float = 1e-9) -> Circuit:
    """Fuse adjacent single-qubit gates; drop the ones that are a phase.

    Multi-qubit gates act as barriers on their qubits.  The result has at
    most one single-qubit gate per qubit between consecutive entangling
    gates, named ``U1Q`` with an explicit matrix.
    """
    gates = circuit.gates
    matrices, row_matrix = [], []
    pair_row, pair_qubit, pair_slot = [], [], []
    for i, gate in enumerate(gates):
        if gate.n_qubits == 1:
            row_matrix.append(len(matrices))
            matrices.append(gate.unitary())
        else:
            row_matrix.append(-1)
        for s, q in enumerate(gate.qubits):
            pair_row.append(i)
            pair_qubit.append(q)
            pair_slot.append(s)
    table, exotic = stack_matrices(matrices)
    row_matrix = np.array(row_matrix, dtype=np.intp)
    fused = fuse_runs(row_matrix >= 0, row_matrix,
                      np.array(pair_row, dtype=np.intp),
                      np.array(pair_qubit, dtype=np.intp),
                      np.array(pair_slot, dtype=np.intp),
                      table, exotic, atol)
    merged, j = [], 0
    for event, is_run in zip(fused.events.tolist(), fused.is_run.tolist()):
        if is_run:
            matrix = fused.exotic.get(j, fused.folded[j])
            merged.append(Gate("U1Q", gates[event].qubits, matrix=matrix))
            j += 1
        else:
            merged.append(gates[event])
    return Circuit(circuit.n_qubits, merged)


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
