"""Analytic synthesis of arbitrary two-qubit unitaries into CNOTs (or CZs).

The construction is exact and phase-correct:

* 0 CNOTs when the target is a tensor product (class ``(0,0,0)``),
* 1 CNOT for the CNOT class ``(pi/4, 0, 0)``,
* 2 CNOTs for any class with ``z = 0``, using
  ``CAN(x, 0, y) = CX (Rx(-2x) (x) Rz(-2y)) CX``,
* 3 CNOTs otherwise, using the identity (derived from conjugating the
  canonical generators through a CNOT and verified to machine precision)::

      CAN(x, y, z) = CX . (Rx(-2x) (x) Rz(-2z)) . CZ . (Rx(2y) (x) I) . CZ . CX

  where the trailing ``CZ . CX`` pair is a single controlled-iY, itself one
  CNOT conjugated by local gates, giving three CNOTs in total -- matching
  the paper's Figure 5 (a dressed SWAP costs 3 CNOTs, not 5).

Locals for a concrete target are obtained by *alignment*: both the target
and the constructed core have canonical KAK decompositions with identical
Weyl coordinates, so the target equals the core conjugated by single-qubit
gates (and a global phase).
"""

from __future__ import annotations

import math

import numpy as np

from repro.quantum.circuit import (
    MAT,
    OP,
    Q0,
    Q1,
    SOURCE,
    Circuit,
    ColumnarCircuit,
)
from repro.quantum.gates import Gate, standard_gate_unitary
from repro.quantum.transforms import below, fuse_runs
from repro.synthesis.batch import (
    _as_batch,
    batch_expand_1q,
    batch_kak_arrays,
    batch_rx_matrices,
    batch_rz_matrices,
)
from repro.synthesis.weyl import kak_decompose, mirror_x_z

_PI4 = math.pi / 4
_TOL = 1e-8
_H = standard_gate_unitary("H")
_RZ_MINUS = standard_gate_unitary("RZ", (-math.pi / 2,))
_RZ_PLUS = standard_gate_unitary("RZ", (math.pi / 2,))


def cnot_count(coords: tuple[float, float, float], tol: float = 1e-7) -> int:
    """Minimal number of CNOTs for a gate with the given Weyl coordinates."""
    x, y, z = coords
    if max(abs(x), abs(y), abs(z)) < tol:
        return 0
    if abs(x - _PI4) < tol and abs(y) < tol and abs(z) < tol:
        return 1
    if abs(z) < tol:
        return 2
    return 3


def _core_gates(x: float, y: float, z: float, count: int) -> list[Gate]:
    """Core two-qubit circuit (on qubits 0, 1) with class ``(x, y, z)``."""
    if count == 0:
        return []
    if count == 1:
        return [Gate("CNOT", (0, 1))]
    if count == 2:
        # CAN(x, 0, y): class (x, y, 0) for x >= y >= 0.
        return [
            Gate("CNOT", (0, 1)),
            Gate("RX", (0,), (-2 * x,)),
            Gate("RZ", (1,), (-2 * y,)),
            Gate("CNOT", (0, 1)),
        ]
    # count == 3; gates listed in application (time) order, so the product
    # reads right-to-left relative to the docstring formula.  The trailing
    # CZ.CX factor is emitted as a single CNOT via the controlled-iY
    # identity  CZ.CX = e^{i pi/4} (Rz(pi/2) (x) Rz(pi/2)) CX (I (x) Rz(-pi/2)),
    # keeping the entangling-gate count at three.
    return [
        Gate("RZ", (1,), (-math.pi / 2,)),
        Gate("CNOT", (0, 1)),
        Gate("RZ", (0,), (math.pi / 2,)),
        Gate("RZ", (1,), (math.pi / 2,)),
        Gate("RX", (0,), (2 * y,)),
        Gate("CZ", (0, 1)),
        Gate("RX", (0,), (-2 * x,)),
        Gate("RZ", (1,), (-2 * z,)),
        Gate("CNOT", (0, 1)),
    ]


def _core_unitary(gates: list[Gate]) -> np.ndarray:
    circuit = Circuit(2, list(gates))
    return circuit.unitary()


def decompose_to_cnots(unitary: np.ndarray) -> tuple[Circuit, complex]:
    """Exact CNOT-basis circuit for a 4x4 unitary.

    Returns ``(circuit, phase)`` with ``circuit.unitary() * phase == unitary``.
    The circuit acts on qubits ``(0, 1)`` and contains ``cnot_count`` CNOT /
    CZ entangling gates (CZ appears only inside the 3-CNOT core and is
    converted by the gate-set layer when the hardware lacks it; for CNOT
    hardware the CZ collapses into H-conjugated CNOTs without changing the
    two-qubit count).
    """
    target = kak_decompose(unitary)
    count = cnot_count(target.coordinates)
    core_gates = _core_gates(target.x, target.y, target.z, count)
    circuit = Circuit(2)
    if count == 0:
        _append_local(circuit, 0, target.a1 @ target.b1)
        _append_local(circuit, 1, target.a2 @ target.b2)
        return circuit, target.phase

    core = kak_decompose(_core_unitary(core_gates))
    if np.abs(np.array(core.coordinates) - np.array(target.coordinates)).max() > 1e-6:
        raise RuntimeError(
            f"core class {core.coordinates} does not match target "
            f"{target.coordinates}"
        )
    # target = phase_t (A (x) A') CAN (B (x) B')
    # core   = phase_c (C (x) C') CAN (D (x) D')
    # =>  target = (phase_t / phase_c) (A C^-1 (x) A' C'^-1) core (D^-1 B (x) D'^-1 B')
    pre1 = core.b1.conj().T @ target.b1
    pre2 = core.b2.conj().T @ target.b2
    post1 = target.a1 @ core.a1.conj().T
    post2 = target.a2 @ core.a2.conj().T
    phase = target.phase / core.phase

    _append_local(circuit, 0, pre1)
    _append_local(circuit, 1, pre2)
    circuit.extend(core_gates)
    _append_local(circuit, 0, post1)
    _append_local(circuit, 1, post2)
    return circuit, phase


def _append_local(circuit: Circuit, qubit: int, matrix: np.ndarray,
                  atol: float = 1e-9) -> None:
    """Append a single-qubit unitary unless it is just a global phase.

    The dropped phase is irrelevant here because callers track the overall
    phase via the KAK phases.
    """
    if _local_is_phase(matrix, atol):
        return
    circuit.append(Gate("U1Q", (qubit,), matrix=matrix))


# ---------------------------------------------------------------------------
# Batched CNOT/CZ blocks
# ---------------------------------------------------------------------------
# The per-matrix cost of `decompose_to_cnots` is dominated by the two KAK
# decompositions (target and core) and the dense core-unitary fold; all
# three batch.  The core circuits have fixed gate *structure* per CNOT
# count, so their unitary folds split into constant segments (computed
# once through the scalar `_expand`/matmul chain) and per-matrix rotation
# layers (stacked matmuls).  A byte-level guard compares one batched core
# against the scalar `_core_unitary` fold and drops the whole group back
# to the scalar fold if the platform ever disagrees.  The finished block
# -- the basis rewrite and the single-qubit merge the scalar gate set
# applies to `decompose_to_cnots` -- is then built for the whole batch at
# once: every block's unmerged rows go into one row table (block ``j`` on
# qubits ``2j, 2j + 1``) and one call of the fusion kernel merges them.

_CORE1_CACHE: dict[str, object] = {}


def _core1_kak():
    """KAK of the constant 1-CNOT core (deterministic; computed once)."""
    kak = _CORE1_CACHE.get("kak")
    if kak is None:
        kak = kak_decompose(_core_unitary(_core_gates(0.0, 0.0, 0.0, 1)))
        _CORE1_CACHE["kak"] = kak
    return kak


def _expand_gate(gate: Gate) -> np.ndarray:
    from repro.quantum.circuit import _expand

    return _expand(gate, 2)


_CONST_CACHE: dict[str, np.ndarray] = {}


def _const_mats() -> dict[str, np.ndarray]:
    """Constant expanded gates / folded prefixes of the core circuits.

    Every entry reproduces the exact scalar arithmetic
    (``_expand(gate, 2) @ running`` starting from ``np.eye(4)``), so
    substituting them for the scalar fold is byte-exact by construction.
    """
    if not _CONST_CACHE:
        eye = np.eye(4, dtype=complex)
        cnot = _expand_gate(Gate("CNOT", (0, 1)))
        cz = _expand_gate(Gate("CZ", (0, 1)))
        _CONST_CACHE["cnot"] = cnot
        _CONST_CACHE["cz"] = cz
        # count == 2 prefix: CNOT applied to the identity.
        _CONST_CACHE["pre2"] = cnot @ eye
        # count == 3 prefix: RZ(1,-pi/2), CNOT, RZ(0,pi/2), RZ(1,pi/2).
        run = eye
        for gate in _core_gates(0.25, 0.25, 0.125, 3)[:4]:
            run = _expand_gate(gate) @ run
        _CONST_CACHE["pre3"] = run
    return _CONST_CACHE


def _batch_cores_2(coords: np.ndarray) -> np.ndarray:
    """Stacked core unitaries for the 2-CNOT template."""
    consts = _const_mats()
    rx = batch_rx_matrices(-2 * coords[:, 0])
    rz = batch_rz_matrices(-2 * coords[:, 1])
    run = np.matmul(batch_expand_1q(rx, 0), consts["pre2"])
    run = np.matmul(batch_expand_1q(rz, 1), run)
    return np.matmul(consts["cnot"], run)


def _batch_cores_3(coords: np.ndarray) -> np.ndarray:
    """Stacked core unitaries for the 3-CNOT template."""
    consts = _const_mats()
    rx_a = batch_rx_matrices(2 * coords[:, 1])
    rx_b = batch_rx_matrices(-2 * coords[:, 0])
    rz = batch_rz_matrices(-2 * coords[:, 2])
    run = np.matmul(batch_expand_1q(rx_a, 0), consts["pre3"])
    run = np.matmul(consts["cz"], run)
    run = np.matmul(batch_expand_1q(rx_b, 0), run)
    run = np.matmul(batch_expand_1q(rz, 1), run)
    return np.matmul(consts["cnot"], run)


def _scalar_core(x: float, y: float, z: float, count: int) -> np.ndarray:
    """``_core_unitary(_core_gates(x, y, z, count))`` for count 2 or 3,
    starting from the constant folded prefix and taking the constant
    gates' expansions from :func:`_const_mats` (the same bytes)."""
    consts = _const_mats()
    gates = _core_gates(x, y, z, count)
    run = consts["pre2"] if count == 2 else consts["pre3"]
    for gate in gates[1:] if count == 2 else gates[4:]:
        expanded = consts.get(gate.name.lower())
        run = (_expand_gate(gate) if expanded is None else expanded) @ run
    return run


def _guarded_cores(coords: np.ndarray, count: int) -> np.ndarray:
    """Batched core unitaries with a scalar byte-identity spot check.

    One batched core is refolded through the scalar path; any byte
    difference retires the whole group to the scalar fold (the
    ``engine="auto"`` safety treatment).
    """
    fold = _batch_cores_2 if count == 2 else _batch_cores_3
    cores = fold(coords)
    if _scalar_core(*coords[0].tolist(), count).tobytes() \
            != np.ascontiguousarray(cores[0]).tobytes():
        return np.stack([_core_unitary(_core_gates(x, y, z, count))
                         for x, y, z in coords.tolist()])
    return cores


#: The core of each CNOT count in time order, as `_core_gates` emits it:
#: a bare name is a two-qubit gate on (0, 1); ``(qubit, slot)`` is a
#: rotation whose matrix the slot names.
_CORE_ROWS = {
    0: (),
    1: ("CNOT",),
    2: ("CNOT", (0, "rx_a"), (1, "rz"), "CNOT"),
    3: ((1, "rz-"), "CNOT", (0, "rz+"), (1, "rz+"), (0, "rx_a"), "CZ",
        (0, "rx_b"), (1, "rz"), "CNOT"),
}
#: Rotation angles per count, from ``(x, y, z)``, as `_core_gates` sets them.
_ANGLES = {
    2: {"rx_a": (0, -2), "rz": (1, -2)},
    3: {"rx_a": (1, 2), "rx_b": (0, -2), "rz": (2, -2)},
}
#: Locals `_append_local` drops when they are a phase.
_OPTIONAL = ("pre1", "pre2", "post1", "post2", "l0", "l1")


def _block_rows(basis: str, count: int) -> list:
    """Unmerged rows of a ``count``-CNOT block on ``basis``: ``(wire,
    slot)`` per single-qubit row, ``None`` per basis gate.  The other
    entangler is rewritten as the basis gate conjugated by ``H`` on
    qubit 1, as ``_rewrite_cz_as_cnot`` / ``_rewrite_cnot_as_cz`` do."""
    rows = [(0, "pre1"), (1, "pre2")] if count else [(0, "l0"), (1, "l1")]
    for entry in _CORE_ROWS[count]:
        if entry == basis:
            rows.append(None)
        elif isinstance(entry, str):
            rows += [(1, "H"), None, (1, "H")]
        else:
            rows.append(entry)
    if count:
        rows += [(0, "post1"), (1, "post2")]
    return rows


def _local_is_phase(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """The test `_append_local` drops a local by."""
    off = abs(matrix[0, 1]) + abs(matrix[1, 0])
    return off < atol and abs(matrix[0, 0] - matrix[1, 1]) < atol


def _local_phase_mask(mats: np.ndarray) -> np.ndarray:
    worst = np.maximum(np.abs(mats[:, 0, 1]) + np.abs(mats[:, 1, 0]),
                       np.abs(mats[:, 0, 0] - mats[:, 1, 1]))
    return below(worst, 1e-9, lambda i: _local_is_phase(mats[i]))


_BASIS_KINDS = {"CNOT": Gate("CNOT", (0, 1)), "CZ": Gate("CZ", (0, 1))}


def _h_conj(mats: np.ndarray) -> np.ndarray:
    return np.conj(mats).transpose(0, 2, 1)


def batch_cnot_blocks(unitaries,
                      basis: str) -> list[tuple[ColumnarCircuit, complex]]:
    """Finished CNOT- or CZ-basis blocks for a stack of unitaries.

    Per matrix bit-identical to the scalar gate set's ``decompose``
    (``decompose_to_cnots``, the basis rewrite and
    ``merge_single_qubit_gates``): target and core KAKs come from the
    batch engine (with its scalar fallback), the core folds from stacked
    matmuls guarded against the scalar fold, the locals from stacked
    matmuls with the scalar operand layouts, the rotations from the
    scalar expressions, and the merge from :func:`fuse_runs` over every
    block at once.  Returns one ``(block, phase)`` per input.
    """
    stack = _as_batch(unitaries)
    k = stack.shape[0]
    if k == 0:
        return []
    target = batch_kak_arrays(stack)
    coords = target.coords
    counts = np.array([cnot_count(c) for c in coords.tolist()])

    # core KAKs: constant for 1-CNOT cores, batched folds otherwise
    core1 = _core1_kak()
    core_phase = np.full(k, core1.phase, dtype=complex)
    core = {name: np.broadcast_to(getattr(core1, name), (k, 2, 2)).copy()
            for name in ("a1", "a2", "b1", "b2")}
    core_coords = np.tile(np.array(core1.coordinates), (k, 1))
    groups = [np.flatnonzero(counts == n) for n in (2, 3)]
    folds = [_guarded_cores(coords[g], n)
             for n, g in zip((2, 3), groups) if len(g)]
    if folds:
        rows = np.concatenate(groups)
        kak = batch_kak_arrays(np.concatenate(folds))
        core_phase[rows] = kak.phase
        core_coords[rows] = kak.coords
        for name in core:
            core[name][rows] = getattr(kak, name)
    entangled = np.flatnonzero(counts > 0)
    mismatch = np.abs(core_coords[entangled]
                      - coords[entangled]).max(axis=1) > 1e-6
    if mismatch.any():
        i = entangled[np.argmax(mismatch)]
        raise RuntimeError(
            f"core class {tuple(core_coords[i].tolist())} does not match "
            f"target {tuple(coords[i].tolist())}")

    # every slot's matrices, stacked into one table
    slots = {"H": _H[None], "rz-": _RZ_MINUS[None], "rz+": _RZ_PLUS[None]}
    locals_ = {
        "pre1": np.matmul(_h_conj(core["b1"]), target.b1),
        "pre2": np.matmul(_h_conj(core["b2"]), target.b2),
        "post1": np.matmul(target.a1, _h_conj(core["a1"])),
        "post2": np.matmul(target.a2, _h_conj(core["a2"])),
        "l0": np.matmul(target.a1, target.b1),
        "l1": np.matmul(target.a2, target.b2),
    }
    slots.update(locals_)
    dropped = dict(zip(locals_, _local_phase_mask(
        np.concatenate(list(locals_.values()))).reshape(len(locals_), k)))
    for n, group in zip((2, 3), groups):
        for name, (axis, scale) in _ANGLES[n].items():
            angles = (scale * coords[group, axis]).tolist()
            build = batch_rz_matrices if name == "rz" else batch_rx_matrices
            mats = np.zeros((k, 2, 2), dtype=complex)
            mats[group] = build(angles)
            slots[f"{name}{n}"] = mats
    base, offset = {}, 0
    for name, mats in slots.items():
        base[name] = offset
        offset += len(mats)
    table = np.concatenate(list(slots.values()))

    # one row table over all blocks: block j on qubits (2j, 2j + 1), its
    # rows contiguous and in template order
    parts = []
    for n in np.unique(counts).tolist():
        group = np.flatnonzero(counts == n)
        spec = _block_rows(basis, n)
        present = np.ones((len(group), len(spec)), dtype=bool)
        index = np.full((len(group), len(spec)), -1, dtype=np.intp)
        wire = np.zeros(len(spec), dtype=np.intp)
        for col, entry in enumerate(spec):
            if entry is None:
                continue
            wire[col], slot = entry
            if slot in _OPTIONAL:
                present[:, col] = ~dropped[slot][group]
            if slot not in slots:
                slot = f"{slot}{n}"
            index[:, col] = base[slot] + (group if len(slots[slot]) == k
                                          else 0)
        keep = present.ravel()
        parts.append((np.repeat(group, len(spec))[keep],
                      np.tile(wire, len(group))[keep], index.ravel()[keep]))
    row_block, row_wire, row_mat = (np.concatenate(column)
                                    for column in zip(*parts))
    one = row_mat >= 0
    barriers = np.flatnonzero(~one)
    fused = fuse_runs(
        one, row_mat, np.concatenate([np.arange(len(one)), barriers]),
        np.concatenate([2 * row_block + row_wire, 2 * row_block[barriers]
                        + 1]),
        np.concatenate([np.zeros(len(one), dtype=np.intp),
                        np.ones(len(barriers), dtype=np.intp)]), table)

    # split the fused events back into blocks, keeping their order
    block = row_block[fused.events]
    order = np.argsort(block, kind="stable")
    block, events = block[order], fused.events[order]
    is_run = fused.is_run[order]
    run_index = (np.cumsum(fused.is_run) - 1)[order]
    row_start = np.searchsorted(block, np.arange(k + 1))
    mat_start = np.concatenate([[0], np.cumsum(is_run)])[row_start]
    rows = np.empty((len(events), 5), dtype=np.int32)
    rows[:, OP] = np.where(is_run, -1, 0)
    rows[:, Q0] = np.where(is_run, row_wire[events], 0)
    rows[:, Q1] = np.where(is_run, -1, 1)
    rows[:, MAT] = np.where(is_run, np.cumsum(is_run) - 1
                            - mat_start[block], -1)
    rows[:, SOURCE] = -1
    matrices = fused.folded[run_index[is_run]]
    kinds = (_BASIS_KINDS[basis],)
    phases = [complex(p) for p in target.phase.tolist()]
    blocks = []
    for j, n in enumerate(counts.tolist()):
        phase = phases[j] if n == 0 else phases[j] / complex(core_phase[j])
        blocks.append((ColumnarCircuit(
            2, kinds, rows[row_start[j]:row_start[j + 1]],
            matrices[mat_start[j]:mat_start[j + 1]]), phase))
    return blocks


def decompose_kak_aligned(unitary: np.ndarray, core_gates: list[Gate],
                          tol: float = 1e-6) -> tuple[Circuit, complex]:
    """Align an arbitrary core circuit (same Weyl class) to a target.

    Generic version of the alignment step used by the numerical gate-set
    decomposers: given any two-qubit ``core_gates`` whose product has the
    same canonical class as ``unitary`` (within ``tol``), build the full
    circuit by adding the correcting local gates.
    """
    target = kak_decompose(unitary)
    core = kak_decompose(_core_unitary(core_gates))
    if np.abs(np.array(core.coordinates) - np.array(target.coordinates)).max() > tol:
        # At the x = pi/4 chamber boundary the representatives (x, y, z)
        # and (pi/2 - x, y, -z) denote the same class; retry mirrored.
        mirrored = mirror_x_z(core)
        if np.abs(
            np.array(mirrored.coordinates) - np.array(target.coordinates)
        ).max() > tol:
            raise RuntimeError("core and target are not locally equivalent")
        core = mirrored
    circuit = Circuit(2)
    _append_local(circuit, 0, core.b1.conj().T @ target.b1)
    _append_local(circuit, 1, core.b2.conj().T @ target.b2)
    circuit.extend(core_gates)
    _append_local(circuit, 0, target.a1 @ core.a1.conj().T)
    _append_local(circuit, 1, target.a2 @ core.a2.conj().T)
    return circuit, target.phase / core.phase
