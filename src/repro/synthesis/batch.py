"""Batched magic-basis KAK: the vectorized two-qubit synthesis engine.

The scalar KAK machinery in :mod:`repro.synthesis.weyl` decomposes one
4x4 unitary at a time; every step of it -- determinant, magic-basis
conjugation, the simultaneous diagonalisation of ``V^T V``, the Weyl
move-orbit search and the Kronecker factor SVDs -- is matrix math that
batches naturally over a stacked ``(k, 4, 4)`` array.  This module is
that batch engine: one LAPACK gufunc call per stage instead of one
Python-dispatched call per matrix.

**Bit-identity contract.**  Every function here returns, per matrix,
exactly the bytes the retained scalar reference would have produced:

* numpy's ``det``/``eigh``/``svd``/``matmul`` gufuncs apply the same
  LAPACK/BLAS routine to each stacked slice that a single 2-D call uses,
  so the stacked stages reproduce the scalar float64 operation order
  exactly;
* the canonicalization *move application*, whose fixup sequence
  differs per matrix, runs grouped by move: the rows sharing a move get
  the scalar sequence of matmuls and float operations as one stacked
  call each;
* matrices the batch stage cannot represent -- the simultaneous
  diagonalisation did not converge on the first random draw, the
  eigenphase parity is anomalous, an orthogonality/factorisation check
  trips, the vector key scan cannot promise the scalar pick -- fall back
  to the scalar path one matrix at a time, the same ``engine="auto"``
  treatment the incremental router uses for weighted devices.  The
  scalar path then either succeeds (identically, replaying further
  random draws) or raises the exact error it always raised.

The chamber tie-break in :func:`repro.synthesis.weyl._best_candidate`
compares ``round(x, 9)`` key tuples with Python semantics; the batch
orbit search scores all 48 move candidates of every matrix in one
broadcast and takes a lexicographic maximum over ``np.round(x, 9)``
keys, first in scan order on a tie.  The two roundings agree except
next to a half-integer of ``x * 1e9``, and such rows take the scalar
path (see :func:`batch_best_candidates`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.synthesis.weyl import (
    MAGIC,
    KAKDecomposition,
    _FLIP,
    _PERM_WORDS,
    _SHIFT,
    _SIGN_PATTERNS,
    _SWAP_XY,
    _SWAP_YZ,
    _TOL,
    kak_decompose,
    weyl_coordinates,
)

_HALF_PI = math.pi / 2
_TWO_PI = 2 * math.pi

# First random mixing coefficient the scalar `_simultaneous_diagonalize`
# draws (``default_rng(seed=0).normal()``).  Almost every unitary
# converges on this draw; the rest fall back to the scalar retry loop.
_FIRST_DRAW = float(np.random.default_rng(0).normal())

_I4 = np.eye(4, dtype=complex)
_DIAGONAL = np.eye(4, dtype=bool)
_MAGIC_H = np.ascontiguousarray(MAGIC.conj().T)

# The move-orbit enumeration, frozen in the scalar iteration order.
_PERMS = np.array(list(_PERM_WORDS), dtype=np.intp)            # (6, 3)
_WORDS = list(_PERM_WORDS.values())
_SIGNS = np.array(_SIGN_PATTERNS, dtype=float)                 # (4, 3)


def _as_batch(unitaries) -> np.ndarray:
    """Validate and stack input as a C-contiguous complex (k, 4, 4)."""
    stack = np.ascontiguousarray(np.asarray(unitaries, dtype=complex))
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(
            f"batch engine expects a stacked (k, 4, 4) array, "
            f"got shape {stack.shape}"
        )
    return stack


def _slice_max_abs(arrays: np.ndarray) -> np.ndarray:
    """Per-slice ``np.abs(.).max()`` over the trailing two axes."""
    return np.abs(arrays).max(axis=(1, 2), initial=0.0)


# ---------------------------------------------------------------------------
# Stage 1: the raw (non-canonical) KAK, batched
# ---------------------------------------------------------------------------
def batch_kak_raw(stack: np.ndarray):
    """Batched :func:`repro.synthesis.weyl._kak_raw`.

    Returns ``(phases, k1s, thetas, k2s, ok)`` where the first four are
    the stacked counterparts of the scalar return values and ``ok`` is a
    boolean mask; entries with ``ok[i] == False`` (first-draw
    non-convergence, anomalous eigenphase parity, a failed orthogonality
    check) carry no guarantee and must be recomputed through the scalar
    path.
    """
    k = stack.shape[0]
    dets = np.linalg.det(stack)
    phases = dets ** 0.25
    special = stack / phases[:, None, None]
    v = np.matmul(np.matmul(_MAGIC_H, special), MAGIC)
    w = np.matmul(v.transpose(0, 2, 1), v)

    # Simultaneous diagonalisation, first scalar draw only.
    a, b = w.real, w.imag
    _, p = np.linalg.eigh(a + _FIRST_DRAW * b)
    da = np.matmul(np.matmul(p.transpose(0, 2, 1), a), p)
    db = np.matmul(np.matmul(p.transpose(0, 2, 1), b), p)
    off = np.maximum(
        _slice_max_abs(np.where(_DIAGONAL, 0.0, da)),
        _slice_max_abs(np.where(_DIAGONAL, 0.0, db)),
    )
    ok = off < 1e-10
    d = np.einsum("kii->ki", da) + 1j * np.einsum("kii->ki", db)

    neg = np.linalg.det(p) < 0
    if neg.any():
        p = p.copy()
        p[neg, :, 0] *= -1

    theta4 = np.angle(d) / 2
    residue = np.mod(theta4.sum(axis=1), _TWO_PI)
    needs_shift = np.minimum(residue, _TWO_PI - residue) > 1e-6
    bad_parity = needs_shift & (np.abs(residue - math.pi) > 1e-6)
    ok &= ~bad_parity
    shift = needs_shift & ~bad_parity
    if shift.any():
        theta4 = theta4.copy()
        theta4[shift, 0] -= math.pi

    expd = np.zeros((k, 4, 4), dtype=complex)
    idx = np.arange(4)
    expd[:, idx, idx] = np.exp(-1j * theta4)
    k1p = np.matmul(np.matmul(v, p), expd).real
    orth = _slice_max_abs(
        np.matmul(k1p, k1p.transpose(0, 2, 1)) - np.eye(4)
    )
    ok &= orth <= 1e-7

    x = (theta4[:, 0] + theta4[:, 1]) / 2
    y = (theta4[:, 1] + theta4[:, 3]) / 2
    z = (theta4[:, 0] + theta4[:, 3]) / 2
    thetas = np.stack([x, y, z], axis=1)

    k1 = np.matmul(np.matmul(MAGIC, k1p), _MAGIC_H)
    k2 = np.matmul(np.matmul(MAGIC, p.transpose(0, 2, 1)), _MAGIC_H)
    return phases, k1, thetas, k2, ok


# ---------------------------------------------------------------------------
# Stage 2: the Weyl-chamber move orbit, batched
# ---------------------------------------------------------------------------
# Candidate ``8 p + 2 s + b`` is permutation ``p``, sign pattern ``s`` and
# z-branch ``b``: the scalar scan order.
_N_CANDIDATES = 48


@dataclass(frozen=True)
class Moves:
    """Each row's canonical representative and the move recipe to it.

    ``coords[i]`` are the chamber coordinates, ``perm[i]`` / ``sign[i]``
    index :data:`_WORDS` / ``_SIGN_PATTERNS`` and ``shifts[i]`` counts
    the pi/2 shifts per axis.  ``found[i]`` is false where the scalar
    search raises (no in-chamber candidate) or where the vector key scan
    cannot promise the scalar's pick; those rows go to the scalar path.
    """

    coords: np.ndarray
    perm: np.ndarray
    sign: np.ndarray
    shifts: np.ndarray
    found: np.ndarray


def batch_best_candidates(thetas: np.ndarray) -> Moves:
    """Batched :func:`repro.synthesis.weyl._best_candidate`.

    Builds the 48-candidate move orbit (6 permutations x 4 sign patterns
    x 2 z-branches) for every row at once and picks the scalar winner
    with array operations: the largest ``round(c, 9)`` key tuple among
    in-chamber candidates, the first in scan order on a tie.

    ``np.round(c, 9)`` is ``rint(c * 1e9) / 1e9``; it equals Python's
    correctly rounded ``round(c, 9)`` unless ``c * 1e9`` lies within
    rounding error of a half-integer.  A row with such an in-chamber
    candidate comes back not ``found``, so the caller's scalar fallback
    decides it.
    """
    k = thetas.shape[0]
    permuted = thetas[:, _PERMS]                               # (k, 6, 3)
    flipped = permuted[:, :, None, :] * _SIGNS[None, None, :, :]
    shifted = np.mod(flipped, _HALF_PI)                        # (k, 6, 4, 3)
    shifts = np.round((shifted - flipped) / _HALF_PI).astype(int)
    # Candidate coordinates for both z-branches, in scan order.
    cands = np.repeat(shifted[:, :, :, None, :], 2, axis=3)
    cands[:, :, :, 1, 2] -= _HALF_PI
    cands = cands.reshape(k, _N_CANDIDATES, 3)
    cx, cy, cz = cands[..., 0], cands[..., 1], cands[..., 2]
    valid = (
        (cx <= math.pi / 4 + _TOL)
        & (cx >= cy - _TOL)
        & (cy >= np.abs(cz) - _TOL)
        & (cy >= -_TOL)
    )
    keys = np.round(cands, 9)
    scaled = np.abs(cands) * 1e9
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    unsure = (near_half.any(axis=2) & valid).any(axis=1)
    alive = valid.copy()
    for axis in range(3):
        column = np.where(alive, keys[:, :, axis], -np.inf)
        alive &= column == column.max(axis=1, keepdims=True)
    found = valid.any(axis=1) & ~unsure
    best = alive.argmax(axis=1)
    rows = np.arange(k)
    perm, sign, branch = best // 8, (best // 2) % 4, best % 2
    move_shifts = shifts[rows, perm, sign]
    move_shifts[:, 2] -= branch
    return Moves(cands[rows, best], perm, sign, move_shifts, found)


# ---------------------------------------------------------------------------
# Stage 3: canonicalization moves, grouped by move
# ---------------------------------------------------------------------------
# ``(G, G^dag, coordinate permutation)`` per permutation move, with
# ``G^dag`` built as the scalar path builds it, so every stacked matmul
# sees the operand layout the scalar one does.
_SWAP_MOVES = {
    "xy": (_SWAP_XY, _SWAP_XY.conj().T, [1, 0, 2]),
    "yz": (_SWAP_YZ, _SWAP_YZ.conj().T, [0, 2, 1]),
}
_SIGN_FLIPS = [
    (_FLIP[frozenset(i for i, s in enumerate(signs) if s < 0)],
     np.array(signs))
    for signs in _SIGN_PATTERNS[1:]
]


def _apply_moves(phases, k1s, thetas, k2s, moves: Moves, rows: np.ndarray):
    """The scalar move application of :func:`weyl.kak_decompose` on the
    rows ``rows``, stacked over the rows that share each move.

    Every row sees the scalar sequence of operations: its permutation
    word, its sign flip, then its pi/2 shifts axis by axis, each as the
    matmul or float operation the scalar loop makes.  Returns
    ``(phase, left, right, ok)``; ``ok`` is false where the scalar
    consistency check would raise.
    """
    phase = phases[rows]
    left, right = k1s[rows], k2s[rows]
    c = thetas[rows].astype(float)
    perm, sign, shifts = moves.perm[rows], moves.sign[rows], moves.shifts[rows]
    for index in sorted(set(perm.tolist()) - {0}):
        sel = np.flatnonzero(perm == index)
        moved_left, moved_right, moved_c = left[sel], right[sel], c[sel]
        for swap in _WORDS[index]:
            g, g_dag, order = _SWAP_MOVES[swap]
            moved_c = moved_c[:, order]
            moved_left = np.matmul(moved_left, g_dag)
            moved_right = np.matmul(g, moved_right)
        left[sel], right[sel], c[sel] = moved_left, moved_right, moved_c
    for index in sorted(set(sign.tolist()) - {0}):
        sel = np.flatnonzero(sign == index)
        g, signs = _SIGN_FLIPS[index - 1]
        c[sel] = c[sel] * signs
        left[sel] = np.matmul(left[sel], g)
        right[sel] = np.matmul(g, right[sel])
    for axis in range(3):
        count = shifts[:, axis]
        for value in sorted(set(count.tolist()) - {0}):
            sel = np.flatnonzero(count == value)
            moved_left, moved_phase = left[sel], phase[sel]
            moved_c = c[sel, axis]
            for _ in range(abs(value)):
                moved_left = np.matmul(moved_left, _SHIFT[axis])
                if value > 0:
                    moved_phase = moved_phase * (-1j)
                    moved_c += math.pi / 2
                else:
                    moved_phase = moved_phase * 1j
                    moved_c -= math.pi / 2
            left[sel], phase[sel], c[sel, axis] = (moved_left, moved_phase,
                                                   moved_c)
    mismatch = np.abs(c - moves.coords[rows]).max(axis=1) > 1e-7
    return phase, left, right, ~mismatch


# ---------------------------------------------------------------------------
# Kronecker factors and canonical gates, batched
# ---------------------------------------------------------------------------
def batch_closest_kron_factors(stack: np.ndarray):
    """Batched :func:`repro.quantum.unitaries.closest_kron_factors`.

    One stacked SVD over the Pitsianis--Van Loan rearrangements instead
    of one LAPACK call per matrix; per-slice results match the scalar
    helper bit for bit.
    """
    k = stack.shape[0]
    blocks = (
        stack.reshape(k, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(k, 4, 4)
    )
    u, s, vh = np.linalg.svd(blocks)
    root = np.sqrt(s[:, 0])
    a = (root[:, None] * u[:, :, 0]).reshape(k, 2, 2)
    b = (root[:, None] * vh[:, 0, :]).reshape(k, 2, 2)
    return a, b


def batch_kron_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked ``np.kron`` of 2x2 factors (pure products, exact)."""
    k = a.shape[0]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, 4, 4)


def batch_canonical_gates(coords: np.ndarray) -> np.ndarray:
    """Batched :func:`repro.synthesis.weyl.canonical_gate`.

    Mirrors the scalar accumulation order (XX, then YY, then ZZ factors
    left-multiplied onto the identity) with stacked matmuls.
    """
    k = coords.shape[0]
    result = np.broadcast_to(_I4, (k, 4, 4))
    for axis in range(3):
        angles = coords[:, axis]
        factor = (
            np.cos(angles)[:, None, None] * _I4
            + (1j * np.sin(angles))[:, None, None] * _SHIFT[axis]
        )
        result = np.matmul(factor, result)
    return result


# ---------------------------------------------------------------------------
# Batched one-qubit embeddings (mirrors quantum.circuit._expand, n=2, k=1)
# ---------------------------------------------------------------------------
# ``_expand`` contracts the gate tensor with a reshaped identity via
# ``np.tensordot`` -- internally one ``dot(at, bt)`` on reshaped 2-D
# views.  The batched versions below run the same contraction as one
# stacked matmul against the identical ``bt`` operand, then apply the
# same transpose/reshape; callers guard the composition byte-for-byte
# against a scalar ``_expand`` sample before trusting a batch.
_EXPAND_BT_Q0 = np.eye(4, dtype=complex).reshape(2, 8)
_EXPAND_BT_Q1 = np.ascontiguousarray(
    np.eye(4, dtype=complex).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3)
).reshape(2, 8)


def batch_expand_1q(smalls: np.ndarray, qubit: int) -> np.ndarray:
    """Stacked ``_expand(Gate(..), 2)`` for one-qubit gates on ``qubit``."""
    k = smalls.shape[0]
    if qubit == 0:
        return np.matmul(smalls, _EXPAND_BT_Q0).reshape(k, 4, 4)
    res = np.matmul(smalls, _EXPAND_BT_Q1).reshape(k, 2, 2, 2, 2)
    return res.transpose(0, 2, 1, 3, 4).reshape(k, 4, 4)


def batch_rx_matrices(thetas: np.ndarray) -> np.ndarray:
    """Stacked ``RX(theta)`` unitaries, each entry computed by the scalar
    expression of ``gates._rx`` (so byte-identical per angle)."""
    halves = (np.asarray(thetas, dtype=float) / 2).tolist()
    out = np.zeros((len(halves), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = [math.cos(h) for h in halves]
    out[:, 0, 1] = out[:, 1, 0] = [-1j * math.sin(h) for h in halves]
    return out


def batch_rz_matrices(thetas: np.ndarray) -> np.ndarray:
    """Stacked ``RZ(theta)`` unitaries, each phase computed by the scalar
    expression of ``gates._rz`` (so byte-identical per angle)."""
    phases = np.array([np.exp(-0.5j * t)
                       for t in np.asarray(thetas, dtype=float).tolist()],
                      dtype=complex)
    out = np.zeros((len(phases), 2, 2), dtype=complex)
    out[:, 0, 0] = phases
    out[:, 1, 1] = np.conj(phases)
    return out


# ---------------------------------------------------------------------------
# Public batched entry points
# ---------------------------------------------------------------------------
def batch_weyl_coordinates(unitaries) -> list:
    """Canonical Weyl coordinates for a stacked batch of unitaries.

    Per matrix bit-identical to
    :func:`repro.synthesis.weyl.weyl_coordinates`; anomalous matrices are
    recomputed through the scalar path (which may raise, as it always
    did).
    """
    stack = _as_batch(unitaries)
    if stack.shape[0] == 0:
        return []
    _, _, thetas, _, ok = batch_kak_raw(stack)
    moves = batch_best_candidates(thetas)
    ok &= moves.found
    coords = moves.coords.tolist()
    return [tuple(coords[i]) if ok[i] else weyl_coordinates(stack[i])
            for i in range(stack.shape[0])]


@dataclass(frozen=True)
class KAKArrays:
    """Stacked canonical KAK decompositions: row ``i`` holds the fields
    of ``kak_decompose(stack[i])`` (``coords`` is ``(x, y, z)``)."""

    phase: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    coords: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def decomposition(self, i: int) -> KAKDecomposition:
        x, y, z = self.coords[i].tolist()
        return KAKDecomposition(
            phase=complex(self.phase[i]), a1=self.a1[i], a2=self.a2[i],
            x=x, y=y, z=z, b1=self.b1[i], b2=self.b2[i])


def batch_kak_arrays(stack: np.ndarray) -> KAKArrays:
    """Canonical KAK decompositions of a ``(k, 4, 4)`` stack, as arrays.

    Each row is bit-identical to ``kak_decompose`` of that matrix alone.
    A row the batch stages cannot guarantee (see :func:`batch_kak_raw`
    and :func:`batch_best_candidates`), or whose moves, factors or
    reconstruction fail their checks, is recomputed by the scalar
    ``kak_decompose``, which also raises exactly the scalar errors.
    """
    k = stack.shape[0]
    phases, k1s, thetas, k2s, ok = batch_kak_raw(stack)
    moves = batch_best_candidates(thetas)
    rows = np.flatnonzero(ok & moves.found)
    phase, lefts, rights, moved = _apply_moves(phases, k1s, thetas, k2s,
                                               moves, rows)
    rows, phase = rows[moved], phase[moved]
    lefts, rights = lefts[moved], rights[moved]
    m = len(rows)
    a_all, b_all = batch_closest_kron_factors(np.concatenate([lefts,
                                                              rights]))
    a1s, b1s = a_all[:m], b_all[:m]
    a2s, b2s = a_all[m:], b_all[m:]
    factor_err = np.maximum(
        _slice_max_abs(batch_kron_2x2(a1s, b1s) - lefts),
        _slice_max_abs(batch_kron_2x2(a2s, b2s) - rights),
    )
    coords = moves.coords
    recon = np.matmul(
        np.matmul(phase[:, None, None] * batch_kron_2x2(a1s, b1s),
                  batch_canonical_gates(coords[rows])),
        batch_kron_2x2(a2s, b2s),
    )
    recon_err = _slice_max_abs(recon - stack[rows])
    good = (factor_err <= 1e-7) & (recon_err <= 1e-6)
    if good.all() and m == k:
        return KAKArrays(phase, a1s, b1s, coords, a2s, b2s)
    out = KAKArrays(
        phase=np.empty(k, dtype=complex),
        a1=np.empty((k, 2, 2), dtype=complex),
        a2=np.empty((k, 2, 2), dtype=complex),
        coords=np.array(coords, dtype=float),
        b1=np.empty((k, 2, 2), dtype=complex),
        b2=np.empty((k, 2, 2), dtype=complex),
    )
    kept = rows[good]
    out.phase[kept] = phase[good]
    out.a1[kept], out.a2[kept] = a1s[good], b1s[good]
    out.b1[kept], out.b2[kept] = a2s[good], b2s[good]
    done = np.zeros(k, dtype=bool)
    done[kept] = True
    for i in np.flatnonzero(~done).tolist():
        scalar = kak_decompose(stack[i])
        out.phase[i] = scalar.phase
        out.a1[i], out.a2[i] = scalar.a1, scalar.a2
        out.coords[i] = scalar.coordinates
        out.b1[i], out.b2[i] = scalar.b1, scalar.b2
    return out


def batch_kak_decompose(unitaries) -> list:
    """Canonical KAK decompositions for a stacked batch of unitaries.

    Returns one :class:`~repro.synthesis.weyl.KAKDecomposition` per
    input, each bit-identical to ``kak_decompose`` of that matrix alone
    (see :func:`batch_kak_arrays`).
    """
    stack = _as_batch(unitaries)
    if stack.shape[0] == 0:
        return []
    arrays = batch_kak_arrays(stack)
    return [arrays.decomposition(i) for i in range(stack.shape[0])]
