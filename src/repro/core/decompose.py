"""Final gate decomposition pass (paper Figure 2, last stage).

Runs *after* all permutation-aware passes, so the same routed/scheduled
circuit retargets to any hardware basis.  Each application-level two-qubit
block (term exponential, unified gate, SWAP, dressed SWAP) becomes basis
two-qubit gates plus single-qubit gates, and adjacent single-qubit gates
fuse in the same walk that emits them.

Lowering is **two-phase**: a first walk over the circuit resolves every
two-qubit gate against the template and matrix memos and collects the
unique uncached matrices (SWAP / dressed-SWAP repeats dominate real
workloads, so dedupe-before-synthesis shrinks the work sharply); the
misses are synthesized in one call to the batched KAK engine
(:meth:`~repro.synthesis.gateset.GateSet.decompose_batch`), which hands
back every block as a two-qubit
:class:`~repro.quantum.circuit.ColumnarCircuit`.  The emission then
works on rows, not :class:`Gate` objects: each application gate
becomes its block's rows mapped onto its qubits (a single-qubit gate
becomes one row), gathered with array indexing, and one call of
:func:`~repro.quantum.transforms.fuse_runs` folds every single-qubit run
of the circuit in one stacked pass.  The result is a
:class:`~repro.quantum.circuit.ColumnarCircuit` whose two-qubit rows
record the index of the application gate they lower.  Outputs are
bit-identical to the retained scalar walk
(:func:`decompose_circuit_reference`, which lowers first and fuses
afterwards): the batch engine guarantees per-matrix byte equality and
falls back per matrix where it cannot, and the fold is the one
:func:`~repro.quantum.transforms.merge_single_qubit_gates` uses, fed
the same matrices in the same order.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.quantum.circuit import (
    MAT,
    OP,
    Q0,
    Q1,
    SOURCE,
    Circuit,
    ColumnarCircuit,
    stack_matrices,
    to_columns,
)
from repro.quantum.gates import Gate
from repro.quantum.transforms import fuse_runs, merge_single_qubit_gates
from repro.synthesis.gateset import GateSet

# Decomposition results for repeated unitaries (bare SWAPs especially)
# are cached by matrix bytes.
_CACHE_LIMIT = 4096


def cache_key(matrix: np.ndarray) -> bytes:
    """Matrix-bytes memo key (rounded so float noise does not split keys).

    Factored out so the two-phase walk computes each gate's key exactly
    once and reuses it for dedupe, lookup, and insert.
    """
    return np.round(matrix, 12).tobytes()


def cache_keys(matrices: list[np.ndarray]) -> list[bytes]:
    """:func:`cache_key` of every matrix: complex128 4x4 matrices round
    in one stacked call (elementwise, so each slice's bytes are the
    ones its own rounding gives), any other matrix on its own."""
    if all(m.dtype == np.complex128 and m.shape == (4, 4)
           for m in matrices):
        if not matrices:
            return []
        return [row.tobytes() for row in np.round(np.array(matrices), 12)]
    return [cache_key(m) for m in matrices]


class DecomposeCache:
    """LRU-bounded memo of two-qubit decompositions.

    Keyed by ``(gateset, solve, matrix bytes)``; at most ``maxsize``
    entries are retained, evicting least-recently-used first (the old
    behaviour -- silently refusing new entries once full -- pessimised
    exactly the workloads long enough to fill the cache).  ``hits`` /
    ``misses`` count lookups; sweep reports surface them next to the
    pipeline-cache counters.
    """

    def __init__(self, maxsize: int = _CACHE_LIMIT) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[tuple[str, bool, bytes],
                                 tuple[Circuit, complex]] = OrderedDict()

    def lookup(self, gateset: GateSet, key: bytes,
               solve: bool) -> tuple[Circuit, complex] | None:
        """Probe by precomputed matrix key; counts a hit or a miss."""
        full = (gateset.name, solve, key)
        hit = self._store.get(full)
        if hit is not None:
            self.hits += 1
            self._store.move_to_end(full)
            return hit
        self.misses += 1
        return None

    def insert(self, gateset: GateSet, key: bytes, solve: bool,
               value: tuple[Circuit, complex]) -> None:
        """Store a synthesized block under a precomputed matrix key."""
        if self.maxsize > 0:
            self._store[(gateset.name, solve, key)] = value
            if len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def get(self, gateset: GateSet, matrix: np.ndarray, solve: bool,
            seed: int) -> tuple[Circuit, complex]:
        key = cache_key(matrix)
        hit = self.lookup(gateset, key, solve)
        if hit is not None:
            return hit
        value = gateset.decompose(matrix, solve=solve, seed=seed)
        self.insert(gateset, key, solve, value)
        return value

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict[str, int]:
        """Lookup counters plus current occupancy."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._store), "maxsize": self.maxsize}


def decompose_circuit(circuit: Circuit, gateset: GateSet, *,
                      solve: bool = False, seed: int = 0,
                      cache: DecomposeCache | None = None,
                      templates=None) -> ColumnarCircuit:
    """Lower an application-level circuit to the hardware basis.

    ``solve=False`` (the benchmark mode) produces placeholder single-qubit
    gates but exact basis-gate counts and depth structure; ``solve=True``
    produces unitary-exact circuits.

    Gates carrying a ``meta["template"]`` key (term-structure signature
    plus resolved angles, attached by the schedule emitter and by
    ``Gate.bind``) are looked up through ``templates`` (a
    :class:`~repro.synthesis.templates.TemplateCache`, defaulting to the
    shared module instance): repeat bindings of the same term structure
    skip both the factor fold and the matrix-bytes keying.  The template
    layer delegates to ``cache`` on miss, so its blocks are bit-identical
    to the plain path.
    """
    if cache is None:
        cache = DecomposeCache()
    if templates is None:
        from repro.synthesis.templates import DEFAULT_TEMPLATES
        templates = DEFAULT_TEMPLATES

    # ------------------------------------------------------------------
    # Phase 1: resolve every gate, dedupe and collect uncached matrices.
    # ------------------------------------------------------------------
    # per gate: None (one-qubit) | a memo value | the index of its matrix
    # in `keyed`, whose keys are computed together
    refs: list = []
    wires: list[tuple[int, int]] = []
    one_qubit: list[np.ndarray] = []
    keyed: list[np.ndarray] = []
    # gates whose matrix path runs after keying, in walk order
    walk: list[int] = []
    # named gates without a matrix (SWAPs): one unitary per name
    named: dict[str, int] = {}
    # template keys resolved through the matrix path this walk
    template_refs: dict[tuple, int] = {}
    template_inserts: list[tuple[tuple, int]] = []

    for gate in circuit:
        if gate.n_qubits == 1:
            refs.append(None)
            wires.append((gate.qubits[0], -1))
            one_qubit.append(gate.unitary())
            continue
        if gate.n_qubits != 2:
            raise ValueError(f"cannot decompose {gate.n_qubits}-qubit gate")
        wires.append(gate.qubits)
        template = gate.meta.get("template")
        if template is not None:
            tkey = templates.key(gateset, template, solve=solve, seed=seed)
            known = template_refs.get(tkey)
            if known is not None:
                # The scalar walk would hit the entry inserted by the
                # first occurrence (when the template memo stores at all).
                if templates.maxsize > 0:
                    templates.hits += 1
                else:
                    templates.misses += 1
                refs.append(known)
                continue
            hit = templates.lookup(tkey)
            if hit is not None:
                refs.append(hit)
                continue
            index = len(keyed)
            keyed.append(gate.unitary())
            template_refs[tkey] = index
            template_inserts.append((tkey, index))
        elif gate.matrix is None and gate.symbolic is None \
                and not gate.params:
            index = named.get(gate.name)
            if index is None:
                index = named[gate.name] = len(keyed)
                keyed.append(gate.unitary())
        else:
            index = len(keyed)
            keyed.append(gate.unitary())
        walk.append(len(refs))
        refs.append(index)

    # the matrix memo, replayed in walk order on the computed keys
    keys = cache_keys(keyed)
    resolved: dict[bytes, tuple[ColumnarCircuit, complex] | None] = {}
    pending: list[tuple[bytes, np.ndarray]] = []
    pending_keys: set[bytes] = set()
    for g in walk:
        mkey = keys[refs[g]]
        if mkey in pending_keys:
            # Scalar would have inserted after the first occurrence and
            # hit now (or re-missed with storage disabled).
            if cache.maxsize > 0:
                cache.hits += 1
            else:
                cache.misses += 1
        elif mkey not in resolved:
            hit = cache.lookup(gateset, mkey, solve)
            if hit is not None:
                resolved[mkey] = hit
            else:
                pending.append((mkey, keyed[refs[g]]))
                pending_keys.add(mkey)
        else:
            # Repeat of a store-resolved key: replay the scalar lookup so
            # counters and LRU recency stay identical.
            cache.lookup(gateset, mkey, solve)

    # ------------------------------------------------------------------
    # Phase 2: one batched synthesis call for all misses, then emit rows
    # and fuse in one stacked pass.
    # ------------------------------------------------------------------
    if pending:
        blocks = gateset.decompose_batch([m for _, m in pending],
                                         solve=solve, seed=seed)
        for (mkey, _), value in zip(pending, blocks):
            resolved[mkey] = value
            cache.insert(gateset, mkey, solve, value)
    for tkey, index in template_inserts:
        templates.insert(tkey, resolved[keys[index]])
    values = [resolved[keys[ref]] if type(ref) is int else ref
              for ref in refs]
    return _emit(circuit.n_qubits, values, wires, one_qubit)


def _emit(n_qubits: int, values: list, wires: list,
          one_qubit: list) -> ColumnarCircuit:
    """The lowered circuit: gate ``g`` becomes the rows of its block
    ``values[g][0]`` on ``wires[g]`` (a one-qubit gate, ``values[g] is
    None``, becomes one row holding the next matrix of ``one_qubit``),
    then every single-qubit run is fused."""
    index: dict[int, int] = {}
    blocks: list[ColumnarCircuit] = []
    used = []
    for value in values:
        if value is None:
            used.append(-1)
            continue
        j = index.get(id(value[0]))
        if j is None:
            j = index[id(value[0])] = len(blocks)
            blocks.append(to_columns(value[0]))
        used.append(j)
    used = np.array(used, dtype=np.intp)
    single = used < 0

    # template rows: every distinct block's, then one per one-qubit gate
    one_table, one_exotic = stack_matrices(one_qubit)
    block_rows = np.array([len(b.rows) for b in blocks] + [0], dtype=np.intp)
    row_start = np.concatenate([[0], np.cumsum(block_rows)])
    block_mats = [len(b.matrices) for b in blocks]
    mat_start = np.concatenate([[0], np.cumsum(block_mats)]).astype(np.intp)
    table = np.concatenate([b.matrices for b in blocks] + [one_table])
    exotic = {int(mat_start[-1]) + i: m for i, m in one_exotic.items()}
    for j, block in enumerate(blocks):
        for i, m in block.exotic.items():
            exotic[int(mat_start[j]) + i] = m
    kind_ids: dict[int, int] = {}
    kinds: list[Gate] = []
    remap = []
    for block in blocks:
        for kind in block.kinds:
            k = kind_ids.get(id(kind))
            if k is None:
                k = kind_ids[id(kind)] = len(kinds)
                kinds.append(kind)
            remap.append(k)
    kind_start = np.concatenate(
        [[0], np.cumsum([len(b.kinds) for b in blocks])]).astype(np.intp)
    n_one = len(one_qubit)
    template = np.concatenate(
        [b.rows for b in blocks] + [np.zeros((n_one, 5), dtype=np.int32)])
    owner = np.repeat(np.arange(len(blocks)), block_rows[:-1])
    t_op = template[:, OP].astype(np.intp)
    t_mat = template[:, MAT].astype(np.intp)
    n_block_rows = int(row_start[-1])
    two = np.flatnonzero(t_op[:n_block_rows] >= 0)
    t_op[two] = np.array(remap, dtype=np.intp)[t_op[two] + kind_start[owner[two]]]
    ones = np.flatnonzero(t_mat[:n_block_rows] >= 0)
    t_mat[ones] += mat_start[owner[ones]]
    t_op[n_block_rows:] = -1
    t_mat[n_block_rows:] = mat_start[-1] + np.arange(n_one)
    t_q0 = template[:, Q0]
    t_q1 = template[:, Q1].copy()
    t_q1[n_block_rows:] = -1

    # every gate's rows, in circuit order
    count = np.where(single, 1, block_rows[used])
    first = np.where(single, n_block_rows + np.cumsum(single) - 1,
                     row_start[used])
    gate_of = np.repeat(np.arange(len(used)), count)
    taken = np.concatenate([[0], np.cumsum(count)[:-1]])
    pick = np.repeat(first - taken, count) + np.arange(len(gate_of))
    wires = np.array(wires, dtype=np.intp).reshape(len(used), 2)
    a, b = wires[gate_of, 0], wires[gate_of, 1]
    op, mat = t_op[pick], t_mat[pick]
    q0 = np.where(t_q0[pick] == 0, a, b)
    local = t_q1[pick]
    q1 = np.where(local < 0, -1, np.where(local == 0, a, b))

    one = op < 0
    two = np.flatnonzero(~one)
    rows = np.arange(len(op))
    fused = fuse_runs(one, mat, np.concatenate([rows, two]),
                      np.concatenate([q0, q1[two]]),
                      np.concatenate([np.zeros(len(op), dtype=np.intp),
                                      np.ones(len(two), dtype=np.intp)]),
                      table, exotic)
    events, is_run = fused.events, fused.is_run
    out = np.empty((len(events), 5), dtype=np.int32)
    out[:, OP] = np.where(is_run, -1, op[events])
    out[:, Q0] = q0[events]
    out[:, Q1] = np.where(is_run, -1, q1[events])
    out[:, MAT] = np.where(is_run, np.cumsum(is_run) - 1, -1)
    out[:, SOURCE] = np.where(is_run, -1, gate_of[events])
    return ColumnarCircuit(n_qubits, tuple(kinds), out, fused.folded,
                           fused.exotic)


def decompose_circuit_reference(circuit: Circuit, gateset: GateSet, *,
                                solve: bool = False, seed: int = 0,
                                cache: DecomposeCache | None = None,
                                templates=None) -> Circuit:
    """Scalar per-gate lowering walk (the pre-batching reference).

    Kept verbatim as the bit-identity oracle for the two-phase walk; the
    perf smoke and the equivalence tests run both and compare outputs
    byte for byte.
    """
    if cache is None:
        cache = DecomposeCache()
    if templates is None:
        from repro.synthesis.templates import DEFAULT_TEMPLATES
        templates = DEFAULT_TEMPLATES
    lowered = Circuit(circuit.n_qubits)
    for gate in circuit:
        if gate.n_qubits == 1:
            lowered.append(Gate("U1Q", gate.qubits, matrix=gate.unitary()))
            continue
        if gate.n_qubits != 2:
            raise ValueError(f"cannot decompose {gate.n_qubits}-qubit gate")
        template = gate.meta.get("template")
        if template is not None:
            block, _ = templates.get(gateset, gate, template, solve=solve,
                                     seed=seed, cache=cache)
        else:
            block, _ = cache.get(gateset, gate.unitary(), solve, seed)
        a, b = gate.qubits
        for small in block:
            mapped = tuple(a if q == 0 else b for q in small.qubits)
            lowered.append(Gate(small.name, mapped, small.params,
                                small.matrix, meta=dict(small.meta)))
    return merge_single_qubit_gates(lowered)
