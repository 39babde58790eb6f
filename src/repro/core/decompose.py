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
(:meth:`~repro.synthesis.gateset.GateSet.decompose_batch`).  A second
walk then emits the output in one pass: every single-qubit matrix (the
circuit's own and those inside each block) goes straight into its
qubit's pending run of a :class:`~repro.quantum.transforms.SingleQubitRuns`,
and only the mapped basis two-qubit gates and the fused ``U1Q`` gates
become :class:`Gate` objects -- no unfused intermediate circuit is
built.  Outputs are bit-identical to the retained scalar walk
(:func:`decompose_circuit_reference`, which lowers first and fuses
afterwards): the batch engine guarantees per-matrix byte equality and
falls back per matrix where it cannot, and the run helper is the one
:func:`~repro.quantum.transforms.merge_single_qubit_gates` uses, fed
the same matrices in the same order.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate
from repro.quantum.transforms import (
    SingleQubitRuns,
    merge_single_qubit_gates,
)
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
                      templates=None) -> Circuit:
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
    # plan entries: ("1q", qubit, matrix) | ("value", block_value, gate)
    #             | ("key", matrix_key, gate)
    plan: list[tuple] = []
    resolved: dict[bytes, tuple[Circuit, complex] | None] = {}
    pending: list[tuple[bytes, np.ndarray]] = []
    pending_keys: set[bytes] = set()
    # template keys resolved through the matrix path this walk
    template_refs: dict[tuple, bytes] = {}
    template_inserts: list[tuple[tuple, bytes]] = []

    for gate in circuit:
        if gate.n_qubits == 1:
            plan.append(("1q", gate.qubits[0], gate.unitary()))
            continue
        if gate.n_qubits != 2:
            raise ValueError(f"cannot decompose {gate.n_qubits}-qubit gate")
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
                plan.append(("key", known, gate))
                continue
            hit = templates.lookup(tkey)
            if hit is not None:
                plan.append(("value", hit, gate))
                continue
            matrix = gate.unitary()
            mkey = cache_key(matrix)
            template_refs[tkey] = mkey
            template_inserts.append((tkey, mkey))
        else:
            matrix = gate.unitary()
            mkey = cache_key(matrix)
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
                pending.append((mkey, matrix))
                pending_keys.add(mkey)
        else:
            # Repeat of a store-resolved key: replay the scalar lookup so
            # counters and LRU recency stay identical.
            cache.lookup(gateset, mkey, solve)
        plan.append(("key", mkey, gate))

    # ------------------------------------------------------------------
    # Phase 2: one batched synthesis call for all misses, then emit and
    # fuse in one walk.
    # ------------------------------------------------------------------
    if pending:
        blocks = gateset.decompose_batch([m for _, m in pending],
                                         solve=solve, seed=seed)
        for (mkey, _), value in zip(pending, blocks):
            resolved[mkey] = value
            cache.insert(gateset, mkey, solve, value)
    for tkey, mkey in template_inserts:
        templates.insert(tkey, resolved[mkey])

    runs = SingleQubitRuns()
    add, barrier = runs.add, runs.barrier
    for kind, ref, payload in plan:
        if kind == "1q":
            add(ref, payload)
            continue
        block, _ = ref if kind == "value" else resolved[ref]
        a, b = payload.qubits
        for small in block:
            qubits = small.qubits
            if len(qubits) == 1:
                add(a if qubits[0] == 0 else b, small.unitary())
            else:
                barrier(Gate(small.name,
                             tuple(a if q == 0 else b for q in qubits),
                             small.params, small.matrix,
                             meta=dict(small.meta)))
    return runs.fuse(circuit.n_qubits)


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
