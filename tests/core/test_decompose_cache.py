"""Tests for the LRU-bounded decomposition cache."""

import numpy as np
import pytest

from repro.core.decompose import (
    DecomposeCache,
    cache_key,
    decompose_circuit,
    decompose_circuit_reference,
)
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate, standard_gate_unitary
from repro.quantum.unitaries import random_unitary
from repro.synthesis.gateset import get_gateset

from tests.conftest import pauli_exponential


def _rz_pair(theta: float) -> np.ndarray:
    """A distinct two-qubit unitary per angle (for filling the cache)."""
    return np.diag(np.exp(1j * theta * np.array([0.0, 1.0, 2.0, 3.0])))


class TestDecomposeCacheLRU:
    def test_hit_and_miss_counters(self):
        cache = DecomposeCache()
        gateset = get_gateset("CNOT")
        swap = standard_gate_unitary("SWAP")
        cache.get(gateset, swap, False, 0)
        cache.get(gateset, swap, False, 0)
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1,
                                 "maxsize": cache.maxsize}

    def test_bounded_at_maxsize(self):
        cache = DecomposeCache(maxsize=4)
        gateset = get_gateset("CNOT")
        for k in range(10):
            cache.get(gateset, _rz_pair(0.1 * (k + 1)), False, 0)
        assert len(cache) == 4

    def test_eviction_is_least_recently_used(self):
        cache = DecomposeCache(maxsize=2)
        gateset = get_gateset("CNOT")
        a, b, c = _rz_pair(0.1), _rz_pair(0.2), _rz_pair(0.3)
        cache.get(gateset, a, False, 0)
        cache.get(gateset, b, False, 0)
        cache.get(gateset, a, False, 0)      # refresh a
        cache.get(gateset, c, False, 0)      # evicts b
        hits_before = cache.hits
        cache.get(gateset, a, False, 0)
        assert cache.hits == hits_before + 1  # a survived
        misses_before = cache.misses
        cache.get(gateset, b, False, 0)
        assert cache.misses == misses_before + 1  # b was evicted

    def test_new_entries_still_cached_when_full(self):
        """The pre-LRU cache refused new entries once full; the LRU
        cache keeps serving the hot set."""
        cache = DecomposeCache(maxsize=2)
        gateset = get_gateset("CNOT")
        for k in range(5):
            cache.get(gateset, _rz_pair(0.1 * (k + 1)), False, 0)
        latest = _rz_pair(0.5)
        hits_before = cache.hits
        cache.get(gateset, latest, False, 0)
        assert cache.hits == hits_before + 1

    def test_zero_maxsize_disables_storage(self):
        cache = DecomposeCache(maxsize=0)
        gateset = get_gateset("CNOT")
        swap = standard_gate_unitary("SWAP")
        cache.get(gateset, swap, False, 0)
        cache.get(gateset, swap, False, 0)
        assert len(cache) == 0
        assert cache.misses == 2

    def test_results_identical_across_cache_states(self):
        gateset = get_gateset("CNOT")
        swap = standard_gate_unitary("SWAP")
        bounded = DecomposeCache(maxsize=1)
        unbounded = DecomposeCache()
        circuit_a, phase_a = bounded.get(gateset, swap, True, 0)
        circuit_b, phase_b = unbounded.get(gateset, swap, True, 0)
        assert phase_a == phase_b
        assert [str(g) for g in circuit_a] == [str(g) for g in circuit_b]

    def test_cache_key_rounds_float_noise(self):
        swap = standard_gate_unitary("SWAP")
        assert cache_key(swap) == cache_key(swap + 1e-15)
        assert cache_key(swap) != cache_key(swap + 1e-9)

    def test_lookup_insert_compose_to_get(self):
        """The split lookup/insert API the two-phase walk uses must be
        behaviourally identical to the original get()."""
        gateset = get_gateset("CNOT")
        swap = standard_gate_unitary("SWAP")
        split, fused = DecomposeCache(), DecomposeCache()
        key = cache_key(swap)
        assert split.lookup(gateset, key, False) is None
        split.insert(gateset, key, False, gateset.decompose(swap, solve=False))
        hit = split.lookup(gateset, key, False)
        assert hit is not None
        fused.get(gateset, swap, False, 0)
        fused.get(gateset, swap, False, 0)
        assert split.stats() == fused.stats()


def _two_qubit_circuit():
    """Repeated and unique blocks interleaved, to exercise dedupe."""
    c = Circuit(4)
    hot = pauli_exponential(0.5, 0.3, 0.2)
    c.append(Gate("APP2Q", (0, 1), matrix=hot))
    c.append(Gate("APP2Q", (2, 3), matrix=pauli_exponential(0, 0, 0.8)))
    c.append(Gate("APP2Q", (1, 2), matrix=hot))
    c.append(Gate("SWAP", (0, 1)))
    c.append(Gate("APP2Q", (0, 1), matrix=pauli_exponential(0.1, 0.0, 0.4)))
    c.append(Gate("APP2Q", (2, 3), matrix=hot))
    c.append(Gate("APP1Q", (0,), matrix=standard_gate_unitary("H")))
    return c


def _haar_brickwork():
    """Four brickwork layers of unique Haar blocks on 12 qubits: no
    repeats for the dedupe phase, so every block is synthesised."""
    rng = np.random.default_rng(7)
    c = Circuit(12)
    for layer in range(4):
        for a in range(layer % 2, 11, 2):
            c.append(Gate("APP2Q", (a, a + 1), matrix=random_unitary(4, rng)))
    return c


def _circuits_identical(a: Circuit, b: Circuit) -> bool:
    if len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if (ga.name != gb.name or ga.qubits != gb.qubits
                or ga.params != gb.params):
            return False
        ma = None if ga.matrix is None else ga.matrix.tobytes()
        mb = None if gb.matrix is None else gb.matrix.tobytes()
        if ma != mb:
            return False
    return True


class TestTwoPhaseCacheRegimes:
    """The batched two-phase walk under degenerate cache configurations.

    ``maxsize=0`` stores nothing, so every repeat of a block re-misses;
    eviction-boundary sizes evict entries *between* the plan and emission
    phases of a single call.  In both regimes the emitted circuit must
    stay bit-identical to the scalar reference walk, which hits exactly
    the same regimes gate by gate.
    """

    @pytest.mark.parametrize("build", [_two_qubit_circuit, _haar_brickwork])
    def test_maxsize_zero_matches_reference(self, build):
        gateset = get_gateset("CNOT")
        circuit = build()
        batched = decompose_circuit(circuit, gateset,
                                    cache=DecomposeCache(maxsize=0))
        reference = decompose_circuit_reference(
            circuit, gateset, cache=DecomposeCache(maxsize=0))
        assert _circuits_identical(batched, reference)

    def test_maxsize_zero_counts_every_occurrence_as_miss(self):
        gateset = get_gateset("CNOT")
        circuit = _two_qubit_circuit()
        cache = DecomposeCache(maxsize=0)
        decompose_circuit(circuit, gateset, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 6   # all six 2q occurrences re-miss
        assert len(cache) == 0

    def test_eviction_boundary_sizes_match_reference(self):
        gateset = get_gateset("CNOT")
        circuit = _two_qubit_circuit()
        # 4 unique blocks in the circuit: sizes below, at, and above.
        for maxsize in (1, 2, 3, 4, 5):
            batched = decompose_circuit(
                circuit, gateset, cache=DecomposeCache(maxsize=maxsize))
            reference = decompose_circuit_reference(
                circuit, gateset, cache=DecomposeCache(maxsize=maxsize))
            assert _circuits_identical(batched, reference), maxsize

    def test_second_call_hits_across_phases(self):
        gateset = get_gateset("CNOT")
        circuit = _two_qubit_circuit()
        cache = DecomposeCache()
        first = decompose_circuit(circuit, gateset, cache=cache)
        misses_after_first = cache.misses
        second = decompose_circuit(circuit, gateset, cache=cache)
        assert cache.misses == misses_after_first  # all blocks now cached
        assert _circuits_identical(first, second)
