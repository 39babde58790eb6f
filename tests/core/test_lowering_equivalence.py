"""The one-walk lowering is byte-identical to the lower-then-fuse walk.

``decompose_circuit`` feeds every single-qubit matrix straight into its
qubit's pending run, while ``decompose_circuit_reference`` builds the
unfused circuit and fuses it afterwards.  Random application circuits on
all four gate sets -- with phase-only runs, runs trailing off the end of
the circuit, template-carrying gates and non-complex128 matrices -- must
lower to the same gates on both: names, qubits, params, matrix bytes and
meta.  The same circuits pin the one metrics walk to the three walks it
replaced, and the shared placeholder blocks to their pristine state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decompose import (
    DecomposeCache,
    cache_key,
    decompose_circuit,
    decompose_circuit_reference,
)
from repro.core.metrics import CircuitMetrics
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate
from repro.quantum.transforms import (
    merge_single_qubit_gates,
    merge_single_qubit_gates_reference,
)
from repro.quantum.unitaries import random_unitary
from repro.synthesis.gateset import GATESETS, _structural_circuit
from repro.synthesis.templates import TemplateCache

# template-carrying blocks: equal template keys must mean equal matrices
_TEMPLATES = [
    ((("ZZ",),), (0.3 + 0.2 * i,), bool(i % 2), False)
    for i in range(3)
]
_TEMPLATE_MATRICES = [random_unitary(4, np.random.default_rng(100 + i))
                      for i in range(3)]

ONE_QUBIT_KINDS = ("random", "phase", "hadamard", "complex64", "named")
TWO_QUBIT_KINDS = ("random", "swap", "cnot", "template")


def _one_qubit_gate(kind: str, qubit: int, rng) -> Gate:
    if kind == "random":
        return Gate("APP1Q", (qubit,), matrix=random_unitary(2, rng))
    if kind == "phase":        # a run of these folds to a dropped phase
        angle = rng.uniform(0, 2 * math.pi)
        return Gate("APP1Q", (qubit,),
                    matrix=np.exp(1j * angle) * np.eye(2, dtype=complex))
    if kind == "hadamard":     # H H is the identity: a phase-only run
        return Gate("H", (qubit,))
    if kind == "complex64":    # folds on the scalar path
        return Gate("APP1Q", (qubit,),
                    matrix=random_unitary(2, rng).astype(np.complex64))
    return Gate("RZ", (qubit,), params=(rng.uniform(-3, 3),))


def _two_qubit_gate(kind: str, pair: tuple[int, int], rng) -> Gate:
    if kind == "random":
        return Gate("APP2Q", pair, matrix=random_unitary(4, rng))
    if kind == "swap":
        return Gate("SWAP", pair)
    if kind == "cnot":
        return Gate("CNOT", pair)
    index = int(rng.integers(len(_TEMPLATES)))
    return Gate("APP2Q", pair, matrix=_TEMPLATE_MATRICES[index],
                meta={"template": _TEMPLATES[index], "label": index})


@st.composite
def app_circuits(draw) -> Circuit:
    n_qubits = draw(st.integers(2, 5))
    qubit = st.integers(0, n_qubits - 1)
    specs = draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(ONE_QUBIT_KINDS), qubit, qubit),
            st.tuples(st.sampled_from(TWO_QUBIT_KINDS), qubit, qubit)),
        max_size=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = Circuit(n_qubits)
    for kind, a, b in specs:
        if kind in ONE_QUBIT_KINDS and draw(st.booleans()):
            circuit.append(_one_qubit_gate(kind, a, rng))
        elif kind in TWO_QUBIT_KINDS:
            pair = (a, b) if a != b else (a, (a + 1) % n_qubits)
            circuit.append(_two_qubit_gate(kind, pair, rng))
        else:                  # a repeated run: phase pairs cancel
            circuit.append(_one_qubit_gate(kind, a, rng))
            circuit.append(_one_qubit_gate(kind, a, rng))
    return circuit


def _gates_identical(a: Circuit, b: Circuit) -> bool:
    if a.n_qubits != b.n_qubits or len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if (ga.name, ga.qubits, ga.params, ga.meta) != \
                (gb.name, gb.qubits, gb.params, gb.meta):
            return False
        if (ga.matrix is None) != (gb.matrix is None):
            return False
        if ga.matrix is not None and (
                ga.matrix.dtype != gb.matrix.dtype
                or ga.matrix.tobytes() != gb.matrix.tobytes()):
            return False
    return True


def _lower(decompose, circuit, gateset, **kwargs):
    cache, templates = DecomposeCache(), TemplateCache()
    lowered = decompose(circuit, gateset, cache=cache, templates=templates,
                        **kwargs)
    return lowered, cache.stats(), templates.stats()


@pytest.mark.parametrize("gateset", sorted(GATESETS))
@settings(max_examples=60, deadline=None)
@given(circuit=app_circuits())
def test_one_walk_matches_reference(gateset, circuit):
    gateset = GATESETS[gateset]
    fast = _lower(decompose_circuit, circuit, gateset)
    reference = _lower(decompose_circuit_reference, circuit, gateset)
    assert _gates_identical(fast[0], reference[0])
    assert fast[1:] == reference[1:]


@settings(max_examples=100, deadline=None)
@given(circuit=app_circuits())
def test_merge_matches_scalar_reference(circuit):
    assert _gates_identical(merge_single_qubit_gates(circuit),
                            merge_single_qubit_gates_reference(circuit))


def _three_walk_metrics(circuit: Circuit) -> tuple[int, int, int]:
    """The count and the two ASAP depth walks ``from_circuit`` used to
    make, kept here as the oracle."""
    frontier = [0] * circuit.n_qubits
    layer_has_2q: dict[int, bool] = {}
    for gate in circuit.gates:
        if not gate.qubits:
            continue
        start = max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = start + 1
        if gate.n_qubits >= 2:
            layer_has_2q[start] = True
        else:
            layer_has_2q.setdefault(start, False)
    depth = max(layer_has_2q) + 1 if layer_has_2q else 0
    two_qubit_depth = sum(1 for has in layer_has_2q.values() if has)
    return (sum(1 for g in circuit.gates if g.n_qubits >= 2), depth,
            two_qubit_depth)


@settings(max_examples=150, deadline=None)
@given(circuit=app_circuits(), extra=st.lists(
    st.sampled_from([(), (0, 1, 2), (1,)]), max_size=4))
def test_one_metrics_walk_matches_three(circuit, extra):
    for qubits in extra:       # gates on no qubits and on three qubits
        if max(qubits, default=0) < circuit.n_qubits:
            circuit.append(Gate("X3" if len(qubits) == 3 else "G",
                                qubits))
    n_two_qubit, depth, two_qubit_depth = _three_walk_metrics(circuit)
    metrics = CircuitMetrics.from_circuit(circuit)
    assert (metrics.n_two_qubit_gates, metrics.total_depth,
            metrics.two_qubit_depth) == (n_two_qubit, depth,
                                         two_qubit_depth)
    assert circuit.depth() == depth
    assert circuit.depth(two_qubit_only=True) == two_qubit_depth
    assert circuit.two_qubit_depth() == two_qubit_depth


@pytest.mark.parametrize("basis", ["SYC", "ISWAP"])
def test_shared_placeholder_survives_emission(basis):
    gateset = GATESETS[basis]
    blocks = [_structural_circuit(basis, count) for count in range(4)]
    before = [[(id(g), g.name, g.qubits, g.matrix is None
                or g.matrix.tobytes()) for g in block] for block in blocks]
    rng = np.random.default_rng(3)
    circuit = Circuit(3)
    for pair in [(0, 1), (1, 2), (0, 1)]:
        circuit.append(Gate("APP2Q", pair, matrix=random_unitary(4, rng)))
        circuit.append(Gate("SWAP", pair))
    circuit.append(Gate("H", (0,)))
    cache, templates = DecomposeCache(), TemplateCache()
    first = decompose_circuit(circuit, gateset, cache=cache,
                              templates=templates)
    second = decompose_circuit(circuit, gateset, cache=cache,
                               templates=templates)
    assert _gates_identical(first, second)
    assert cache.hits > 0
    after = [[(id(g), g.name, g.qubits, g.matrix is None
               or g.matrix.tobytes()) for g in block] for block in blocks]
    assert after == before
    for block in blocks:
        assert isinstance(block.gates, tuple)
        for gate in block:
            assert gate.matrix is None or not gate.matrix.flags.writeable
    # every structural decomposition hands out the shared block itself
    swap = Gate("SWAP", (0, 1)).unitary()
    assert gateset.decompose(swap, solve=False)[0] is blocks[3]


def test_block_meta_copied_per_emitted_gate():
    gateset = GATESETS["CNOT"]
    swap = Gate("SWAP", (0, 1)).unitary()
    block = Circuit(2, [Gate("U1Q", (1,), matrix=np.diag([1, 1j])),
                        Gate("CNOT", (1, 0), meta={"origin": "memo"}),
                        Gate("U1Q", (0,), matrix=np.diag([1j, 1]))])
    circuit = Circuit(3, [Gate("SWAP", (2, 0)), Gate("H", (0,)),
                          Gate("SWAP", (1, 2))])
    outputs = []
    for decompose in (decompose_circuit, decompose_circuit_reference):
        cache = DecomposeCache()
        cache.insert(gateset, cache_key(swap), False, (block, 1.0 + 0j))
        outputs.append(decompose(circuit, gateset, cache=cache,
                                 templates=TemplateCache()))
    assert _gates_identical(*outputs)
    emitted = [g for g in outputs[0] if g.name == "CNOT"]
    assert [g.qubits for g in emitted] == [(0, 2), (2, 1)]
    assert all(g.meta == {"origin": "memo"} for g in emitted)
    assert len({id(g.meta) for g in emitted} | {id(block.gates[1].meta)}) \
        == 3
