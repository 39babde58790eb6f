"""IC-QAOA's commutation guard: the stacked commutator keeps every verdict.

:func:`_all_commuting_reference` is the pair-at-a-time check the guard
used before it stacked all overlapping pairs into one batched commutator:
each pair is embedded into a dense 8x8 unitary on its sorted joint
support.  The stacked guard must give its verdict on every registry
benchmark, on hand-built pairs in every qubit layout and on symbolic
steps.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import BENCHMARKS
from repro.analysis.harness import build_step, build_symbolic_step
from repro.baselines.qaoa_ic import _all_commuting
from repro.core.unify import unify_circuit_operators
from repro.hamiltonians.trotter import TrotterStep, TwoQubitOperator
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate
from repro.quantum.params import probe_binding

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}
#: The three pair layouts on three qubits, in both list orders.
LAYOUTS = tuple(itertools.permutations(((0, 1), (1, 2), (0, 2)), 2))


def _all_commuting_reference(step: TrotterStep) -> bool:
    if step.is_symbolic:
        step = step.bind(probe_binding(step.parameters()))
    ops = step.two_qubit_ops
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            shared = set(a.pair) & set(b.pair)
            if not shared or a.pair == b.pair:
                continue
            joint = sorted(set(a.pair) | set(b.pair))
            ua = _embed(a.unitary, a.pair, joint)
            ub = _embed(b.unitary, b.pair, joint)
            if np.abs(ua @ ub - ub @ ua).max() > 1e-9:
                return False
    return True


def _embed(matrix: np.ndarray, pair: tuple[int, int],
           joint: list[int]) -> np.ndarray:
    circuit = Circuit(len(joint))
    local = tuple(joint.index(q) for q in pair)
    circuit.append(Gate("APP2Q", local, matrix=matrix))
    return circuit.unitary()


def _exp(generator: str, angle: float) -> np.ndarray:
    """``exp(i angle P1 (x) P2)`` for a two-letter Pauli generator."""
    first, second = (_PAULI[letter] for letter in generator)
    return sla.expm(1j * angle * np.kron(first, second))


def _step(*ops: tuple[tuple[int, int], np.ndarray]) -> TrotterStep:
    return TrotterStep(3, [TwoQubitOperator(pair, unitary, label=f"op{i}")
                           for i, (pair, unitary) in enumerate(ops)])


def _registry_cases():
    for name in BENCHMARKS:
        for n in range(4, 13):
            try:
                build_step(name, n, 0)
            except ValueError:
                continue  # no instance at this size (odd regular graphs)
            yield name, n


@pytest.mark.parametrize("name,n", list(_registry_cases()))
def test_registry_verdicts(name, n):
    for seed in range(3):
        raw = build_step(name, n, seed)
        for step in (raw, unify_circuit_operators(raw)):
            assert _all_commuting(step) == _all_commuting_reference(step)


def test_registry_covers_both_verdicts():
    verdicts = {_all_commuting(unify_circuit_operators(build_step(b, 8, 0)))
                for b in BENCHMARKS}
    assert verdicts == {True, False}


@pytest.mark.parametrize("layout", LAYOUTS, ids=str)
def test_noncommuting_pair_sharing_one_qubit(layout):
    """``Z (x) X`` then ``Z (x) Z``: the pair commutes only where the
    shared qubit carries the first operator's ``Z``."""
    (shared,) = set(layout[0]) & set(layout[1])
    step = _step((layout[0], _exp("ZX", 0.3)), (layout[1], _exp("ZZ", 0.4)))
    assert _all_commuting(step) == _all_commuting_reference(step) \
        == (shared == layout[0][0])


def test_hand_built_verdicts():
    ising = _step(((0, 1), _exp("ZZ", 0.3)), ((1, 2), _exp("ZZ", 0.7)))
    xx_zz = _step(((0, 1), _exp("XX", 0.3)), ((1, 2), _exp("ZZ", 0.7)))
    # sharing both qubits is not an overlap the guard checks
    same_pair = _step(((0, 1), _exp("XX", 0.3)), ((0, 1), _exp("ZZ", 0.7)))
    assert _all_commuting(ising) and _all_commuting_reference(ising)
    assert not _all_commuting(xx_zz) and not _all_commuting_reference(xx_zz)
    assert _all_commuting(same_pair) and _all_commuting_reference(same_pair)


@settings(max_examples=200, deadline=None)
@given(layout=st.sampled_from(LAYOUTS),
       generators=st.tuples(*[st.sampled_from(list(_PAULI))] * 4),
       angles=st.tuples(st.floats(0.1, 1.5), st.floats(0.1, 1.5)))
def test_pauli_pair_verdicts_match(layout, generators, angles):
    first = "".join(generators[:2])
    second = "".join(generators[2:])
    step = _step((layout[0], _exp(first, angles[0])),
                 (layout[1], _exp(second, angles[1])))
    assert _all_commuting(step) == _all_commuting_reference(step)


@pytest.mark.parametrize("name", ["QAOA-REG-3", "NNN_Heisenberg"])
def test_symbolic_step_verdict(name):
    step = unify_circuit_operators(build_symbolic_step(name, 8, 0))
    assert step.is_symbolic
    assert _all_commuting(step) == _all_commuting_reference(step) \
        == name.startswith("QAOA")
