"""Tests for the generic (order-respecting) baseline compilers."""

import random

import pytest

from repro.baselines.order_respecting import (
    _dependency_dag,
    _route_order_respecting,
    compile_qiskit_like,
    compile_tket_like,
)
from repro.core.routing import QubitMap
from repro.core.unify import unify_circuit_operators
from repro.devices import all_to_all
from repro.hamiltonians.models import nnn_heisenberg, nnn_ising
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.placement import line_placement


def _unified_pairs(n):
    step = unify_circuit_operators(trotter_step(nnn_ising(n, seed=0)))
    return step.pairs()


class TestDependencyDag:
    """The router's in-degree DAG: predecessors first, disjoint frontiers."""

    def test_edges_join_gates_sharing_a_qubit(self):
        pairs = _unified_pairs(6)
        successors, indegree = _dependency_dag(pairs)
        assert indegree[0] == 0
        incoming = [0] * len(pairs)
        for prev, succs in enumerate(successors):
            for succ in succs:
                assert prev < succ
                assert set(pairs[prev]) & set(pairs[succ])
                incoming[succ] += 1
        assert incoming == indegree

    @pytest.mark.parametrize("order_seed", range(5))
    def test_any_counter_order_respects_the_program(self, order_seed):
        """Whatever frontier gate runs next, every earlier gate sharing a
        qubit has run first and the frontier stays qubit-disjoint."""
        pairs = _unified_pairs(8)
        successors, indegree = _dependency_dag(pairs)
        pick = random.Random(order_seed)
        frontier = [i for i, degree in enumerate(indegree) if not degree]
        assert 0 in frontier
        done: set[int] = set()
        while frontier:
            qubits = [q for i in frontier for q in pairs[i]]
            assert len(qubits) == len(set(qubits))
            index = frontier.pop(pick.randrange(len(frontier)))
            assert all(earlier in done for earlier in range(index)
                       if set(pairs[earlier]) & set(pairs[index]))
            done.add(index)
            for succ in successors[index]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    frontier.append(succ)
        assert done == set(range(len(pairs)))


@pytest.mark.parametrize("lookahead,stochastic", [(20, False), (0, True)],
                         ids=["tket", "qiskit"])
def test_after_swap_once_per_inserted_swap(monkeypatch, montreal_device,
                                           lookahead, stochastic):
    """Candidates are scored on arrays; only a chosen SWAP moves the map."""
    calls = []
    after_swap = QubitMap.after_swap

    def counting(self, pair):
        calls.append(pair)
        return after_swap(self, pair)

    monkeypatch.setattr(QubitMap, "after_swap", counting)
    step = unify_circuit_operators(trotter_step(nnn_heisenberg(12, seed=0)))
    _, n_swaps, _, _ = _route_order_respecting(
        step, montreal_device, line_placement(12, montreal_device),
        lookahead=lookahead, stochastic=stochastic, seed=1)
    assert n_swaps > 0
    assert len(calls) == n_swaps


@pytest.mark.parametrize("compiler", [compile_tket_like, compile_qiskit_like],
                         ids=["tket", "qiskit"])
class TestBaselines:
    def test_all_gates_emitted(self, compiler, montreal_device):
        step = trotter_step(nnn_heisenberg(8, seed=0))
        result = compiler(step, montreal_device, "CNOT", seed=1)
        unified = unify_circuit_operators(step)
        app2q = sum(1 for g in result.app_circuit if g.name == "APP2Q")
        assert app2q == len(unified.two_qubit_ops)

    def test_no_dressing(self, compiler, montreal_device):
        step = trotter_step(nnn_heisenberg(8, seed=0))
        result = compiler(step, montreal_device, "CNOT", seed=1)
        assert result.n_dressed == 0

    def test_swaps_on_hardware_edges(self, compiler, montreal_device):
        step = trotter_step(nnn_heisenberg(8, seed=0))
        result = compiler(step, montreal_device, "CNOT", seed=1)
        for gate in result.app_circuit:
            if gate.n_qubits == 2:
                assert montreal_device.are_neighbors(*gate.qubits)

    def test_all_to_all_no_swaps(self, compiler):
        step = trotter_step(nnn_ising(6, seed=0))
        result = compiler(step, all_to_all(6), "CNOT", seed=0)
        assert result.n_swaps == 0

    def test_order_respected(self, compiler, line5):
        """Gates sharing qubits must appear in input order."""
        step = trotter_step(nnn_ising(5, seed=0))
        unified = unify_circuit_operators(step)
        result = compiler(step, line5, "CNOT", seed=0)
        input_order = {op.label: i for i, op in
                       enumerate(unified.two_qubit_ops)}
        # reconstruct logical order of executed gates
        executed = [g.meta["label"] for g in result.app_circuit
                    if g.name == "APP2Q"]
        for a_pos, a in enumerate(executed):
            for b in executed[a_pos + 1:]:
                ia, ib = input_order[a], input_order[b]
                qa = set(unified.two_qubit_ops[ia].pair)
                qb = set(unified.two_qubit_ops[ib].pair)
                if qa & qb:
                    assert ia < ib


class TestRelativeQuality:
    def test_2qan_beats_baselines_on_swaps(self, montreal_device):
        from repro.core.compiler import TwoQANCompiler
        step = trotter_step(nnn_heisenberg(12, seed=0))
        ours = TwoQANCompiler(montreal_device, "CNOT", seed=1).compile(step)
        tket = compile_tket_like(step, montreal_device, "CNOT", seed=1)
        qiskit = compile_qiskit_like(step, montreal_device, "CNOT", seed=1)
        assert ours.metrics.n_two_qubit_gates <= \
            tket.metrics.n_two_qubit_gates
        assert tket.metrics.n_two_qubit_gates < \
            qiskit.metrics.n_two_qubit_gates

    def test_lookahead_helps(self, montreal_device):
        step = trotter_step(nnn_heisenberg(12, seed=0))
        tket = compile_tket_like(step, montreal_device, "CNOT", seed=1)
        qiskit = compile_qiskit_like(step, montreal_device, "CNOT", seed=1)
        assert tket.n_swaps < qiskit.n_swaps
