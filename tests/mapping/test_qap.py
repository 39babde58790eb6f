"""Tests for the QAP formulation of qubit mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import grid, line, montreal
from repro.hamiltonians.models import nnn_heisenberg, nnn_ising
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.qap import (
    QAPInstance,
    qap_cost,
    qap_from_problem,
    validated_assignment,
)


def small_instance():
    flow = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    distance = line(3).distance
    return QAPInstance(flow, distance)


class TestInstance:
    def test_validation_square(self):
        with pytest.raises(ValueError):
            QAPInstance(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_validation_symmetric(self):
        flow = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            QAPInstance(flow, np.zeros((2, 2)))

    def test_validation_flow_diagonal(self):
        flow = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="flow.*diagonal"):
            QAPInstance(flow, line(2).distance)

    def test_validation_distance_diagonal(self):
        distance = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="distance.*diagonal"):
            QAPInstance(np.zeros((2, 2)), distance)

    def test_validation_distance_symmetric(self):
        distance = np.array([[0.0, 1.0, 2.0],
                             [1.0, 0.0, 1.0],
                             [3.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="distance.*symmetric"):
            QAPInstance(np.zeros((2, 2)), distance)

    @pytest.mark.parametrize("device", [line(5), grid(2, 3), montreal()],
                             ids=lambda device: device.name)
    def test_built_instances_meet_preconditions(self, device):
        step = trotter_step(nnn_heisenberg(5, seed=0))
        inst = qap_from_problem(step, device)
        assert not np.diagonal(inst.flow).any()
        assert not np.diagonal(inst.distance).any()
        assert np.array_equal(inst.distance, inst.distance.T)

    def test_too_many_logical(self):
        with pytest.raises(ValueError):
            QAPInstance(np.zeros((4, 4)), np.zeros((3, 3)))

    def test_cost_identity(self):
        inst = small_instance()
        # identity: pairs (0,1) at distance 1 flow 2, (1,2) dist 1 flow 1
        assert inst.cost(np.array([0, 1, 2])) == 2 * (2 + 1)

    def test_cost_bad_assignment(self):
        inst = small_instance()
        # put interacting qubits far apart
        assert inst.cost(np.array([0, 2, 1])) > inst.cost(
            np.array([0, 1, 2])
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_swap_delta_matches_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        step = trotter_step(nnn_heisenberg(6, seed=0))
        inst = qap_from_problem(step, grid(2, 3))
        assignment = rng.permutation(6)
        i, j = rng.choice(6, size=2, replace=False)
        delta = inst.swap_delta(assignment, int(i), int(j))
        swapped = assignment.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert np.isclose(delta, inst.cost(swapped) - inst.cost(assignment))


class TestFromProblem:
    def test_flow_counts_interactions(self):
        step = trotter_step(nnn_heisenberg(4, seed=0))
        inst = qap_from_problem(step, montreal())
        # three Pauli terms per pair
        assert inst.flow[0, 1] == 3
        assert inst.flow[1, 0] == 3

    def test_too_large_problem(self):
        step = trotter_step(nnn_ising(7, seed=0))
        with pytest.raises(ValueError):
            qap_from_problem(step, grid(2, 3))

    def test_qap_cost_convenience(self):
        step = trotter_step(nnn_ising(4, seed=0))
        cost = qap_cost(step, line(4), np.arange(4))
        assert cost > 0


class TestValidatedAssignment:
    def test_valid_assignment_returned(self):
        placed = validated_assignment([4, 0, 2], 3, 5)
        assert placed.tolist() == [4, 0, 2]

    @pytest.mark.parametrize("assignment", [
        [0, 0, 1],            # two logical qubits on one physical qubit
        [0, 1, 5],            # off the device
        [-1, 0, 1],           # negative index
        [0, 1],               # too short
        [0, 1, 2, 3],         # too long
        [[0, 1, 2]],          # wrong shape
        [0.0, 1.0, 2.0],      # not integers
    ])
    def test_malformed_rejected(self, assignment):
        with pytest.raises(ValueError, match="initial assignment"):
            validated_assignment(assignment, 3, 5)
