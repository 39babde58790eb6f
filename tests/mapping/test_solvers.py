"""Tests for the Tabu-search, annealing and GRASP QAP solvers and
placements."""

import numpy as np
import pytest

from repro.analysis.harness import build_step
from repro.devices import grid, line, montreal, sycamore
from repro.hamiltonians.models import nnn_heisenberg, nnn_ising
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.annealing import simulated_annealing
from repro.mapping.grasp import grasp_search
from repro.mapping.placement import (
    best_of_k_mapping,
    identity_mapping,
    line_placement,
    random_mapping,
)
from repro.mapping.qap import qap_from_problem
from repro.mapping.tabu import tabu_search


@pytest.fixture
def chain_instance():
    """A chain problem on a line device: identity is optimal."""
    step = trotter_step(nnn_ising(8, seed=0))
    return qap_from_problem(step, line(8))


@pytest.fixture
def montreal_instance():
    step = trotter_step(nnn_heisenberg(10, seed=0))
    return qap_from_problem(step, montreal())


class TestTabu:
    def test_finds_line_optimum(self, chain_instance):
        result = tabu_search(chain_instance, seed=0)
        identity_cost = chain_instance.cost(np.arange(8))
        assert result.cost <= identity_cost + 1e-9

    def test_beats_random(self, montreal_instance):
        result = tabu_search(montreal_instance, seed=0)
        rng = np.random.default_rng(0)
        random_costs = [
            montreal_instance.cost(
                np.array(rng.permutation(27)[:10])
            )
            for _ in range(20)
        ]
        assert result.cost < np.mean(random_costs)

    def test_assignment_injective(self, montreal_instance):
        result = tabu_search(montreal_instance, seed=1)
        assert len(set(result.assignment.tolist())) == 10

    def test_uses_spare_qubits(self, montreal_instance):
        """Relocation moves may leave some physical qubits unused."""
        result = tabu_search(montreal_instance, seed=2)
        assert result.assignment.max() <= 26

    def test_reported_cost_matches(self, montreal_instance):
        result = tabu_search(montreal_instance, seed=3)
        assert np.isclose(
            result.cost, montreal_instance.cost(result.assignment)
        )

    def test_initial_assignment_respected(self, chain_instance):
        initial = np.arange(8)
        result = tabu_search(chain_instance, seed=0, initial=initial)
        assert result.cost <= chain_instance.cost(initial)

    def test_bad_initial_rejected(self, chain_instance):
        with pytest.raises(ValueError):
            tabu_search(chain_instance, initial=np.zeros(8, dtype=int))

    def test_deterministic_given_seed(self, montreal_instance):
        a = tabu_search(montreal_instance, seed=9)
        b = tabu_search(montreal_instance, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_full_run_reports_max_iterations(self, montreal_instance):
        result = tabu_search(montreal_instance, seed=0, max_iterations=37)
        assert result.iterations == 37

    def test_early_break_reports_actual_iterations(self):
        """Regression: an exhausted neighbourhood (every move tabu, no
        aspiration) used to report ``max_iterations`` even though the
        search stopped after a couple of iterations."""
        from repro.mapping.qap import QAPInstance

        instance = QAPInstance(np.zeros((2, 2)),
                               np.array([[0.0, 1.0], [1.0, 0.0]]))
        result = tabu_search(instance, seed=0, max_iterations=500)
        # one zero-delta swap, then the only move is tabu and cannot
        # aspire: the search stops on the second iteration
        assert result.iterations == 2


class TestAnnealing:
    def test_beats_random(self, montreal_instance):
        result = simulated_annealing(montreal_instance, seed=0)
        rng = np.random.default_rng(1)
        random_costs = [
            montreal_instance.cost(np.array(rng.permutation(27)[:10]))
            for _ in range(20)
        ]
        assert result.cost < np.mean(random_costs)

    def test_cost_consistent(self, chain_instance):
        result = simulated_annealing(chain_instance, seed=0)
        assert np.isclose(
            result.cost, chain_instance.cost(result.assignment)
        )


class TestPlacements:
    def test_identity(self):
        assert np.array_equal(identity_mapping(4, line(6)), np.arange(4))

    def test_identity_too_big(self):
        with pytest.raises(ValueError):
            identity_mapping(7, line(6))

    def test_random_injective(self):
        mapping = random_mapping(10, montreal(), seed=4)
        assert len(set(mapping.tolist())) == 10

    def test_line_placement_path(self):
        device = montreal()
        placement = line_placement(10, device)
        assert len(set(placement.tolist())) == 10
        # consecutive placements should mostly be adjacent
        adjacent = sum(
            device.are_neighbors(int(placement[i]), int(placement[i + 1]))
            for i in range(9)
        )
        assert adjacent >= 7

    def test_line_placement_full_device(self):
        placement = line_placement(6, grid(2, 3))
        assert len(set(placement.tolist())) == 6

    def test_best_of_k_improves(self, montreal_instance):
        single = tabu_search(montreal_instance, seed=0)
        best = best_of_k_mapping(montreal_instance, k=5, seed=0)
        assert best.cost <= single.cost

    @pytest.mark.parametrize("k", [0, -2])
    def test_best_of_k_needs_a_trial(self, montreal_instance, k):
        with pytest.raises(ValueError, match="at least 1 trial"):
            best_of_k_mapping(montreal_instance, k=k)


class TestPlacementEdgeCases:
    def test_line_placement_on_star_device(self):
        """A star graph defeats path extension; the fallback must fill in."""
        from repro.devices.topology import Device
        star = Device("star", 6, tuple((0, i) for i in range(1, 6)))
        placement = line_placement(6, star)
        assert len(set(placement.tolist())) == 6

    def test_line_placement_partial(self):
        device = montreal()
        placement = line_placement(3, device)
        assert len(placement) == 3

    def test_best_of_k_with_alternate_solver(self):
        step = trotter_step(nnn_ising(6, seed=0))
        instance = qap_from_problem(step, montreal())
        result = best_of_k_mapping(instance, k=2, seed=0,
                                   solver=grasp_search, iterations=3)
        assert len(set(result.assignment.tolist())) == 6


class TestGraspPin:
    """Full GRASP runs (randomised construction plus the gain-matrix
    local search) replay assignments recorded before the local search
    moved onto the gain matrix."""

    @pytest.mark.parametrize("problem, n, device, cost, assignment", [
        ("NNN_Heisenberg", 16, montreal, 270.0,
         [24, 25, 22, 19, 20, 16, 14, 11, 9, 8, 5, 3, 2, 1, 4, 7]),
        ("QAOA-REG-3", 34, sycamore, 204.0,
         [3, 1, 12, 10, 29, 21, 4, 51, 47, 22, 38, 35, 52, 24, 28, 11, 20,
          49, 39, 50, 42, 16, 41, 32, 15, 31, 5, 40, 30, 14, 18, 13, 19, 0]),
    ])
    def test_replays_recorded_search(self, problem, n, device, cost,
                                     assignment):
        instance = qap_from_problem(build_step(problem, n, 0), device())
        result = grasp_search(instance, seed=3, iterations=5)
        assert result.assignment.tolist() == assignment
        assert (result.cost, result.iterations) == (cost, 5)
