"""Tests for permutation-aware routing (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.routing import QubitMap, route
from repro.core.unify import unify_circuit_operators
from repro.devices import all_to_all, line, montreal
from repro.hamiltonians.models import nnn_heisenberg, nnn_ising
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.placement import identity_mapping


def unified(h):
    return unify_circuit_operators(trotter_step(h))


class TestQubitMap:
    def test_roundtrip(self):
        m = QubitMap.from_assignment(np.array([2, 0, 1]))
        assert m.physical(0) == 2
        assert m.logical(2) == 0
        assert m.logical(5) is None

    def test_after_swap(self):
        m = QubitMap.from_assignment(np.array([0, 1, 2]))
        swapped = m.after_swap((0, 1))
        assert swapped.physical(0) == 1
        assert swapped.physical(1) == 0
        assert swapped.physical(2) == 2

    def test_swap_with_empty_slot(self):
        m = QubitMap({0: 0, 1: 1})       # physical 2 unoccupied
        swapped = m.after_swap((1, 2))
        assert swapped.physical(1) == 2
        assert swapped.logical(1) is None

    def test_swap_involution(self):
        m = QubitMap.from_assignment(np.array([3, 1, 0, 2]))
        assert m.after_swap((0, 3)).after_swap((0, 3)).logical_to_physical \
            == m.logical_to_physical

    def test_unmapped_logical_raises(self):
        m = QubitMap({0: 2, 1: 0})
        with pytest.raises(KeyError):
            m.physical(5)

    def test_from_assignment_with_spare_physicals(self):
        m = QubitMap.from_assignment(np.array([1, 0]), n_physical=4)
        assert m.logical(3) is None
        swapped = m.after_swap((1, 3))          # move into a spare slot
        assert swapped.physical(0) == 3
        assert swapped.logical(1) is None

    def test_equality_and_repr(self):
        a = QubitMap({0: 1, 1: 0})
        b = QubitMap.from_assignment(np.array([1, 0]), n_physical=5)
        assert a == b                            # p2l padding is not content
        assert "QubitMap" in repr(a)

    def test_inverse(self):
        m = QubitMap.from_assignment(np.array([2, 0, 1]))
        assert m.inverse() == {2: 0, 0: 1, 1: 2}


class TestRouting:
    def test_all_to_all_needs_no_swaps(self):
        step = unified(nnn_heisenberg(6, seed=0))
        routed = route(step, all_to_all(6), identity_mapping(6, all_to_all(6)))
        assert routed.n_swaps == 0
        assert len(routed.gates) == len(step.two_qubit_ops)

    def test_all_gates_routed(self):
        step = unified(nnn_heisenberg(8, seed=0))
        device = montreal()
        routed = route(step, device, np.arange(8))
        total = len(routed.gates) + routed.n_dressed
        assert total == len(step.two_qubit_ops)

    def test_routed_gates_are_nn(self):
        """Every gate must be adjacent in the map it is assigned to."""
        step = unified(nnn_heisenberg(8, seed=0))
        device = montreal()
        routed = route(step, device, np.arange(8))
        for gate in routed.gates:
            qmap = routed.maps[gate.map_index]
            u, v = gate.operator.pair
            assert device.are_neighbors(qmap.physical(u), qmap.physical(v))

    def test_maps_evolve_by_swaps(self):
        step = unified(nnn_ising(8, seed=0))
        device = line(8)
        routed = route(step, device, np.arange(8))
        assert len(routed.maps) == routed.n_swaps + 1
        for i, swap in enumerate(routed.swaps):
            expected = routed.maps[i].after_swap(swap.physical_pair)
            assert expected.logical_to_physical == \
                routed.maps[i + 1].logical_to_physical

    def test_swaps_on_hardware_edges(self):
        step = unified(nnn_ising(8, seed=0))
        device = montreal()
        routed = route(step, device, np.arange(8))
        for swap in routed.swaps:
            assert device.are_neighbors(*swap.physical_pair)

    def test_line_chain_nnn_needs_swaps(self):
        """NNN interactions on a line device require SWAPs."""
        step = unified(nnn_ising(6, seed=0))
        routed = route(step, line(6), np.arange(6))
        assert routed.n_swaps > 0

    def test_deterministic_given_seed(self):
        step = unified(nnn_heisenberg(8, seed=0))
        a = route(step, montreal(), np.arange(8), seed=5)
        b = route(step, montreal(), np.arange(8), seed=5)
        assert a.n_swaps == b.n_swaps
        assert [s.physical_pair for s in a.swaps] == \
            [s.physical_pair for s in b.swaps]

    def test_physical_pairs_are_plain_ints(self):
        """Routing artifacts must not leak numpy integer scalars."""
        step = unified(nnn_ising(8, seed=0))
        routed = route(step, line(8), np.arange(8))
        for gate in routed.gates:
            assert all(type(q) is int for q in gate.physical_pair)
        for swap in routed.swaps:
            assert all(type(q) is int for q in swap.physical_pair)

    def test_weighted_device_uses_reference_engine(self):
        """Non-integer (noise-weighted) distances must route exactly as
        the scalar reference: the auto engine falls back to it."""
        from repro.perf_smoke import routed_equal
        from repro.noise.device_noise import (
            with_noise_weighted_distance,
            with_random_edge_errors,
        )

        device = with_noise_weighted_distance(
            with_random_edge_errors(montreal(), seed=3))
        assert not device.integer_distances
        step = unified(nnn_heisenberg(8, seed=0))
        auto = route(step, device, np.arange(8), seed=2)
        reference = route(step, device, np.arange(8), seed=2,
                          engine="reference")
        assert routed_equal(auto, reference)


class TestDressing:
    def test_dressing_absorbs_gates(self):
        step = unified(nnn_heisenberg(8, seed=0))
        routed = route(step, montreal(), np.arange(8), dress=True)
        if routed.n_swaps:
            assert routed.n_dressed > 0

    def test_dressing_disabled(self):
        step = unified(nnn_heisenberg(8, seed=0))
        routed = route(step, montreal(), np.arange(8), dress=False)
        assert routed.n_dressed == 0
        assert len(routed.gates) == len(step.two_qubit_ops)

    def test_dressed_operators_not_double_counted(self):
        step = unified(nnn_heisenberg(8, seed=0))
        routed = route(step, montreal(), np.arange(8), dress=True)
        routed_labels = [g.operator.label for g in routed.gates]
        dressed_labels = [
            s.dressed_with.label for s in routed.swaps if s.is_dressed
        ]
        combined = sorted(routed_labels + dressed_labels)
        assert combined == sorted(op.label for op in step.two_qubit_ops)

    def test_dressed_count_bounded_by_swaps(self):
        step = unified(nnn_heisenberg(10, seed=1))
        routed = route(step, montreal(), np.arange(10))
        assert 0 <= routed.n_dressed <= routed.n_swaps


class TestCriteria:
    def test_count_only_criteria(self):
        step = unified(nnn_heisenberg(8, seed=0))
        routed = route(step, montreal(), np.arange(8),
                       criteria=("count",))
        assert routed.n_swaps > 0  # still converges

    def test_unknown_criterion_rejected(self):
        step = unified(nnn_ising(6, seed=0))
        with pytest.raises(ValueError):
            route(step, line(6), np.arange(6), criteria=("bogus",))

    def test_full_criteria_no_worse_than_count_only(self):
        step = unified(nnn_heisenberg(10, seed=0))
        full = route(step, montreal(), np.arange(10), seed=1)
        count_only = route(step, montreal(), np.arange(10), seed=1,
                           criteria=("count",), dress=False)
        assert full.n_swaps <= count_only.n_swaps + 2
