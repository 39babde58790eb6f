"""Equivalence tests for the incremental routing engine.

The incremental candidate-scoring engine (per-logical `_CostIndex`
deltas + pair-keyed `_DressIndex`) is pinned *bit-for-bit* (`==`, not
`isclose`) against the retained scalar references
(`_remaining_cost` rescans, `_find_dressable` list scans) on randomized
steps and devices.  The index works on the device's scaled-integer
distance rows, so the delta-updated running total is exact integer
arithmetic on hop-count *and* dyadically weighted devices alike -- same
candidate scores, same tie-breaks, same RNG draws, same routed problem.
Covered shapes: square grids with and without spare qubits, duplicate-
pair (un-unified) operator lists, dress on/off, every criteria order
including the noise-aware "error" criterion, and dyadic edge-weighted
grids; mirrors ``tests/mapping/test_delta_kernel.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import (
    QubitMap,
    _CostIndex,
    _MapMirror,
    _remaining_cost,
    route,
)
from repro.devices.library import grid
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep, TwoQubitOperator
from repro.perf_smoke import routed_equal

#: Dyadic edge weights: exact in float64 and cheap to scale (x2).
DYADIC_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


def with_dyadic_weights(device, seed: int):
    """The same topology with random dyadic edge weights attached."""
    rng = np.random.default_rng(seed)
    weights = {
        edge: float(DYADIC_WEIGHTS[int(rng.integers(len(DYADIC_WEIGHTS)))])
        for edge in device.edges
    }
    return Device(f"{device.name}-weighted", device.n_qubits, device.edges,
                  edge_errors=device.edge_errors, edge_weights=weights)

CRITERIA_ORDERS = (
    ("count",),
    ("count", "depth"),
    ("count", "depth", "dress"),
    ("dress", "count", "depth"),
    ("depth", "dress", "count"),
    ("count", "error", "depth", "dress"),
    ("error", "count"),
)


def random_problem(seed: int):
    """A random step + square-grid device + initial placement.

    Every third seed leaves no spare qubits (logical count == device
    size); every fifth keeps duplicate interaction pairs (an un-unified
    step).  Every second device carries random edge errors so criteria
    orders with ``"error"`` are exercised.
    """
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 5))
    cols = int(rng.integers(2, 5))
    device = grid(rows, cols)
    if seed % 2 == 0:
        from repro.noise.device_noise import with_random_edge_errors

        device = with_random_edge_errors(device, seed=seed)
    m = device.n_qubits
    n = m if seed % 3 == 0 else int(rng.integers(2, m + 1))
    n_ops = int(rng.integers(1, 2 * n + 1))
    ops = []
    for k in range(n_ops):
        u, v = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
        ops.append(TwoQubitOperator((u, v), np.eye(4), label=f"g{k}"))
    if seed % 5 != 0:
        # unify-style unique pairs (the usual router input)
        seen, unique = set(), []
        for op in ops:
            if op.qubits not in seen:
                seen.add(op.qubits)
                unique.append(op)
        ops = unique
    step = TrotterStep(n, ops, [])
    initial = np.array(rng.permutation(m)[:n])
    dress = bool(rng.integers(2))
    criteria = CRITERIA_ORDERS[int(rng.integers(len(CRITERIA_ORDERS)))]
    if "error" in criteria and not device.edge_errors:
        criteria = tuple(c for c in criteria if c != "error")
    return step, device, initial, dress, criteria


class TestIncrementalVsReferenceRoute:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_routed_problems_identical(self, seed):
        """The full routed trajectory is pinned engine-to-engine."""
        step, device, initial, dress, criteria = random_problem(seed)
        kwargs = dict(seed=seed % 17, dress=dress, criteria=criteria)
        incremental = route(step, device, initial,
                            engine="incremental", **kwargs)
        reference = route(step, device, initial,
                          engine="reference", **kwargs)
        assert routed_equal(incremental, reference)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_auto_engine_matches_reference_on_hop_devices(self, seed):
        step, device, initial, dress, criteria = random_problem(seed)
        assert device.integer_distances
        auto = route(step, device, initial, seed=1, dress=dress,
                     criteria=criteria)
        reference = route(step, device, initial, seed=1, dress=dress,
                          criteria=criteria, engine="reference")
        assert routed_equal(auto, reference)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_weighted_devices_identical(self, seed):
        """Dyadic edge weights: the scaled-integer cost rows keep the
        incremental engine bit-identical to the float reference."""
        step, device, initial, dress, criteria = random_problem(seed)
        device = with_dyadic_weights(device, seed + 7)
        kwargs = dict(seed=seed % 17, dress=dress, criteria=criteria)
        incremental = route(step, device, initial,
                            engine="incremental", **kwargs)
        reference = route(step, device, initial,
                          engine="reference", **kwargs)
        assert routed_equal(incremental, reference)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_auto_engine_is_incremental_on_weighted_devices(self, seed):
        """ROADMAP leftover: auto no longer falls back to the scalar
        rescan just because the device carries edge weights."""
        step, device, initial, dress, criteria = random_problem(seed)
        device = with_dyadic_weights(device, seed + 7)
        assert device.scaled_integer_distances is not None
        auto = route(step, device, initial, seed=1, dress=dress,
                     criteria=criteria)
        incremental = route(step, device, initial, seed=1, dress=dress,
                            criteria=criteria, engine="incremental")
        assert routed_equal(auto, incremental)


class TestCostIndexDeltas:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_candidate_cost_matches_scalar_rescan(self, seed):
        """candidate_cost == _remaining_cost of the trial map, bit for
        bit, across a random swap walk with random op removals."""
        step, device, initial, _, _ = random_problem(seed)
        rng = np.random.default_rng(seed + 1)
        qmap = QubitMap.from_assignment(initial, n_physical=device.n_qubits)
        unrouted = list(step.two_qubit_ops)
        mirror = _MapMirror(qmap)
        index = _CostIndex(device, qmap, unrouted, mirror)
        edges = list(device.edges)
        for _ in range(8):
            assert index.total == _remaining_cost(device, qmap, unrouted)
            for edge in edges:
                trial = qmap.after_swap(edge)
                assert index.candidate_cost(edge) == \
                    _remaining_cost(device, trial, unrouted)   # bit-for-bit
            # walk: commit a random edge, sometimes absorb an operator
            edge = edges[int(rng.integers(len(edges)))]
            index.commit(edge)
            qmap = qmap.after_swap(edge)
            mirror.apply_swap(edge)
            if unrouted and rng.integers(2):
                op = unrouted.pop(int(rng.integers(len(unrouted))))
                u, v = op.qubits
                index.discard(op, qmap.physical(u), qmap.physical(v))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_weighted_candidate_cost_is_scaled_rescan(self, seed):
        """On a dyadically weighted device the integer candidate cost
        equals the float rescan times the scale, exactly."""
        step, device, initial, _, _ = random_problem(seed)
        device = with_dyadic_weights(device, seed + 7)
        qmap = QubitMap.from_assignment(initial, n_physical=device.n_qubits)
        unrouted = list(step.two_qubit_ops)
        mirror = _MapMirror(qmap)
        index = _CostIndex(device, qmap, unrouted, mirror)
        scale = index.scale
        assert index.total == _remaining_cost(device, qmap, unrouted) * scale
        for edge in device.edges:
            trial = qmap.after_swap(edge)
            assert index.candidate_cost(edge) == \
                _remaining_cost(device, trial, unrouted) * scale


class TestErrorCriterionValidation:
    def test_error_without_edge_errors_rejected(self):
        step = TrotterStep(2, [TwoQubitOperator((0, 1), np.eye(4))], [])
        device = grid(2, 2)
        assert not device.edge_errors
        with pytest.raises(ValueError, match="edge-error"):
            route(step, device, np.arange(2), criteria=("count", "error"))

    def test_rejected_even_when_nothing_to_route(self):
        """The silent-no-op configuration fails loudly up front, not
        only once a SWAP has to be scored."""
        step = TrotterStep(2, [], [])
        with pytest.raises(ValueError, match="edge-error"):
            route(step, grid(2, 2), np.arange(2), criteria=("error",))

    def test_error_with_edge_errors_accepted(self):
        from repro.noise.device_noise import with_random_edge_errors

        step = TrotterStep(2, [TwoQubitOperator((0, 1), np.eye(4))], [])
        device = with_random_edge_errors(grid(2, 2), seed=0)
        routed = route(step, device, np.arange(2),
                       criteria=("count", "error"))
        assert routed.n_swaps == 0


class TestUnknownEngineRejected:
    def test_bogus_engine(self):
        step = TrotterStep(2, [TwoQubitOperator((0, 1), np.eye(4))], [])
        with pytest.raises(ValueError, match="engine"):
            route(step, grid(2, 2), np.arange(2), engine="bogus")
