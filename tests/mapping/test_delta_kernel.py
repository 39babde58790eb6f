"""Equivalence tests for the vectorized QAP neighbourhood kernels.

Every vectorized entry point is pinned *bit-for-bit* (`==`, not
`isclose`) against the retained scalar reference implementations on
randomized integer-valued instances: the flows and distances are
integers, so every float64 sum is exact and the vectorized evaluation
order cannot change a single bit.  Covered: the single-move
`swap_delta`, and the gain matrix (`gain_matrix`, `half_deltas`, the
rank-1 `update_gain`), including a walk that mixes swap and relocation
moves, plus the two searches built on it -- lockstep Tabu and GRASP's
first-improvement descent.

Covered shapes: square instances (no spare locations), spare-qubit
devices, and zero-flow rows (isolated qubits).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mapping.qap import QAPInstance
from repro.mapping.tabu import (
    gain_matrix,
    half_deltas,
    tabu_search,
    tabu_trials,
    update_gain,
)


def random_instance(seed: int) -> tuple[QAPInstance, np.ndarray, np.ndarray]:
    """A random integer-valued instance, its assignment and free list.

    Every third seed makes the instance square (``m == n``, no free
    locations); every fifth zeroes one flow row/column (an isolated
    qubit).  Distances are symmetric positive integers with a zero
    diagonal -- the kernel needs no triangle inequality.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = n if seed % 3 == 0 else n + int(rng.integers(1, 6))
    flow = rng.integers(0, 7, size=(n, n)).astype(float)
    flow = flow + flow.T
    np.fill_diagonal(flow, 0.0)
    if seed % 5 == 0:
        isolated = int(rng.integers(n))
        flow[isolated, :] = 0.0
        flow[:, isolated] = 0.0
    distance = rng.integers(1, 10, size=(m, m)).astype(float)
    distance = distance + distance.T
    np.fill_diagonal(distance, 0.0)
    instance = QAPInstance(flow, distance)
    assignment = np.array(rng.permutation(m)[:n])
    free = np.array(sorted(set(range(m)) - set(assignment.tolist())),
                    dtype=int)
    return instance, assignment, free


class TestSwapDeltas:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_single_probe_matches_scalar_reference(self, seed):
        instance, assignment, _ = random_instance(seed)
        n = instance.n_logical
        rng = np.random.default_rng(seed + 1)
        i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
        assert instance.swap_delta(assignment, i, j) == \
            instance.swap_delta_reference(assignment, i, j)


def full_deltas(instance, assignment, free):
    """Single-trial deltas off the gain kernel, at full scale."""
    gain = gain_matrix(instance, assignment[None])
    swaps, relocations = half_deltas(instance, gain, assignment[None],
                                     free[None])
    return 2.0 * swaps[0], 2.0 * relocations[0]


def assert_matches_references(instance, assignment, free):
    swaps, relocations = full_deltas(instance, assignment, free)
    n = instance.n_logical
    assert relocations.shape == (n, len(free))
    for i in range(n):
        assert swaps[i, i] == 0.0
        for j in range(n):
            if i != j:
                assert swaps[i, j] == instance.swap_delta_reference(
                    assignment, i, j)                     # bit-for-bit
        for idx, loc in enumerate(free):
            assert relocations[i, idx] == instance.relocate_delta_reference(
                assignment, i, int(loc))


class TestGainKernel:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_deltas_match_scalar_references(self, seed):
        instance, assignment, free = random_instance(seed)
        assert_matches_references(instance, assignment, free)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mixed_move_walk_never_drifts(self, seed):
        """A gain matrix carried through swaps and relocations by rank-1
        updates equals a fresh one and keeps scoring every move exactly;
        the accumulated deltas reproduce the recomputed cost."""
        instance, assignment, free = random_instance(seed)
        flow = instance.flow
        n = instance.n_logical
        rng = np.random.default_rng(seed + 5)
        gain = gain_matrix(instance, assignment[None])
        cost = instance.cost(assignment)
        for _ in range(8):
            swaps, relocations = half_deltas(instance, gain,
                                             assignment[None], free[None])
            i = int(rng.integers(n))
            old = int(assignment[i])
            if len(free) and rng.random() < 0.5:
                idx = int(rng.integers(len(free)))
                new, weight = int(free[idx]), flow[i]
                cost += 2.0 * relocations[0, i, idx]
                free[idx] = old
                free.sort()
            else:
                j = int(rng.choice([q for q in range(n) if q != i]))
                new, weight = int(assignment[j]), flow[i] - flow[j]
                cost += 2.0 * swaps[0, i, j]
                assignment[j] = old
            assignment[i] = new
            update_gain(instance, gain, np.array([0]), weight[None],
                        np.array([old]), np.array([new]))
            assert np.array_equal(gain, gain_matrix(instance,
                                                    assignment[None]))
            assert cost == instance.cost(assignment)     # exact, integers
        assert_matches_references(instance, assignment, free)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_stacked_trials_score_independently(self, seed):
        """Each slice of a stacked kernel equals its single-trial run."""
        instance, _, _ = random_instance(seed)
        n, m = instance.n_logical, instance.n_physical
        rng = np.random.default_rng(seed + 6)
        stack = np.array([rng.permutation(m)[:n] for _ in range(3)])
        free = np.array([np.setdiff1d(np.arange(m), row) for row in stack],
                        dtype=int).reshape(3, m - n)
        swaps, relocations = half_deltas(
            instance, gain_matrix(instance, stack), stack, free)
        for t in range(3):
            alone = full_deltas(instance, stack[t], free[t])
            assert np.array_equal(2.0 * swaps[t], alone[0])
            assert np.array_equal(2.0 * relocations[t], alone[1])


class TestLockstepTrials:
    @given(st.integers(0, 10**6))
    @example(6).via("two trials stop early, two run to the cap")
    @example(391).via("spare qubit; stops at 7, 6, 104 and 28")
    @example(1995).via("spare qubits; stops at 29, 10, 94, cap 101")
    @settings(max_examples=40, deadline=None)
    def test_lockstep_equals_one_trial_calls(self, seed):
        """Trials that stop early (tiny tenure, small instances) leave
        their siblings' trajectories untouched."""
        instance, _, _ = random_instance(seed)
        rng = np.random.default_rng(seed + 7)
        kwargs = {"max_iterations": int(rng.integers(1, 120)),
                  "tenure": int(rng.integers(1, 8))}
        seeds = [seed + 1000 * t for t in range(4)]
        lockstep = tabu_trials(instance, seeds, **kwargs)
        for s, result in zip(seeds, lockstep):
            alone = tabu_search(instance, seed=s, **kwargs)
            assert np.array_equal(result.assignment, alone.assignment)
            assert (result.cost, result.iterations) == \
                (alone.cost, alone.iterations)
            assert result.cost == instance.cost(result.assignment)


class TestGraspLocalSearchEquivalence:
    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_descent_path_matches_scalar_first_improvement(self, seed):
        """The vectorized first-improvement descent replays the old
        scalar scan exactly: same probe order, same applied swaps, same
        final assignment."""
        from repro.mapping.grasp import _local_search

        instance, assignment, _ = random_instance(seed)
        n = instance.n_logical

        reference = assignment.copy()
        ref_cost = instance.cost(reference)
        improved = True
        while improved:                      # the pre-vectorization loop
            improved = False
            for i in range(n):
                for j in range(i + 1, n):
                    delta = instance.swap_delta_reference(reference, i, j)
                    if delta < -1e-12:
                        reference[i], reference[j] = (
                            reference[j], reference[i]
                        )
                        ref_cost += delta
                        improved = True

        result, cost = _local_search(instance, assignment.copy())
        assert np.array_equal(result, reference)
        assert cost == float(ref_cost)
