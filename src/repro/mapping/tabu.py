"""Tabu search for the QAP (the paper's mapping heuristic, refs [52, 53]).

Standard recency-based Tabu search over the swap neighbourhood:

* a move swaps the physical locations of two logical qubits (when the
  device has spare qubits, a move may also relocate one logical qubit to
  a free physical qubit);
* after a move, re-assigning qubit ``i`` to its old location is tabu for
  ``tenure`` iterations;
* the aspiration criterion admits tabu moves that beat the incumbent;
* every ``4 * tenure`` iterations a search on a zero-delta plateau makes
  one random swap to diversify.

The neighbourhood is read off one **gain matrix** per trial,
``G[i, p] = sum_k F[i, k] * D[p, a_k]``: the flow-weighted distance from
physical location ``p`` to logical ``i``'s partners under assignment
``a``.  With zero flow/distance diagonals and a symmetric distance (the
:class:`~repro.mapping.qap.QAPInstance` preconditions), moving ``i`` to
a free location ``p`` changes the cost by ``2 (G[i, p] - G[i, a_i])``
and swapping ``i`` and ``j`` by ``2 (H + H^T + 2 F * D[a][:, a])[i, j]``
with ``H[i, j] = G[i, a_j] - G[i, a_i]``.  A move changes ``G`` by one
rank-1 term, ``(F[:, i] - F[:, j]) (x) (D[:, new_i] - D[:, old_i])``
(``F[:, j]`` dropped for a relocation), so an iteration costs a few
O(n m) array operations and no table is ever rebuilt.  GRASP's local
search (:mod:`repro.mapping.grasp`) reads its swap deltas off the same
kernel.

:func:`tabu_trials` runs several trials in *lockstep*: their gain
matrices are stacked into one ``(k, n, m)`` tensor, so every numpy call
serves all trials, while each trial keeps its own RNG, tabu list, cost,
incumbent and early stop.  :func:`tabu_search` is the 1-trial call of
the same loop.  Best-move selection takes the first strict minimum in
``(i, j)`` lexicographic order for swaps and ``(i, p)`` order for
relocations (physical order is the sorted free-list order), and a
relocation wins only on a strictly smaller delta.  For integer-valued
instances (interaction-count flows, hop-count distances) every entry is
exact, so each trial's trajectory is bit-identical to running it alone
through the scalar reference probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mapping.qap import QAPInstance, validated_assignment


@dataclass
class TabuResult:
    """Best assignment found and its objective value.

    ``iterations`` counts the search iterations actually performed --
    fewer than ``max_iterations`` when the neighbourhood is exhausted
    (every move tabu with no aspiration) and the search stops early.
    """

    assignment: np.ndarray
    cost: float
    iterations: int


def gain_matrix(instance: QAPInstance,
                assignments: np.ndarray) -> np.ndarray:
    """Stacked gain matrices ``G[t, i, p] = sum_k F[i, k] D[p, a[t, k]]``
    for a ``(trials, n)`` stack of assignments."""
    return instance.flow @ instance.distance[assignments]


def half_deltas(instance: QAPInstance, gain: np.ndarray,
                assignments: np.ndarray,
                free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half of every move delta, read off the stacked gain matrices.

    ``free`` is ``(trials, f)``: each trial's free locations.  Returns
    ``(swaps, relocations)``: ``2 * swaps[t, i, j]`` is the cost change
    of swapping logical ``i`` and ``j`` in trial ``t`` (zero diagonal)
    and ``2 * relocations[t, i, l]`` that of moving ``i`` to
    ``free[t, l]``.  Halving is exact, so comparisons and argmin ties
    are those of the full deltas.
    """
    trials, n = assignments.shape
    rows = np.arange(trials * n).reshape(trials, n, 1) * gain.shape[2]
    at = rows + assignments[:, None, :]          # flat index of [t, i, a_tj]
    gain_at = gain.take(at)
    own = np.diagonal(gain_at, axis1=1, axis2=2)[:, :, None]  # G[t, i, a_ti]
    lift = gain_at - own
    swaps = lift + lift.transpose(0, 2, 1)
    swaps += 2.0 * instance.flow * instance.distance[assignments].take(at)
    relocations = gain.take(rows + free[:, None, :]) - own
    return swaps, relocations


def update_gain(instance: QAPInstance, gain: np.ndarray,
                trials: np.ndarray, weight: np.ndarray,
                old: np.ndarray, new: np.ndarray) -> None:
    """Apply one move per listed trial to the stacked gain matrices.

    In trial ``trials[r]`` a logical qubit goes from ``old[r]`` to
    ``new[r]``; ``weight[r]`` is its flow column, minus the partner's
    for a swap (the partner goes the other way).  A rank-1 update.
    """
    distance = instance.distance
    gain[trials] += weight[:, :, None] * (distance[new]
                                          - distance[old])[:, None, :]


def _diversify(instance: QAPInstance, gain: np.ndarray,
               current: np.ndarray, cost: np.ndarray,
               trials: np.ndarray, rngs: list) -> None:
    """One random swap in each listed trial, in place.  Its delta is
    read off the *post-move* gains: a delta scored before the iteration's
    move would be stale."""
    pairs = np.array([rng.choice(instance.n_logical, size=2, replace=False)
                      for rng in rngs])
    a, b = pairs[:, 0], pairs[:, 1]
    swaps, _ = half_deltas(instance, gain[trials], current[trials],
                           np.empty((len(trials), 0), dtype=int))
    cost[trials] += 2.0 * swaps[np.arange(len(trials)), a, b]
    loc_a, loc_b = current[trials, a], current[trials, b]
    current[trials, a], current[trials, b] = loc_b, loc_a
    update_gain(instance, gain, trials, instance.flow[a] - instance.flow[b],
                loc_a, loc_b)


def tabu_search(instance: QAPInstance, seed: int = 0,
                max_iterations: int | None = None,
                tenure: int | None = None,
                initial: np.ndarray | None = None) -> TabuResult:
    """Minimise the QAP objective; returns the best assignment found."""
    return tabu_trials(instance, (seed,), max_iterations=max_iterations,
                       tenure=tenure, initial=initial)[0]


def tabu_trials(instance: QAPInstance, seeds: Sequence[int],
                max_iterations: int | None = None,
                tenure: int | None = None,
                initial: np.ndarray | None = None) -> list[TabuResult]:
    """One independent Tabu search per seed, run in lockstep.

    Result ``t`` is bit-identical to ``tabu_search(instance, seeds[t])``
    with the same keyword arguments.
    """
    n = instance.n_logical
    m = instance.n_physical
    k = len(seeds)
    flow = instance.flow
    if max_iterations is None:
        max_iterations = max(200, 20 * n)
    if tenure is None:
        tenure = max(5, n // 2)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    if initial is None:
        current = np.array([rng.permutation(m)[:n] for rng in rngs])
    else:
        current = np.tile(validated_assignment(initial, n, m), (k, 1))
    cost = np.array([instance.cost(row) for row in current])
    best = current.copy()
    best_cost = cost.copy()
    performed = np.full(k, max_iterations)
    gain = gain_matrix(instance, current)

    # tabu[t, i, loc] = iteration until which trial t may not assign
    # logical i to physical loc
    tabu = np.zeros((k, n, m), dtype=int)
    trial = np.arange(k)
    moving = trial                           # the trials still searching
    rows = np.arange(k * n).reshape(k, n, 1) * m
    not_upper = np.tril(np.ones((n, n), dtype=bool))
    # each trial's free locations, kept in ascending order
    free = np.array([np.setdiff1d(np.arange(m), row) for row in current],
                    dtype=int).reshape(k, m - n)
    diversify_every = 4 * tenure

    for iteration in range(max_iterations):
        swaps, moves = half_deltas(instance, gain, current, free)
        # a tabu move must beat the incumbent (aspiration)
        slack = (0.5 * (best_cost - cost))[:, None, None]
        # swap moves: mask the lower triangle plus tabu moves that fail
        # aspiration, then take the first strict minimum in (i, j)
        # lexicographic order (argmin returns the first occurrence)
        tabu_hit = tabu.take(rows + current[:, None, :]) > iteration
        blocked = tabu_hit | tabu_hit.transpose(0, 2, 1)
        blocked &= swaps >= slack
        blocked |= not_upper
        swaps[blocked] = np.inf
        flat = swaps.reshape(k, -1).argmin(axis=1)
        half = swaps.reshape(k, -1)[trial, flat]
        mover, partner = np.divmod(flat, n)
        # relocation moves to free physical qubits (devices larger than
        # the problem), scanned in ascending physical order; one wins
        # only on a strictly smaller delta.  A relocating qubit is its
        # own partner, so the swap bookkeeping below serves both moves.
        relocate = None
        if free.shape[1]:
            tabu_free = tabu.take(rows + free[:, None, :]) > iteration
            moves[tabu_free & (moves >= slack)] = np.inf
            flat = moves.reshape(k, -1).argmin(axis=1)
            move_half = moves.reshape(k, -1)[trial, flat]
            wins = move_half < half
            if wins.any():
                relocate = wins
                half = np.where(wins, move_half, half)
                relocated, slot = np.divmod(flat, free.shape[1])
                mover = np.where(wins, relocated, mover)
                partner = np.where(wins, relocated, partner)
        delta = 2.0 * half

        stuck = np.isinf(delta[moving])
        if stuck.any():
            performed[moving[stuck]] = iteration + 1
            moving = moving[~stuck]
            if not len(moving):
                break
        i, j = mover[moving], partner[moving]
        # ``left`` is the location j leaves: i's own when relocating
        old, left = current[moving, i], current[moving, j]
        new = left
        weight = flow[i] - flow[j]
        if relocate is not None:
            shifted = relocate[moving]
            new = np.where(shifted, free[moving, slot[moving]], new)
            weight[shifted] = flow[i[shifted]]
            free[moving[shifted], slot[moving[shifted]]] = old[shifted]
            free.sort(axis=1)
        tabu[moving, i, old] = iteration + tenure
        tabu[moving, j, left] = iteration + tenure
        current[moving, j] = old
        current[moving, i] = new
        update_gain(instance, gain, moving, weight, old, new)
        cost[moving] += delta[moving]
        improved = cost < best_cost - 1e-12
        if improved.any():
            best_cost[improved] = cost[improved]
            best[improved] = current[improved]

        # occasional diversification when stuck at zero-delta plateaus
        if iteration % diversify_every == diversify_every - 1:
            plateau = moving[delta[moving] >= 0]
            if plateau.size:
                _diversify(instance, gain, current, cost, plateau,
                           [rngs[t] for t in plateau])
    return [TabuResult(best[t].copy(), float(best_cost[t]),
                       int(performed[t]))
            for t in range(k)]
