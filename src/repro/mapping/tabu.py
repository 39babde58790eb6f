"""Tabu search for the QAP (the paper's mapping heuristic, refs [52, 53]).

Standard recency-based Tabu search over the swap neighbourhood:

* a move swaps the physical locations of two logical qubits (when the
  device has spare qubits, a move may also relocate one logical qubit to
  a free physical qubit);
* after a move, re-assigning qubit ``i`` to its old location is tabu for
  ``tenure`` iterations;
* the aspiration criterion admits tabu moves that beat the incumbent.

The neighbourhood is evaluated on the vectorized delta table
(:meth:`QAPInstance.swap_delta_matrix`), refreshed in O(n^2) per
iteration via the Taillard-style incremental updates instead of O(n^2)
scalar probes of O(n) each.  Tabu/aspiration filtering is a boolean
mask and best-move selection a masked argmin that scans the strict
upper triangle in the same ``(i, j)`` lexicographic order as the old
scalar loops, so for integer-valued instances (interaction-count flows,
hop-count distances) the search trajectory -- and therefore the
returned assignment and cost -- is bit-identical, only faster.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.mapping.qap import QAPInstance


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


def tabu_search(instance: QAPInstance, seed: int = 0,
                max_iterations: int | None = None,
                tenure: int | None = None,
                initial: np.ndarray | None = None) -> TabuResult:
    """Minimise the QAP objective; returns the best assignment found."""
    rng = np.random.default_rng(seed)
    n = instance.n_logical
    m = instance.n_physical
    if max_iterations is None:
        max_iterations = max(200, 20 * n)
    if tenure is None:
        tenure = max(5, n // 2)

    if initial is None:
        current = np.array(rng.permutation(m)[:n])
    else:
        current = np.array(initial, dtype=int)
        if len(set(current.tolist())) != n:
            raise ValueError("initial assignment must be injective")
    cost = instance.cost(current)
    best = current.copy()
    best_cost = cost

    # tabu[i, loc] = iteration until which assigning logical i to physical
    # loc is forbidden.
    tabu = np.zeros((n, m), dtype=int)

    free = sorted(set(range(m)) - set(current.tolist()))

    deltas = instance.swap_delta_matrix(current)
    logical = np.arange(n)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)

    performed = max_iterations
    for iteration in range(max_iterations):
        # swap moves between logical qubits: mask out the lower triangle
        # plus tabu moves that fail aspiration, then take the first
        # strict minimum in (i, j) lexicographic order (np.argmin
        # returns the first occurrence, matching the old scalar scan)
        tabu_hit = tabu[logical[:, None], current[None, :]] > iteration
        blocked = (tabu_hit | tabu_hit.T) & (cost + deltas >= best_cost)
        candidates = np.where(upper & ~blocked, deltas, np.inf)
        flat = int(np.argmin(candidates))
        best_delta = candidates.flat[flat]
        best_move = None
        if best_delta < np.inf:
            best_move = ("swap", flat // n, flat % n)
        # relocation moves to free physical qubits (devices larger than
        # the problem); a relocation wins only on a strictly smaller
        # delta, as in the scalar scan order (swaps probed first)
        if free:
            free_arr = np.array(free)
            relocations = instance.relocate_delta_matrix(current, free_arr)
            reloc_tabu = tabu[logical[:, None], free_arr[None, :]] > iteration
            reloc_blocked = reloc_tabu & (cost + relocations >= best_cost)
            reloc_candidates = np.where(reloc_blocked, np.inf, relocations)
            reloc_flat = int(np.argmin(reloc_candidates))
            reloc_delta = reloc_candidates.flat[reloc_flat]
            if reloc_delta < best_delta:
                best_delta = reloc_delta
                best_move = ("move", reloc_flat // len(free),
                             reloc_flat % len(free))
        if best_move is None:
            performed = iteration + 1
            break
        if best_move[0] == "swap":
            _, i, j = best_move
            tabu[i, current[i]] = iteration + tenure
            tabu[j, current[j]] = iteration + tenure
            current[i], current[j] = current[j], current[i]
            instance.update_deltas_after_swap(deltas, current, i, j)
        else:
            _, i, loc_idx = best_move
            tabu[i, current[i]] = iteration + tenure
            old = int(current[i])
            current[i] = free[loc_idx]
            # order-preserving insert instead of re-sorting the whole list
            del free[loc_idx]
            insort(free, old)
            instance.update_deltas_after_relocate(deltas, current, i, old)
        cost += float(best_delta)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = current.copy()
        # occasional diversification when stuck at zero-delta plateaus
        if best_delta >= 0 and iteration % (4 * tenure) == 4 * tenure - 1:
            i, j = rng.choice(n, size=2, replace=False)
            i, j = int(i), int(j)
            cost += float(deltas[i, j])
            current[i], current[j] = current[j], current[i]
            instance.update_deltas_after_swap(deltas, current, i, j)
    return TabuResult(best, float(best_cost), performed)

