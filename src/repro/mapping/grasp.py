"""GRASP for the QAP (the paper's reference [55] alternative heuristic).

Greedy Randomised Adaptive Search Procedure: each iteration builds a
solution with a randomised greedy construction (place the heaviest
remaining flow pair on the closest available location pair, choosing
among the best few candidates at random), then improves it with a
first-improvement 2-swap local search that reads its deltas off Tabu's
gain matrix (:mod:`repro.mapping.tabu`).  Kept deliberately simple -- it
exists to ablate the mapping heuristic choice, not to beat Tabu.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.qap import QAPInstance
from repro.mapping.tabu import (
    TabuResult,
    gain_matrix,
    half_deltas,
    update_gain,
)


def grasp_search(instance: QAPInstance, seed: int = 0,
                 iterations: int = 20, candidate_pool: int = 3,
                 ) -> TabuResult:
    """Minimise the QAP objective with GRASP restarts."""
    rng = np.random.default_rng(seed)
    best: np.ndarray | None = None
    best_cost = np.inf
    for _ in range(iterations):
        assignment = _greedy_randomized_construction(
            instance, rng, candidate_pool
        )
        assignment, cost = _local_search(instance, assignment)
        if cost < best_cost:
            best_cost, best = cost, assignment
    assert best is not None
    return TabuResult(best, float(best_cost), iterations)


def _greedy_randomized_construction(instance: QAPInstance,
                                    rng: np.random.Generator,
                                    pool: int) -> np.ndarray:
    n, m = instance.n_logical, instance.n_physical
    flow, dist = instance.flow, instance.distance
    assignment = np.full(n, -1, dtype=int)
    used: set[int] = set()
    # order logical qubits by total flow (heaviest first)
    order = np.argsort(-flow.sum(axis=1))
    for logical in order:
        placed_partners = [
            k for k in range(n)
            if assignment[k] >= 0 and flow[logical, k] > 0
        ]
        candidates = [loc for loc in range(m) if loc not in used]
        if placed_partners:
            # bind the per-iteration values as defaults: the closure is
            # consumed inside this iteration, but late binding is the
            # classic loop-closure trap (flake8-bugbear B023)
            def score(loc: int, logical: int = logical,
                      partners: tuple[int, ...] = tuple(placed_partners),
                      ) -> float:
                return sum(
                    flow[logical, k] * dist[loc, assignment[k]]
                    for k in partners
                )
            candidates.sort(key=score)
        else:
            rng.shuffle(candidates)
        take = min(pool, len(candidates))
        chosen = candidates[int(rng.integers(take))]
        assignment[logical] = chosen
        used.add(chosen)
    return assignment


def _local_search(instance: QAPInstance,
                  assignment: np.ndarray) -> tuple[np.ndarray, float]:
    """First-improvement 2-swap descent on the Tabu gain matrix.

    Replays the scalar scan exactly: probe pairs in ``(i, j)``
    lexicographic order, apply the first improving swap immediately,
    resume scanning from the next pair, and stop after a full pass with
    no improvement.  Every swap delta is read off the gain matrix, which
    each applied swap updates by one rank-1 term, so for integer-valued
    instances the descent path is bit-identical.
    """
    n = instance.n_logical
    cost = instance.cost(assignment)
    stack = assignment[None]                 # a 1-trial view, updated in place
    gain = gain_matrix(instance, stack)
    no_free = np.empty((1, 0), dtype=int)
    only = np.zeros(1, dtype=int)
    improved = True
    while improved:
        improved = False
        scan_from = 0
        while True:
            swaps, _ = half_deltas(instance, gain, stack, no_free)
            deltas = 2.0 * swaps[0]
            rest = np.triu(deltas < -1e-12, k=1).flat[scan_from:]
            if not rest.any():
                break
            flat = scan_from + int(np.argmax(rest))
            i, j = flat // n, flat % n
            old, new = assignment[i], assignment[j]
            assignment[i], assignment[j] = new, old
            cost += float(deltas[i, j])
            update_gain(instance, gain, only,
                        (instance.flow[i] - instance.flow[j])[None],
                        np.array([old]), np.array([new]))
            improved = True
            scan_from = flat + 1
    return assignment, float(cost)
