"""Simple placement strategies and the best-of-k wrapper.

The paper runs randomized mapping five times and keeps the best result
(Section IV, "Quantum compilers"); :func:`best_of_k_mapping` implements
that protocol around any QAP solver.  ``line_placement`` mirrors t|ket>'s
LinePlacement fallback used for large circuits.

With the default solver, :func:`~repro.mapping.tabu.tabu_search`, all
``k`` trials run as one lockstep search
(:func:`~repro.mapping.tabu.tabu_trials`): one stacked gain-matrix
tensor, so each numpy call serves every trial, and each trial's result
is bit-identical to running it alone.  Any other solver
(:func:`~repro.mapping.annealing.simulated_annealing`,
:func:`~repro.mapping.grasp.grasp_search`) runs its trials one by one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.devices.topology import Device
from repro.mapping.qap import QAPInstance
from repro.mapping.tabu import TabuResult, tabu_search, tabu_trials


def identity_mapping(n_logical: int, device: Device) -> np.ndarray:
    """Logical qubit i on physical qubit i."""
    if n_logical > device.n_qubits:
        raise ValueError("not enough physical qubits")
    return np.arange(n_logical)


def random_mapping(n_logical: int, device: Device, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array(rng.permutation(device.n_qubits)[:n_logical])


def line_placement(n_logical: int, device: Device) -> np.ndarray:
    """Place logical qubits along a long simple path of the device.

    Greedy DFS-based longest-path heuristic: start from a minimum-degree
    qubit and extend to the least-connected unvisited neighbour; restart
    from the path's other end when stuck.
    """
    if n_logical > device.n_qubits:
        raise ValueError("not enough physical qubits")
    degree = [len(device.neighbors(q)) for q in range(device.n_qubits)]
    start = int(np.argmin(degree))
    path = [start]
    used = {start}
    while len(path) < n_logical:
        extended = False
        for endpoint_idx in (-1, 0):
            tip = path[endpoint_idx]
            candidates = sorted(
                (q for q in device.neighbors(tip) if q not in used),
                key=lambda q: degree[q],
            )
            if candidates:
                nxt = candidates[0]
                used.add(nxt)
                if endpoint_idx == -1:
                    path.append(nxt)
                else:
                    path.insert(0, nxt)
                extended = True
                break
        if not extended:
            # path is stuck; append the closest unused qubit
            remaining = [q for q in range(device.n_qubits) if q not in used]
            dist = device.distance
            tip = path[-1]
            nxt = min(remaining, key=lambda q: dist[tip, q])
            used.add(nxt)
            path.append(nxt)
    return np.array(path[:n_logical])


def best_of_k_mapping(instance: QAPInstance, k: int = 5, seed: int = 0,
                      solver: Callable[..., TabuResult] = tabu_search,
                      **solver_kwargs) -> TabuResult:
    """Run the solver ``k`` times with different seeds; keep the best.

    Trial ``t`` is seeded ``seed + 1000 * t``.  Tabu trials run in
    lockstep, other solvers one after another; on a cost tie the
    earliest trial wins.
    """
    if k < 1:
        raise ValueError(f"mapping needs at least 1 trial, got {k}")
    trial_seeds = [seed + 1000 * trial for trial in range(k)]
    if solver is tabu_search:
        results = tabu_trials(instance, trial_seeds, **solver_kwargs)
    else:
        results = [solver(instance, seed=s, **solver_kwargs)
                   for s in trial_seeds]
    return min(results, key=lambda result: result.cost)
