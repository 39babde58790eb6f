"""Ablations of 2QAN's design choices (DESIGN.md section 5).

The paper motivates four distinct mechanisms; each ablation removes one
and measures the damage:

* SWAP-selection criteria order (Section III-B priority list),
* SWAP unitary unifying / dressing (Section III-C),
* hybrid vs generic ALAP scheduling (Section III-D, Figure 6),
* Tabu-search mapping vs simulated annealing vs random placement.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import TwoQANCompiler
from repro.core.routing import route
from repro.core.unify import unify_circuit_operators
from repro.devices import montreal
from repro.hamiltonians.models import nnn_heisenberg
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.annealing import simulated_annealing
from repro.mapping.placement import best_of_k_mapping, random_mapping
from repro.mapping.qap import qap_from_problem

from benchmarks.conftest import FULL, write_result

SIZES = (8, 12, 16, 20) if FULL else (8, 12, 16)
DEVICE_SIZES = {"montreal": SIZES}


def _compile_variants():
    device = montreal()
    table = {}
    for n in SIZES:
        step = trotter_step(nnn_heisenberg(n, seed=0))
        variants = {
            "full": TwoQANCompiler(device, "CNOT", seed=1),
            "no_dress": TwoQANCompiler(device, "CNOT", seed=1, dress=False),
            "no_hybrid": TwoQANCompiler(device, "CNOT", seed=1,
                                        hybrid_schedule=False),
            "no_unify": TwoQANCompiler(device, "CNOT", seed=1, unify=False),
            "count_only": TwoQANCompiler(device, "CNOT", seed=1,
                                         swap_criteria=("count",)),
        }
        table[n] = {
            name: compiler.compile(step).metrics
            for name, compiler in variants.items()
        }
    return table


def test_ablation_passes(benchmark, results_dir):
    table = benchmark.pedantic(_compile_variants, rounds=1, iterations=1)
    names = ("full", "no_dress", "no_hybrid", "no_unify", "count_only")
    lines = ["  n  metric      " + "".join(f"{v:>11s}" for v in names)]
    for n, variants in table.items():
        lines.append(f"{n:4d} cnots      " + "".join(
            f"{variants[v].n_two_qubit_gates:11d}" for v in names))
        lines.append(f"{n:4d} 2q-depth   " + "".join(
            f"{variants[v].two_qubit_depth:11d}" for v in names))
    write_result(results_dir, "ablation_passes", "\n".join(lines))

    for variants in table.values():
        full = variants["full"]
        # dressing saves gates
        assert full.n_two_qubit_gates <= variants["no_dress"].n_two_qubit_gates
        # hybrid scheduling saves depth
        assert full.two_qubit_depth <= variants["no_hybrid"].two_qubit_depth
        # circuit unifying saves a lot of gates for Heisenberg
        assert full.n_two_qubit_gates < variants["no_unify"].n_two_qubit_gates


def _mapping_variants():
    device = montreal()
    rows = {}
    for n in SIZES:
        step = unify_circuit_operators(
            trotter_step(nnn_heisenberg(n, seed=0))
        )
        instance = qap_from_problem(step, device)
        tabu = best_of_k_mapping(instance, k=3, seed=0)
        anneal = best_of_k_mapping(instance, k=3, seed=0,
                                   solver=simulated_annealing)
        random_cost = float(np.mean([
            instance.cost(random_mapping(n, device, seed=s))
            for s in range(10)
        ]))
        swaps = {}
        for name, assignment in (("tabu", tabu.assignment),
                                 ("anneal", anneal.assignment),
                                 ("random", random_mapping(n, device, 0))):
            routed = route(step, device, assignment, seed=0)
            swaps[name] = routed.n_swaps
        rows[n] = {
            "tabu_cost": tabu.cost, "anneal_cost": anneal.cost,
            "random_cost": random_cost, **{
                f"{k}_swaps": v for k, v in swaps.items()
            },
        }
    return rows


def test_ablation_mapping(benchmark, results_dir):
    rows = benchmark.pedantic(_mapping_variants, rounds=1, iterations=1)
    lines = []
    for n, row in rows.items():
        lines.append(
            f"n={n}: QAP cost tabu={row['tabu_cost']:.0f} "
            f"anneal={row['anneal_cost']:.0f} random~{row['random_cost']:.0f}"
            f" | swaps tabu={row['tabu_swaps']} anneal={row['anneal_swaps']}"
            f" random={row['random_swaps']}"
        )
    write_result(results_dir, "ablation_mapping", "\n".join(lines))
    for row in rows.values():
        assert row["tabu_cost"] <= row["random_cost"]
        assert row["tabu_swaps"] <= row["random_swaps"]


def _noise_aware_variants():
    from repro.noise.device_noise import (
        edge_aware_success,
        with_noise_weighted_distance,
        with_random_edge_errors,
    )
    rows = {}
    for n in SIZES:
        noisy = with_random_edge_errors(montreal(), spread=0.8, seed=5)
        step = trotter_step(nnn_heisenberg(n, seed=0))
        blind = TwoQANCompiler(noisy, "CNOT", seed=1).compile(step)
        aware = TwoQANCompiler(
            with_noise_weighted_distance(noisy), "CNOT", seed=1,
            swap_criteria=("count", "error", "depth", "dress"),
        ).compile(step)
        rows[n] = {
            "blind_success": edge_aware_success(blind.circuit, noisy),
            "aware_success": edge_aware_success(aware.circuit, noisy),
            "blind_cnots": blind.metrics.n_two_qubit_gates,
            "aware_cnots": aware.metrics.n_two_qubit_gates,
        }
    return rows


def test_ablation_noise_aware(benchmark, results_dir):
    """The paper's Section-VII extension: noise-aware mapping/routing."""
    rows = benchmark.pedantic(_noise_aware_variants, rounds=1, iterations=1)
    lines = []
    improved = 0
    for n, row in rows.items():
        lines.append(
            f"n={n}: success blind={row['blind_success']:.3f} "
            f"aware={row['aware_success']:.3f} | cnots "
            f"{row['blind_cnots']} vs {row['aware_cnots']}"
        )
        if row["aware_success"] >= row["blind_success"] - 1e-9:
            improved += 1
    write_result(results_dir, "ablation_noise_aware", "\n".join(lines))
    # noise-awareness should help (or at least not hurt) at most sizes
    assert improved >= len(rows) - 1
