"""Figure 13: 3-layer QAOA on Montreal -- overhead is ~3x the 1-layer one.

The paper compiles only the first layer, reuses it for odd layers and
reverses the two-qubit order for even layers; every compiler's 3-layer
overhead is then ~3x its 1-layer overhead.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import TwoQANCompiler
from repro.devices import montreal
from repro.hamiltonians.qaoa import QAOAProblem, random_regular_graph

from benchmarks.conftest import FULL, write_result

SIZES = (4, 8, 12, 16, 20, 22) if FULL else (4, 8, 12)
INSTANCES = 10 if FULL else 3
DEVICE_SIZES = {"montreal": SIZES}


def _sweep():
    device = montreal()
    data = []
    for n in SIZES:
        singles, triples = [], []
        for instance in range(INSTANCES):
            graph = random_regular_graph(3, n, seed=instance)
            problem = QAOAProblem(
                graph, (0.3, 0.5, 0.7), (0.4, 0.2, 0.1)
            )
            steps = [problem.layer_step(i) for i in range(3)]
            compiler = TwoQANCompiler(device, "CNOT", seed=instance,
                                      mapping_trials=2)
            single = compiler.compile(steps[0])
            triple = compiler.compile_layers(steps)
            singles.append(single.metrics)
            triples.append(triple.metrics)
        data.append((n, singles, triples))
    return data


def test_fig13_three_layer_scaling(benchmark, results_dir):
    data = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = [f"{'n':>4s} {'1-layer CNOTs':>14s} {'3-layer CNOTs':>14s} "
             f"{'ratio':>7s} {'1-layer swaps':>14s} {'3-layer swaps':>14s}"]
    for n, singles, triples in data:
        c1 = np.mean([m.n_two_qubit_gates for m in singles])
        c3 = np.mean([m.n_two_qubit_gates for m in triples])
        s1 = np.mean([m.n_swaps for m in singles])
        s3 = np.mean([m.n_swaps for m in triples])
        ratio = c3 / c1
        lines.append(f"{n:4d} {c1:14.1f} {c3:14.1f} {ratio:7.2f} "
                     f"{s1:14.1f} {s3:14.1f}")
        assert 2.8 <= ratio <= 3.2
        assert np.isclose(s3, 3 * s1)
    write_result(results_dir, "fig13_qaoa_3layer", "\n".join(lines))
