"""Table III: circuit-size comparison with Paulihedral.

Paulihedral was closed-source when the paper was written; the paper uses
the published numbers directly, and so do we (hard-coded below).  Our
side: 2QAN on 30-qubit Heisenberg 1D/2D/3D assuming all-to-all
connectivity (as the paper's Heisenberg rows do) and QAOA-REG-{4,8,12} on
a Manhattan-like 65-qubit heavy-hex device.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import TwoQANCompiler
from repro.devices import all_to_all, manhattan
from repro.hamiltonians.models import heisenberg_lattice
from repro.hamiltonians.qaoa import QAOAProblem, random_regular_graph
from repro.hamiltonians.trotter import trotter_step

from benchmarks.conftest import FULL, write_result

# Published Paulihedral numbers from the paper's Table III.
PAULIHEDRAL = {
    "Heisenberg-1D": (87, 13),
    "Heisenberg-2D": (216, 43),
    "Heisenberg-3D": (305, 65),
    "QAOA-REG-4": (366, 147),
    "QAOA-REG-8": (539, 246),
    "QAOA-REG-12": (678, 319),
}

QAOA_INSTANCES = 10 if FULL else 3
QAOA_SIZE = 20
DEVICE_SIZES = {"manhattan": (QAOA_SIZE,)}


def _heisenberg_rows():
    from repro.baselines.paulihedral_like import compile_paulihedral_like

    rows = {}
    for label, shape in (
        ("Heisenberg-1D", (30,)),
        ("Heisenberg-2D", (5, 6)),
        ("Heisenberg-3D", (2, 3, 5)),
    ):
        step = trotter_step(heisenberg_lattice(shape, seed=0))
        compiler = TwoQANCompiler(all_to_all(30), "CNOT", seed=0,
                                  mapping_trials=1)
        result = compiler.compile(step)
        ph_like = compile_paulihedral_like(step)
        rows[label] = (result.metrics.n_two_qubit_gates,
                       result.metrics.two_qubit_depth,
                       ph_like.metrics.n_two_qubit_gates)
    return rows


def _qaoa_rows():
    rows = {}
    device = manhattan()
    for degree in (4, 8, 12):
        cnots, depths = [], []
        for instance in range(QAOA_INSTANCES):
            graph = random_regular_graph(degree, QAOA_SIZE, seed=instance)
            step = QAOAProblem(graph, (0.35,), (-0.39,)).layer_step(0)
            compiler = TwoQANCompiler(device, "CNOT", seed=instance,
                                      mapping_trials=2)
            result = compiler.compile(step)
            cnots.append(result.metrics.n_two_qubit_gates)
            depths.append(result.metrics.two_qubit_depth)
        rows[f"QAOA-REG-{degree}"] = (float(np.mean(cnots)),
                                      float(np.mean(depths)))
    return rows


def test_table3_heisenberg(benchmark, results_dir):
    rows = benchmark.pedantic(_heisenberg_rows, rounds=1, iterations=1)
    lines = [f"{'benchmark':16s} {'PH(publ)':>9s} {'PH depth':>9s} "
             f"{'PH-like':>8s} {'2QAN CNOTs':>11s} {'2QAN depth':>11s}"]
    for label, (cnots, depth, ph_like) in rows.items():
        ph_cnots, ph_depth = PAULIHEDRAL[label]
        lines.append(f"{label:16s} {ph_cnots:9d} {ph_depth:9d} "
                     f"{ph_like:8d} {cnots:11d} {depth:11d}")
    write_result(results_dir, "table3_heisenberg", "\n".join(lines))
    # Shape checks.  1D all-to-all: both compile to 29 pairs x 3 CNOTs = 87,
    # matching Paulihedral exactly (the paper's row is also 87 / 13).
    assert rows["Heisenberg-1D"][0] == 87
    assert rows["Heisenberg-1D"][2] == 87    # PH-like reproduces published 1D
    # 2D/3D: unifying keeps 2QAN at 3 CNOTs/pair; Paulihedral needs more.
    assert rows["Heisenberg-2D"][0] < PAULIHEDRAL["Heisenberg-2D"][0]
    assert rows["Heisenberg-3D"][0] < PAULIHEDRAL["Heisenberg-3D"][0]
    # 2QAN never exceeds even the idealised Paulihedral bound
    for cnots, _, ph_like in rows.values():
        assert cnots <= ph_like


def test_table3_qaoa(benchmark, results_dir):
    rows = benchmark.pedantic(_qaoa_rows, rounds=1, iterations=1)
    lines = []
    for label, (cnots, depth) in rows.items():
        ph_cnots, ph_depth = PAULIHEDRAL[label]
        lines.append(f"{label:16s} PH=({ph_cnots},{ph_depth}) "
                     f"2QAN=({cnots:.0f},{depth:.0f})")
    write_result(results_dir, "table3_qaoa", "\n".join(lines))
    # The paper reports Paulihedral needing ~1.6x the CNOTs of 2QAN.
    for label, (cnots, _) in rows.items():
        assert cnots < PAULIHEDRAL[label][0]
