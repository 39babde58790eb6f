"""Pinned frontier-routing trajectories of the t|ket> and Qiskit stand-ins.

``frontier_trajectories.json`` holds, for each case, what the
order-respecting router emitted: the SWAP edge sequence, the
``(op index, physical pair, SWAPs before it)`` order of the ``APP2Q``
gates (op index into the unified step's two-qubit operators), the SWAP
count and the final logical -> physical map.

Cases: tket and qiskit on perfbench's 12 cold-sweep cells at instance
and compile seed :data:`SEED`; one symbolic tket structural compile (the
path ``repro serve`` takes before a bind); and both compilers on a
device whose ``edge_weights`` are non-integer, so score sums are
order-sensitive floats.  The fixture was recorded before the router
moved from a per-candidate loop to one gathered score matrix; every
router change must replay it bit for bit.

Re-record (only when a trajectory change is intended) with::

    PYTHONPATH=src python tests/baselines/test_frontier_trajectories.py --record
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.harness import build_step, build_symbolic_step
from repro.baselines.order_respecting import (
    QiskitLikeCompiler,
    TketLikeCompiler,
)
from repro.core.bind import compile_structural
from repro.core.unify import unify_circuit_operators
from repro.devices.library import by_name
from repro.noise.device_noise import (
    with_noise_weighted_distance,
    with_random_edge_errors,
)

FIXTURE = Path(__file__).parent / "frontier_trajectories.json"

#: Instance and compile seed of every case.
SEED = 1

#: perfbench's cold-sweep cells: device, gate set, one size per application.
CELLS = (
    ("sycamore", "SYC", {"NNN_Heisenberg": 34, "NNN_XY": 28,
                         "NNN_Ising": 24, "QAOA-REG-3": 30}),
    ("montreal", "CNOT", {"NNN_Heisenberg": 20, "NNN_XY": 24,
                          "NNN_Ising": 26, "QAOA-REG-3": 22}),
    ("aspen", "ISWAP", {"NNN_Heisenberg": 16, "NNN_XY": 16,
                        "NNN_Ising": 16, "QAOA-REG-3": 16}),
)
COMPILERS = {"tket": TketLikeCompiler, "qiskit": QiskitLikeCompiler}
WEIGHTED = "montreal-weighted"

CASES = (
    tuple(f"{compiler}|{device}|{gateset}|{benchmark}|n{n}"
          for compiler in COMPILERS
          for device, gateset, sizes in CELLS
          for benchmark, n in sizes.items())
    + ("tket-symbolic|montreal|CNOT|QAOA-REG-3|n20",)
    + tuple(f"{compiler}|{WEIGHTED}|CNOT|NNN_Heisenberg|n20"
            for compiler in COMPILERS)
)


def _device(name: str):
    if name == WEIGHTED:
        return with_noise_weighted_distance(
            with_random_edge_errors(by_name("montreal"), seed=SEED))
    return by_name(name)


def trajectory(case: str) -> dict:
    compiler, device, gateset, benchmark, size = case.split("|")
    n = int(size[1:])
    symbolic = compiler.endswith("-symbolic")
    step = (build_symbolic_step if symbolic else build_step)(
        benchmark, n, SEED)
    compiler_cls = COMPILERS[compiler.removesuffix("-symbolic")]
    # the structural prefix stops after routing: nothing is lowered
    ctx = compile_structural(compiler_cls(
        device=_device(device), gateset=gateset, seed=SEED), step).ctx
    labels = [op.label for op in unify_circuit_operators(step).two_qubit_ops]
    index = {label: i for i, label in enumerate(labels)}
    assert len(index) == len(labels), "operator labels must be unique"
    swaps, app2q = [], []
    for gate in ctx.app_circuit:
        if gate.name == "SWAP":
            swaps.append(list(gate.qubits))
        elif gate.name == "APP2Q":
            app2q.append([index[gate.meta["label"]], *gate.qubits,
                          len(swaps)])
    return {"swaps": swaps, "app2q": app2q, "n_swaps": int(ctx.n_swaps),
            "final_map": [ctx.final_map.physical(q) for q in range(n)]}


@lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert set(_pinned()) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_router_replays_pin(case):
    assert trajectory(case) == _pinned()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    records = {case: trajectory(case) for case in CASES}
    FIXTURE.write_text("{\n" + ",\n".join(
        f" {json.dumps(case)}: {json.dumps(record)}"
        for case, record in records.items()) + "\n}\n")
    print(f"recorded {len(records)} cases into {FIXTURE}")
