"""Figure 9: compilation onto IBMQ Montreal (CNOT gate set).

The QAOA panels additionally include the IC-QAOA application-specific
baseline (panels j-l of the paper's figure).
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import SweepConfig, aggregate, format_rows
from repro.devices import montreal

from benchmarks.conftest import QAOA_INSTANCES, SIZES, engine_sweep, write_result

COMPILERS = ("2qan", "tket", "qiskit", "nomap")
QAOA_COMPILERS = ("2qan", "ic_qaoa", "tket", "qiskit", "nomap")
DEVICE_SIZES = {"montreal": SIZES["montreal"] + SIZES["qaoa_montreal"]}


def _sweep(benchmark_name: str, sizes, compilers=COMPILERS, instances=1):
    return engine_sweep(SweepConfig(
        benchmark=benchmark_name,
        device=montreal(),
        gateset="CNOT",
        sizes=sizes,
        compilers=compilers,
        instances=instances,
        seed=17,
    ))


@pytest.mark.parametrize("family", [
    "NNN_Heisenberg", "NNN_XY", "NNN_Ising",
])
def test_fig09_models(benchmark, results_dir, family):
    rows = benchmark.pedantic(
        _sweep, args=(family, SIZES["montreal"]), rounds=1, iterations=1
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_dressed", "n_two_qubit_gates",
                       "two_qubit_depth")
    )
    write_result(results_dir, f"fig09_{family}", text)
    for n in SIZES["montreal"]:
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "tket", n, "n_two_qubit_gates")
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "qiskit", n, "n_two_qubit_gates")


def test_fig09_qaoa_with_ic(benchmark, results_dir):
    rows = benchmark.pedantic(
        _sweep,
        args=("QAOA-REG-3", SIZES["qaoa_montreal"], QAOA_COMPILERS,
              QAOA_INSTANCES),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, QAOA_COMPILERS)
        for metric in ("n_swaps", "n_dressed", "n_two_qubit_gates",
                       "two_qubit_depth")
    )
    write_result(results_dir, "fig09_QAOA-REG-3", text)
    for n in SIZES["qaoa_montreal"]:
        ours = aggregate(rows, "2qan", n, "n_two_qubit_gates")
        assert ours <= aggregate(rows, "ic_qaoa", n, "n_two_qubit_gates")
        assert ours <= aggregate(rows, "tket", n, "n_two_qubit_gates")
        assert ours <= aggregate(rows, "qiskit", n, "n_two_qubit_gates")
