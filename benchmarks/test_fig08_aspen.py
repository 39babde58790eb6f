"""Figure 8: compilation onto Rigetti Aspen (iSWAP gate set), n <= 16."""

from __future__ import annotations

import pytest

from repro.analysis.harness import SweepConfig, aggregate, format_rows
from repro.devices import aspen

from benchmarks.conftest import (
    QAOA_INSTANCES, SIZES, engine_sweep, sizes_for, write_result,
)

COMPILERS = ("2qan", "tket", "qiskit", "nomap")
QAOA_SIZES = sizes_for(aspen(), SIZES["qaoa"])
DEVICE_SIZES = {"aspen": SIZES["aspen"] + QAOA_SIZES}


def _sweep(benchmark_name: str, sizes, instances=1):
    return engine_sweep(SweepConfig(
        benchmark=benchmark_name,
        device=aspen(),
        gateset="ISWAP",
        sizes=sizes,
        compilers=COMPILERS,
        instances=instances,
        seed=13,
    ))


@pytest.mark.parametrize("family", [
    "NNN_Heisenberg", "NNN_XY", "NNN_Ising",
])
def test_fig08_models(benchmark, results_dir, family):
    rows = benchmark.pedantic(
        _sweep, args=(family, SIZES["aspen"]), rounds=1, iterations=1
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_dressed", "n_two_qubit_gates",
                       "two_qubit_depth")
    )
    write_result(results_dir, f"fig08_{family}", text)
    for n in SIZES["aspen"]:
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "qiskit", n, "n_two_qubit_gates")
        assert aggregate(rows, "2qan", n, "two_qubit_depth") <= \
            aggregate(rows, "qiskit", n, "two_qubit_depth")


def test_fig08_qaoa(benchmark, results_dir):
    sizes = QAOA_SIZES
    rows = benchmark.pedantic(
        _sweep, args=("QAOA-REG-3", sizes, QAOA_INSTANCES),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_two_qubit_gates", "two_qubit_depth")
    )
    write_result(results_dir, "fig08_QAOA-REG-3", text)
    for n in sizes:
        assert aggregate(rows, "2qan", n, "n_swaps") <= \
            aggregate(rows, "qiskit", n, "n_swaps")
