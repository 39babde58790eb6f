"""Figure 7: compilation onto Google Sycamore (SYC gate set).

Twelve panels: {NNN Heisenberg, NNN XY, NNN Ising, QAOA-REG-3} x
{#SWAPs (+dressed), #SYCs (+NoMap), SYC depth}.  The reproduction checks
the paper's shape: 2QAN inserts the fewest SWAPs, dresses a large
fraction, and for Heisenberg/XY has near-zero SYC overhead over NoMap.
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import SweepConfig, aggregate, format_rows
from repro.devices import sycamore

from benchmarks.conftest import QAOA_INSTANCES, SIZES, engine_sweep, write_result

COMPILERS = ("2qan", "tket", "qiskit", "nomap")
DEVICE_SIZES = {"sycamore": SIZES["sycamore_heis"] + SIZES["sycamore_ising"]
                + SIZES["qaoa"]}


def _sweep(benchmark_name: str, sizes, instances=1):
    return engine_sweep(SweepConfig(
        benchmark=benchmark_name,
        device=sycamore(),
        gateset="SYC",
        sizes=sizes,
        compilers=COMPILERS,
        instances=instances,
        seed=11,
    ))


@pytest.mark.parametrize("family,sizes_key", [
    ("NNN_Heisenberg", "sycamore_heis"),
    ("NNN_XY", "sycamore_heis"),
    ("NNN_Ising", "sycamore_ising"),
])
def test_fig07_models(benchmark, results_dir, family, sizes_key):
    rows = benchmark.pedantic(
        _sweep, args=(family, SIZES[sizes_key]), rounds=1, iterations=1
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_dressed", "n_two_qubit_gates",
                       "two_qubit_depth")
    )
    write_result(results_dir, f"fig07_{family}", text)
    for n in SIZES[sizes_key]:
        ours = aggregate(rows, "2qan", n, "n_swaps")
        assert ours <= aggregate(rows, "tket", n, "n_swaps") + 2
        assert ours <= aggregate(rows, "qiskit", n, "n_swaps")
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "qiskit", n, "n_two_qubit_gates")


def test_fig07_heisenberg_near_zero_syc_overhead(benchmark, results_dir):
    """Paper: '2QAN almost has no SYC overhead' for the Heisenberg model."""
    sizes = SIZES["sycamore_heis"][:3]
    rows = benchmark.pedantic(
        _sweep, args=("NNN_Heisenberg", sizes), rounds=1, iterations=1
    )
    lines = []
    for n in sizes:
        base = aggregate(rows, "nomap", n, "n_two_qubit_gates")
        ours = aggregate(rows, "2qan", n, "n_two_qubit_gates")
        dressed = aggregate(rows, "2qan", n, "n_dressed")
        swaps = aggregate(rows, "2qan", n, "n_swaps")
        overhead = ours - base
        lines.append(
            f"n={n}: SYC overhead={overhead:.0f} "
            f"({swaps:.0f} swaps, {dressed:.0f} dressed)"
        )
        # every undressed SWAP costs 3 SYCs; dressed ones cost ~0 extra
        assert overhead == 3 * (swaps - dressed)
    write_result(results_dir, "fig07_heisenberg_overhead", "\n".join(lines))


def test_fig07_qaoa(benchmark, results_dir):
    rows = benchmark.pedantic(
        _sweep, args=("QAOA-REG-3", SIZES["qaoa"], QAOA_INSTANCES),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_two_qubit_gates", "two_qubit_depth")
    )
    write_result(results_dir, "fig07_QAOA-REG-3", text)
    for n in SIZES["qaoa"]:
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "qiskit", n, "n_two_qubit_gates")
