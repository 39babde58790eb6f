"""Figures 11-12 and Tables IV-V: the CZ-gate-set appendix experiments.

Sycamore and Aspen also expose CZ as a native gate; the appendix repeats
the Figure 7/8 sweeps with the CZ basis.  Key claim: 2QAN has near-zero
CZ overhead for Heisenberg (dressed gates cost the same 3 CZs as circuit
gates) and ~8.7% overhead for Ising (a ZZ circuit gate costs 2 CZs but an
undressed SWAP costs 3).
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import SweepConfig, aggregate, format_rows
from repro.analysis.overhead import reduction_table, summarize_reductions
from repro.devices import aspen, sycamore

from benchmarks.conftest import (
    FULL, QAOA_INSTANCES, SIZES, engine_sweep, sizes_for, write_result,
)

COMPILERS = ("2qan", "tket", "qiskit", "nomap")
HEISENBERG_SIZES = (6, 10, 14)
ASPEN_QAOA_SIZES = sizes_for(aspen(), SIZES["qaoa"])
DEVICE_SIZES = {
    "sycamore": SIZES["sycamore_ising"] + HEISENBERG_SIZES,
    "aspen": SIZES["aspen"] + ASPEN_QAOA_SIZES,
}


def _sweep(device_factory, family, sizes, instances=1):
    return engine_sweep(SweepConfig(
        benchmark=family,
        device=device_factory(),
        gateset="CZ",
        sizes=sizes,
        compilers=COMPILERS,
        instances=instances,
        seed=23,
    ))


@pytest.mark.parametrize("family", ["NNN_Heisenberg", "NNN_Ising"])
def test_fig11_sycamore_cz(benchmark, results_dir, family):
    sizes = SIZES["sycamore_ising"][:4] if not FULL else SIZES["sycamore_ising"]
    rows = benchmark.pedantic(_sweep, args=(sycamore, family, sizes),
                              rounds=1, iterations=1)
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_two_qubit_gates", "two_qubit_depth")
    )
    table = summarize_reductions(reduction_table(rows, "qiskit"))
    write_result(results_dir, f"fig11_{family}_cz",
                 text + "\n\nTable IV excerpt (vs qiskit-like):\n" + table)
    for n in sizes:
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "qiskit", n, "n_two_qubit_gates")


def test_fig11_heisenberg_no_cz_overhead(benchmark, results_dir):
    """Dressed SWAPs cost 3 CZs, same as a Heisenberg circuit gate."""
    sizes = HEISENBERG_SIZES
    rows = benchmark.pedantic(
        _sweep, args=(sycamore, "NNN_Heisenberg", sizes),
        rounds=1, iterations=1,
    )
    lines = []
    for n in sizes:
        base = aggregate(rows, "nomap", n, "n_two_qubit_gates")
        ours = aggregate(rows, "2qan", n, "n_two_qubit_gates")
        swaps = aggregate(rows, "2qan", n, "n_swaps")
        dressed = aggregate(rows, "2qan", n, "n_dressed")
        lines.append(f"n={n}: CZ overhead {ours - base:.0f} "
                     f"(swaps {swaps:.0f}, dressed {dressed:.0f})")
        assert ours - base == 3 * (swaps - dressed)
    write_result(results_dir, "fig11_heisenberg_cz_overhead",
                 "\n".join(lines))


@pytest.mark.parametrize("family", ["NNN_Heisenberg", "NNN_Ising"])
def test_fig12_aspen_cz(benchmark, results_dir, family):
    rows = benchmark.pedantic(
        _sweep, args=(aspen, family, SIZES["aspen"]),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        f"[{metric}]\n" + format_rows(rows, metric, COMPILERS)
        for metric in ("n_swaps", "n_two_qubit_gates", "two_qubit_depth")
    )
    table = summarize_reductions(reduction_table(rows, "tket"))
    write_result(results_dir, f"fig12_{family}_cz",
                 text + "\n\nTable V excerpt (vs tket-like):\n" + table)
    for n in SIZES["aspen"]:
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "qiskit", n, "n_two_qubit_gates")


def test_fig12_qaoa_cz(benchmark, results_dir):
    sizes = ASPEN_QAOA_SIZES
    rows = benchmark.pedantic(
        _sweep, args=(aspen, "QAOA-REG-3", sizes, QAOA_INSTANCES),
        rounds=1, iterations=1,
    )
    write_result(results_dir, "fig12_QAOA_cz",
                 format_rows(rows, "n_two_qubit_gates", COMPILERS))
    for n in sizes:
        assert aggregate(rows, "2qan", n, "n_two_qubit_gates") <= \
            aggregate(rows, "tket", n, "n_two_qubit_gates")
