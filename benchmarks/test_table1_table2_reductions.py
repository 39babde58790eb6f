"""Tables I and II: overhead reduction of 2QAN vs the generic compilers.

The paper reports, per device / benchmark family, the average and maximum
of ``overhead(generic) / overhead(2QAN)`` across problem sizes for SWAP
count, hardware two-qubit gate count and two-qubit depth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.harness import SweepConfig
from repro.analysis.overhead import reduction_table, summarize_reductions
from repro.devices import aspen, montreal, sycamore

from benchmarks.conftest import FULL, engine_sweep, sizes_for, write_result

DEVICES = (
    ("sycamore", sycamore, "SYC"),
    ("aspen", aspen, "ISWAP"),
    ("montreal", montreal, "CNOT"),
)
SIZES = (6, 10, 14, 18) if FULL else (6, 10, 14)
FAMILIES = ("NNN_Heisenberg", "NNN_XY", "NNN_Ising")
DEVICE_SIZES = {name: sizes_for(factory(), SIZES)
                for name, factory, _ in DEVICES}


def _sweep_all(device_factory, gateset, sizes):
    rows = []
    for family in FAMILIES:
        rows.extend(engine_sweep(SweepConfig(
            benchmark=family,
            device=device_factory(),
            gateset=gateset,
            sizes=sizes,
            compilers=("2qan", "tket", "qiskit", "nomap"),
            seed=19,
        )))
    return rows


@pytest.mark.parametrize("device_name,device_factory,gateset", DEVICES)
def test_tables_1_and_2(benchmark, results_dir, device_name,
                        device_factory, gateset):
    rows = benchmark.pedantic(
        _sweep_all, args=(device_factory, gateset, DEVICE_SIZES[device_name]),
        rounds=1, iterations=1
    )
    table1 = reduction_table(rows, "tket")
    table2 = reduction_table(rows, "qiskit")
    text = (
        f"Table I ({device_name}, vs t|ket>-like):\n"
        + summarize_reductions(table1)
        + f"\n\nTable II ({device_name}, vs Qiskit-like):\n"
        + summarize_reductions(table2)
    )
    write_result(results_dir, f"table1_table2_{device_name}", text)

    # Shape: 2QAN never does worse than either baseline on average, and
    # the qiskit-like reductions dominate the tket-like ones (the paper's
    # Table II entries exceed Table I's).
    for entry in table1 + table2:
        assert entry.average >= 0.95 or np.isinf(entry.average)
    qiskit_avgs = [e.average for e in table2 if np.isfinite(e.average)]
    tket_avgs = [e.average for e in table1 if np.isfinite(e.average)]
    if qiskit_avgs and tket_avgs:
        assert np.mean(qiskit_avgs) >= np.mean(tket_avgs)
