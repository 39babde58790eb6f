"""Section V-D: compiler runtime and scalability.

The paper reports Tabu mapping as the dominant cost (1.6 s at 10 qubits,
~330 s at 40, ~976 s at 50) while routing and scheduling scale
quadratically in the gate count and stay fast.  We reproduce the shape:
mapping time grows super-linearly and dominates; routing + scheduling
stay comfortably below it at larger sizes.

With the vectorized delta-table mapping kernel the absolute numbers are
far below the paper's (and this suite's pre-vectorization) times -- the
default grid now reaches n = 34 on sycamore where n = 22 used to be the
practical ceiling.  Alongside the text table the run emits
``benchmarks/results/runtime_scaling.json`` so the perf trajectory is
diffable across PRs.
"""

from __future__ import annotations

import json

from repro.analysis.engine import parallel_map
from repro.analysis.runtime import (
    RuntimeSpec,
    format_runtime_table,
    measure_runtime_spec,
    runtime_records_from_payload,
    runtime_records_payload,
)
from repro.devices import montreal, sycamore

from benchmarks.conftest import FULL, JOBS, write_result

MODEL_SIZES = (10, 20, 30, 40, 50) if FULL else (10, 16, 22, 28, 34)
QAOA_SIZE = 20
DEVICE_SIZES = {"sycamore": MODEL_SIZES, "montreal": (QAOA_SIZE,)}


def _measure_all():
    specs = [
        RuntimeSpec(f"NNN_Heisenberg-{n}", "NNN_Heisenberg", n, sycamore(),
                    gateset="SYC", mapping_trials=1)
        for n in MODEL_SIZES
    ]
    specs.append(RuntimeSpec(f"QAOA-REG-3-{QAOA_SIZE}", "QAOA-REG-3",
                             QAOA_SIZE, montreal(),
                             mapping_trials=1))
    # Each worker process times its own compilation.  Concurrent workers
    # contend for cores, which inflates absolute wall times roughly
    # uniformly; the shape assertions below (mapping dominates and grows
    # with size) are contention-invariant.  Set REPRO_JOBS=1 when the
    # absolute numbers need to be comparable to the paper's serial runs.
    return parallel_map(measure_runtime_spec, specs, jobs=JOBS)


def test_runtime_scaling(benchmark, results_dir):
    records = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    write_result(results_dir, "runtime_scaling",
                 format_runtime_table(records))
    payload = runtime_records_payload(records)
    (results_dir / "runtime_scaling.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    # every row carries the unify column (total_s includes it) and
    # round-trips through the tolerant reader
    assert all("unify_s" in row for row in payload)
    assert len(runtime_records_from_payload(payload)) == len(records)
    model_records = records[:-1]
    # mapping dominates at the largest size (paper's observation)
    largest = model_records[-1]
    assert largest.mapping_s >= largest.routing_s
    assert largest.mapping_s >= largest.scheduling_s
    # mapping time grows with problem size
    assert model_records[-1].mapping_s > model_records[0].mapping_s
