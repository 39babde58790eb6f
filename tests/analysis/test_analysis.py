"""Tests for the sweep harness and overhead tables."""

import numpy as np
import pytest

from repro.analysis.harness import (
    AmbiguousRowsError,
    BenchmarkRow,
    SweepConfig,
    aggregate,
    build_step,
    build_symbolic_step,
    compile_with,
    format_rows,
    run_sweep,
)
from repro.analysis.overhead import reduction_table, summarize_reductions
from repro.analysis.runtime import (
    RuntimeRecord,
    RuntimeSpec,
    format_runtime_table,
    measure_runtime,
    measure_runtime_spec,
    runtime_records_from_payload,
    runtime_records_payload,
)
from repro.core.decompose import DecomposeCache
from repro.devices import aspen, montreal
from repro.hamiltonians.trotter import trotter_step
from repro.hamiltonians.models import nnn_ising


class TestBuildStep:
    def test_model_benchmarks(self):
        for name in ("NNN_Ising", "NNN_XY", "NNN_Heisenberg"):
            step = build_step(name, 6, 0)
            assert step.n_qubits == 6

    def test_qaoa_benchmark(self):
        step = build_step("QAOA-REG-3", 8, 0)
        assert len(step.two_qubit_ops) == 12

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_step("bogus", 6, 0)

    FAMILIES = ["NNN_Heisenberg", "NNN_XY", "NNN_Ising", "QAOA-REG-3",
                "QAOA-WR-3", "QAOA-ER"]

    @pytest.mark.parametrize("build", [build_step, build_symbolic_step])
    @pytest.mark.parametrize("n_qubits", [-1, 0, 1])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sizes_below_two_rejected(self, family, n_qubits, build):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            build(family, n_qubits, 0)

    @pytest.mark.parametrize("build", [build_step, build_symbolic_step])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_smallest_size(self, family, build):
        if family in ("QAOA-REG-3", "QAOA-WR-3"):
            # no 3-regular graph on 2 nodes: networkx's error, as a
            # ValueError like every other bad problem
            with pytest.raises(ValueError, match="QAOA"):
                build(family, 2, 0)
        else:
            assert build(family, 2, 0).n_qubits == 2


class TestCompileWith:
    @pytest.mark.parametrize("name", [
        "2qan", "2qan_nodress", "tket", "qiskit", "nomap",
    ])
    def test_all_compilers_run(self, name):
        step = build_step("NNN_Ising", 6, 0)
        result = compile_with(name, step, montreal(), "CNOT", 0,
                              DecomposeCache())
        assert result.metrics.n_two_qubit_gates > 0

    def test_ic_on_qaoa(self):
        step = build_step("QAOA-REG-3", 8, 0)
        result = compile_with("ic_qaoa", step, montreal(), "CNOT", 0,
                              DecomposeCache())
        assert result.metrics.n_two_qubit_gates > 0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            compile_with("bogus", build_step("NNN_Ising", 6, 0),
                         montreal(), "CNOT", 0, DecomposeCache())


class TestSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        config = SweepConfig("NNN_Ising", aspen(), "CNOT", (6, 8),
                             compilers=("2qan", "tket", "nomap"))
        return run_sweep(config)

    def test_row_count(self, rows):
        assert len(rows) == 2 * 3

    def test_aggregate(self, rows):
        value = aggregate(rows, "2qan", 6, "n_two_qubit_gates")
        assert value > 0

    def test_aggregate_missing(self, rows):
        with pytest.raises(ValueError):
            aggregate(rows, "qiskit", 6, "n_swaps")

    def test_nomap_has_no_swaps(self, rows):
        assert aggregate(rows, "nomap", 6, "n_swaps") == 0

    def test_format_table(self, rows):
        table = format_rows(rows, "n_two_qubit_gates")
        assert "2qan" in table and "nomap" in table
        assert "6" in table

    def test_qaoa_multi_instance(self):
        config = SweepConfig("QAOA-REG-3", montreal(), "CNOT", (6,),
                             compilers=("2qan",), instances=3)
        rows = run_sweep(config)
        assert len(rows) == 3
        assert len({r.instance for r in rows}) == 3


class TestReductionTable:
    @pytest.fixture(scope="class")
    def rows(self):
        config = SweepConfig("NNN_Heisenberg", aspen(), "CNOT", (6, 8),
                             compilers=("2qan", "qiskit", "nomap"))
        return run_sweep(config)

    def test_entries_produced(self, rows):
        entries = reduction_table(rows, "qiskit")
        assert {e.metric for e in entries} == {"swaps", "gates", "depth"}

    def test_reductions_at_least_one(self, rows):
        """2QAN should not be worse than the qiskit-like stand-in."""
        entries = reduction_table(rows, "qiskit")
        for entry in entries:
            assert entry.average >= 1.0 or np.isinf(entry.average)

    def test_summary_formatting(self, rows):
        text = summarize_reductions(reduction_table(rows, "qiskit"))
        assert "NNN_Heisenberg" in text


class TestRuntime:
    def test_measure_and_format(self):
        step = trotter_step(nnn_ising(8, seed=0))
        record = measure_runtime("ising8", step, montreal(),
                                 mapping_trials=1)
        assert record.total_s > 0
        table = format_runtime_table([record])
        assert "ising8" in table

    def test_spec_worker(self):
        spec = RuntimeSpec("ising8", "NNN_Ising", 8, montreal(),
                           mapping_trials=1)
        record = measure_runtime_spec(spec)
        assert record.label == "ising8"
        assert record.n_qubits == 8
        assert record.total_s > 0

    def test_unify_time_counts_toward_total(self):
        """Regression: total_s used to silently drop the unify pass."""
        record = RuntimeRecord("r", 4, 3, mapping_s=1.0, routing_s=2.0,
                               scheduling_s=4.0, decomposition_s=8.0,
                               unify_s=16.0)
        assert record.total_s == 31.0

    def test_measured_record_carries_unify(self):
        step = trotter_step(nnn_ising(8, seed=0))
        record = measure_runtime("ising8", step, montreal(),
                                 mapping_trials=1)
        # the pass always runs for 2QAN, so a real (possibly tiny but
        # non-negative) measurement must land in the field
        assert record.unify_s >= 0.0
        assert "unify" in format_runtime_table([record])


class TestRuntimePayload:
    RECORD = RuntimeRecord("heis-10", 10, 51, mapping_s=0.02,
                           routing_s=0.004, scheduling_s=0.001,
                           decomposition_s=0.007, unify_s=0.003)

    def test_payload_round_trip(self):
        payload = runtime_records_payload([self.RECORD])
        assert payload[0]["unify_s"] == 0.003
        assert payload[0]["total_s"] == round(self.RECORD.total_s, 3)
        (rebuilt,) = runtime_records_from_payload(payload)
        assert rebuilt == self.RECORD

    def test_reader_tolerates_rows_without_unify(self):
        """Rows persisted before the unify_s column existed still load."""
        payload = runtime_records_payload([self.RECORD])
        old_row = {k: v for k, v in payload[0].items() if k != "unify_s"}
        (rebuilt,) = runtime_records_from_payload([old_row])
        assert rebuilt.unify_s == 0.0
        assert rebuilt.mapping_s == 0.02


class TestFormatting:
    def test_format_rows_missing_compiler_dash(self):
        rows = [BenchmarkRow("NNN_Ising", "d", "CNOT", 6, 0, "2qan",
                             1, 1, 10, 5, 8, 0.1)]
        table = format_rows(rows, "n_swaps", ("2qan", "tket"))
        assert "-" in table

    def test_format_rows_empty(self):
        assert format_rows([], "n_swaps") == "(no data)"

    def test_autodetect_compilers(self):
        rows = [
            BenchmarkRow("NNN_Ising", "d", "CNOT", 6, 0, "2qan",
                         1, 1, 10, 5, 8, 0.1),
            BenchmarkRow("NNN_Ising", "d", "CNOT", 6, 0, "nomap",
                         0, 0, 8, 4, 6, 0.1),
        ]
        table = format_rows(rows, "n_two_qubit_gates")
        assert "2qan" in table and "nomap" in table


class TestCrossSweepContamination:
    """Concatenated rows from unrelated sweeps must not silently average."""

    MIXED = [
        BenchmarkRow("NNN_Ising", "aspen-16", "CNOT", 6, 0, "2qan",
                     1, 1, 10, 5, 8, 0.1),
        BenchmarkRow("NNN_Heisenberg", "aspen-16", "CNOT", 6, 0, "2qan",
                     3, 2, 30, 15, 20, 0.1),
    ]

    def test_mixed_benchmarks_raise(self):
        with pytest.raises(AmbiguousRowsError):
            aggregate(self.MIXED, "2qan", 6, "n_swaps")

    def test_explicit_benchmark_filter_selects(self):
        value = aggregate(self.MIXED, "2qan", 6, "n_swaps",
                          benchmark="NNN_Ising")
        assert value == 1

    def test_mixed_devices_raise(self):
        rows = [
            BenchmarkRow("NNN_Ising", "aspen-16", "CNOT", 6, 0, "2qan",
                         1, 1, 10, 5, 8, 0.1),
            BenchmarkRow("NNN_Ising", "montreal-27", "CNOT", 6, 0, "2qan",
                         2, 1, 12, 6, 9, 0.1),
        ]
        with pytest.raises(AmbiguousRowsError):
            aggregate(rows, "2qan", 6, "n_swaps")
        assert aggregate(rows, "2qan", 6, "n_swaps",
                         device="montreal-27") == 2

    def test_mixed_gatesets_raise(self):
        rows = [
            BenchmarkRow("NNN_Ising", "aspen-16", "CNOT", 6, 0, "2qan",
                         1, 1, 10, 5, 8, 0.1),
            BenchmarkRow("NNN_Ising", "aspen-16", "CZ", 6, 0, "2qan",
                         1, 1, 20, 9, 12, 0.1),
        ]
        with pytest.raises(AmbiguousRowsError):
            aggregate(rows, "2qan", 6, "n_two_qubit_gates")
        assert aggregate(rows, "2qan", 6, "n_two_qubit_gates",
                         gateset="CZ") == 20

    def test_format_rows_propagates_ambiguity(self):
        with pytest.raises(AmbiguousRowsError):
            format_rows(self.MIXED, "n_swaps")

    def test_format_rows_with_filter(self):
        table = format_rows(self.MIXED, "n_swaps",
                            benchmark="NNN_Heisenberg")
        assert "3.0" in table

    def test_homogeneous_rows_unaffected(self):
        homogeneous = [r for r in self.MIXED if r.benchmark == "NNN_Ising"]
        assert aggregate(homogeneous, "2qan", 6, "n_swaps") == 1
