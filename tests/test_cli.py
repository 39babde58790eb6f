"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main, make_parser
from repro.core.registry import compiler_names
from repro.synthesis.templates import reset_default_templates


class TestParser:
    def test_defaults(self):
        args = make_parser().parse_args([])
        assert args.benchmark == "NNN_Heisenberg"
        assert args.device == "montreal"
        assert args.gateset == "CNOT"

    def test_invalid_benchmark(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--benchmark", "bogus"])

    def test_subcommand_defaults_are_its_own(self):
        args = make_parser().parse_args(["bind", "--bind", "t=1"])
        assert args.benchmark == "QAOA-REG-3"
        assert make_parser().parse_args(["compile"]).benchmark == \
            "NNN_Heisenberg"

    def test_root_options_before_subcommand_rejected(self, capsys):
        """They would be silently replaced by the subcommand's defaults."""
        with pytest.raises(SystemExit) as exc:
            main(["--device", "aspen", "sweep"])
        assert exc.value.code == 2
        assert "before a subcommand" in capsys.readouterr().err


class TestMain:
    def test_basic_run(self, capsys):
        code = main(["--benchmark", "NNN_Ising", "--qubits", "6",
                     "--device", "aspen", "--gateset", "ISWAP",
                     "--mapping-trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2QAN:" in out
        assert "swaps=" in out

    def test_compare_mode(self, capsys):
        code = main(["--benchmark", "NNN_Ising", "--qubits", "6",
                     "--device", "aspen", "--mapping-trials", "1",
                     "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NoMap" in out
        assert "tket-like" in out

    def test_all_to_all_device(self, capsys):
        code = main(["--qubits", "6", "--device", "all-to-all",
                     "--mapping-trials", "1"])
        assert code == 0

    def test_too_many_qubits(self, capsys):
        code = main(["--qubits", "30", "--device", "montreal"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCompileCommand:
    def test_defaults(self):
        args = make_parser().parse_args(["compile"])
        assert args.compiler == "2qan"

    def test_unknown_compiler_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["compile", "--compiler", "bogus"])

    def test_registry_compiler_runs(self, capsys):
        code = main(["compile", "--compiler", "tket", "--benchmark",
                     "NNN_Ising", "--qubits", "6", "--device", "aspen"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tket:" in out
        assert "pass timings:" in out

    def test_alias_accepted(self, capsys):
        code = main(["compile", "--compiler", "qaoa_ic", "--benchmark",
                     "NNN_Ising", "--qubits", "6", "--device", "aspen"])
        assert code == 0
        assert "qaoa_ic:" in capsys.readouterr().out

    def test_json_output_has_timings(self, capsys):
        code = main(["compile", "--compiler", "nomap", "--benchmark",
                     "NNN_Ising", "--qubits", "6", "--device", "aspen",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compiler"] == "nomap"
        assert set(payload["timings"]) == {
            "unify", "scheduling", "binding", "decomposition"
        }

    def test_list_compilers(self, capsys):
        assert main(["compile", "--list-compilers"]) == 0
        out = capsys.readouterr().out
        for name in ("2qan", "tket", "qiskit", "ic_qaoa", "nomap",
                     "paulihedral"):
            assert name in out

    def test_device_free_compiler_ignores_device_size(self, capsys):
        """NoMap/Paulihedral compile above the named device's size."""
        code = main(["compile", "--compiler", "nomap", "--benchmark",
                     "NNN_Ising", "--qubits", "30", "--device",
                     "montreal"])
        assert code == 0
        assert "all-to-all-30" in capsys.readouterr().out

    def test_gateset_free_compiler_not_mislabelled(self, capsys):
        """Paulihedral ignores --gateset; output must not claim a basis."""
        code = main(["compile", "--compiler", "paulihedral", "--benchmark",
                     "NNN_Ising", "--qubits", "6", "--gateset", "SYC",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gateset"] is None

    def test_incompatible_benchmark_reports_error(self, capsys):
        code = main(["compile", "--compiler", "ic_qaoa", "--benchmark",
                     "NNN_Heisenberg", "--qubits", "6", "--device",
                     "aspen"])
        assert code == 1
        assert "commuting" in capsys.readouterr().err

    def test_too_many_qubits(self, capsys):
        code = main(["compile", "--qubits", "30", "--device", "montreal"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSweepParser:
    def test_defaults(self):
        args = make_parser().parse_args(["sweep"])
        assert args.sizes == "6,10,14"
        assert args.jobs is None
        assert args.store is None

    def test_invalid_device(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["sweep", "--device", "bogus"])


class TestSweepCommand:
    ARGS = ["sweep", "--benchmark", "NNN_Ising", "--device", "aspen",
            "--gateset", "CNOT", "--sizes", "6", "--compilers",
            "2qan,nomap", "--jobs", "1"]

    def test_text_tables(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "[n_swaps]" in out
        assert "2qan" in out and "nomap" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {r["compiler"] for r in rows} == {"2qan", "nomap"}
        assert all(r["benchmark"] == "NNN_Ising" for r in rows)
        # sweep rows carry per-pass timings for every compiler
        for row in rows:
            assert "decomposition" in row["timings"]

    def test_pass_timings_table(self, capsys):
        assert main(self.ARGS + ["--pass-timings"]) == 0
        out = capsys.readouterr().out
        assert "[pass seconds]" in out
        assert "mapping" in out and "decomposition" in out

    def test_aliases_canonicalized_not_duplicated(self, capsys):
        """'tket,order' is one compiler, computed and shown once."""
        args = ["sweep", "--benchmark", "NNN_Ising", "--device", "aspen",
                "--sizes", "6", "--compilers", "tket,order", "--jobs", "1",
                "--json"]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["compiler"] for r in rows] == ["tket"]

    def test_store_resume(self, tmp_path, capsys):
        store_args = self.ARGS + ["--store", str(tmp_path)]
        assert main(store_args) == 0
        stored = list(tmp_path.glob("sweep-*.jsonl"))
        assert len(stored) == 1
        first = stored[0].read_text()
        assert main(store_args) == 0
        # second run recomputed nothing: the store file is unchanged
        assert stored[0].read_text() == first

    def test_bad_sizes(self, capsys):
        code = main(["sweep", "--sizes", "six"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_compiler(self, capsys):
        code = main(["sweep", "--compilers", "2qan,bogus"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_metric_rejected_before_compute(self, capsys):
        code = main(["sweep", "--metrics", "n_swap"])
        assert code == 1
        assert "n_swap" in capsys.readouterr().err

    def test_help_mentions_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "sweep" in capsys.readouterr().out

    def test_oversized_sweep_rejected(self, capsys):
        code = main(["sweep", "--device", "aspen", "--sizes", "30"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_zero_instances_rejected(self, capsys):
        code = main(["sweep", "--instances", "0"])
        assert code == 1
        assert "--instances" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, capsys):
        code = main(["sweep", "--jobs", "0"])
        assert code == 1
        assert "--jobs" in capsys.readouterr().err


class TestSweepCache:
    ARGS = ["sweep", "--benchmark", "NNN_Ising", "--device", "aspen",
            "--sizes", "6", "--compilers", "2qan,tket", "--jobs", "1"]

    def test_cache_counters_in_pass_timings(self, tmp_path, capsys):
        args = self.ARGS + ["--cache", str(tmp_path), "--pass-timings"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[cache counters]" in out
        assert "artifact_hits" in out
        assert "decompose_misses" in out

    def test_second_run_hits_cache(self, tmp_path, capsys):
        args = self.ARGS + ["--cache", str(tmp_path), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        # metrics identical; warm rows report only artifact hits
        for cold, warm in zip(first, second):
            assert cold["n_two_qubit_gates"] == warm["n_two_qubit_gates"]
            assert warm["cache_stats"]["artifact_misses"] == 0
            assert warm["cache_stats"]["artifact_hits"] > 0

    def test_no_cache_flag_records_no_artifact_counters(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert "artifact_hits" not in row["cache_stats"]
            assert "decompose_misses" in row["cache_stats"]


class TestBatchCommand:
    def _write_requests(self, tmp_path, payload):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(payload))
        return str(path)

    REQUESTS = [
        {"compiler": "2qan", "benchmark": "NNN_Ising", "n_qubits": 6,
         "device": "aspen", "gateset": "CNOT", "seed": 0},
        {"compiler": "tket", "benchmark": "NNN_Ising", "n_qubits": 6,
         "device": "aspen", "gateset": "CNOT", "seed": 0},
        {"compiler": "order", "benchmark": "NNN_Ising", "n_qubits": 6,
         "device": "aspen", "gateset": "CNOT", "seed": 0},
    ]

    def test_parser_requires_requests(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["batch"])

    def test_text_output_marks_duplicates(self, tmp_path, capsys):
        path = self._write_requests(tmp_path, self.REQUESTS)
        assert main(["batch", "--requests", path]) == 0
        captured = capsys.readouterr()
        assert "(deduplicated)" in captured.out
        assert "3 requests (2 unique)" in captured.err

    def test_json_deterministic_across_cache_states(self, tmp_path, capsys):
        path = self._write_requests(tmp_path, self.REQUESTS)
        cache = str(tmp_path / "cache")
        assert main(["batch", "--requests", path, "--cache", cache,
                     "--json"]) == 0
        cold = capsys.readouterr()
        assert main(["batch", "--requests", path, "--cache", cache,
                     "--json"]) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out          # byte-identical responses
        assert json.loads(cold.out)[0]["n_swaps"] >= 0
        assert "artifact hits: 0" not in warm.err

    def test_missing_file_reports_error(self, capsys):
        assert main(["batch", "--requests", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_field_reports_error(self, tmp_path, capsys):
        path = self._write_requests(tmp_path, [{"qubits": 6}])
        assert main(["batch", "--requests", path]) == 1
        assert "qubits" in capsys.readouterr().err

    def test_empty_list_reports_error(self, tmp_path, capsys):
        path = self._write_requests(tmp_path, [])
        assert main(["batch", "--requests", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_request_reports_error(self, tmp_path, capsys):
        path = self._write_requests(
            tmp_path, [{"compiler": "2qan", "n_qubits": 99,
                        "device": "aspen"}])
        assert main(["batch", "--requests", path]) == 1
        assert "exceed" in capsys.readouterr().err

    def test_failing_request_does_not_abort_batch(self, tmp_path, capsys):
        """One bad request: the good one is still served, the failure
        lands on stderr (and as a FAILED row) and the exit code is 1."""
        path = self._write_requests(tmp_path, [
            self.REQUESTS[0],
            {"compiler": "bogus", "benchmark": "NNN_Ising", "n_qubits": 6},
        ])
        assert main(["batch", "--requests", path]) == 1
        captured = capsys.readouterr()
        assert "swaps=" in captured.out        # the good row was served
        assert "FAILED" in captured.out
        assert "bogus" in captured.err
        assert "1 failed" in captured.err

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        path = self._write_requests(tmp_path, self.REQUESTS[:1])
        assert main(["batch", "--requests", path, "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err


class TestDeviceFreeSweep:
    def test_all_device_free_sweep_ignores_device_cap(self, capsys):
        code = main(["sweep", "--benchmark", "NNN_Ising", "--device",
                     "montreal", "--sizes", "30", "--compilers",
                     "nomap,paulihedral", "--jobs", "1", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["compiler"] for r in rows} == {"nomap", "paulihedral"}
        assert all(r["device"] == "all-to-all-30" for r in rows)

    def test_mixed_sweep_still_capped(self, capsys):
        code = main(["sweep", "--benchmark", "NNN_Ising", "--device",
                     "montreal", "--sizes", "30", "--compilers",
                     "2qan,nomap", "--jobs", "1"])
        assert code == 1
        assert "exceed" in capsys.readouterr().err


class TestCompileBind:
    ARGS = ["compile", "--compiler", "2qan", "--benchmark", "QAOA-REG-3",
            "--qubits", "6"]

    def test_bind_matches_concrete_compile(self, capsys):
        # fresh template memos: cache_stats must not depend on which
        # compiles ran earlier in the process
        reset_default_templates()
        assert main(self.ARGS + ["--json"]) == 0
        concrete = json.loads(capsys.readouterr().out)
        reset_default_templates()
        assert main(self.ARGS + ["--bind", "gamma=0.35,beta=-0.39",
                                 "--json"]) == 0
        bound = json.loads(capsys.readouterr().out)
        assert bound.pop("parameters") == {"gamma": 0.35, "beta": -0.39}
        # identical apart from wall times
        concrete.pop("timings")
        bound.pop("timings")
        assert bound == concrete

    def test_bind_text_output_reports_angles(self, capsys):
        assert main(self.ARGS + ["--bind", "gamma=0.4,beta=1.1"]) == 0
        out = capsys.readouterr().out
        assert "bound: gamma=0.4, beta=1.1" in out

    def test_bad_bind_syntax_rejected(self, capsys):
        assert main(self.ARGS + ["--bind", "gamma"]) == 1
        assert "expected name=value" in capsys.readouterr().err
        assert main(self.ARGS + ["--bind", "gamma=x"]) == 1
        assert "expected a number" in capsys.readouterr().err

    def test_missing_parameter_reported(self, capsys):
        assert main(self.ARGS + ["--bind", "gamma=0.4"]) == 1
        assert "beta" in capsys.readouterr().err


class TestBindCommand:
    ARGS = ["bind", "--compiler", "2qan", "--benchmark", "QAOA-REG-3",
            "--qubits", "6"]

    def test_multiple_bindings_one_structural_compile(self, capsys):
        assert main(self.ARGS + ["--bind", "gamma=0.35,beta=-0.39",
                                 "--bind", "gamma=0.7,beta=0.2"]) == 0
        out = capsys.readouterr().out
        assert "structural: unify+mapping+routing+scheduling" in out
        assert out.count("bind gamma=") == 2

    def test_json_payload(self, capsys):
        assert main(self.ARGS + ["--bind", "gamma=0.35,beta=-0.39",
                                 "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["structural_passes"] == [
            "unify", "mapping", "routing", "scheduling"]
        (binding,) = payload["bindings"]
        assert binding["parameters"] == {"gamma": 0.35, "beta": -0.39}
        assert binding["n_two_qubit_gates"] > 0

    def test_json_metrics_match_compile(self, capsys):
        assert main(["compile", "--compiler", "2qan", "--benchmark",
                     "QAOA-REG-3", "--qubits", "6", "--json"]) == 0
        concrete = json.loads(capsys.readouterr().out)
        assert main(self.ARGS + ["--bind", "gamma=0.35,beta=-0.39",
                                 "--json"]) == 0
        (binding,) = json.loads(capsys.readouterr().out)["bindings"]
        for field in ("n_swaps", "n_dressed", "n_two_qubit_gates",
                      "two_qubit_depth", "total_depth", "qap_cost"):
            assert binding[field] == concrete[field]

    def test_bind_required(self):
        with pytest.raises(SystemExit):
            main(self.ARGS)

    def test_missing_parameter_reported(self, capsys):
        assert main(self.ARGS + ["--bind", "beta=0.1"]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_help_mentions_bind(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "repro bind" in capsys.readouterr().out


class TestNonFiniteBindings:
    @pytest.mark.parametrize("command", ["compile", "bind"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_rejected_naming_the_parameter(self, command, value, capsys):
        code = main([command, "--benchmark", "NNN_Ising", "--qubits", "6",
                     "--device", "aspen", "--bind", f"t={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad --bind" in err
        assert "t must be finite" in err


class TestSizesBelowTwo:
    """Every front end reports an impossible size as one error line."""

    @pytest.mark.parametrize("argv", [
        ["--qubits", "0"],
        ["compile", "--qubits", "0"],
        ["compile", "--qubits", "1", "--benchmark", "QAOA-ER"],
        ["bind", "--qubits", "0", "--bind", "gamma=1,beta=1"],
        ["bind", "--qubits", "-1", "--benchmark", "NNN_Ising",
         "--bind", "t=1"],
        ["sweep", "--sizes", "0", "--compilers", "nomap", "--jobs", "1"],
    ])
    def test_cli_exits_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "at least 2 qubits" in err

    def test_impossible_regular_graph(self, capsys):
        assert main(["compile", "--benchmark", "QAOA-REG-3",
                     "--qubits", "2"]) == 1
        assert "no QAOA-REG-3 instance on 2 qubits" in capsys.readouterr().err

    def test_batch_request(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"n_qubits": 0}]))
        assert main(["batch", "--requests", str(path)]) == 1
        assert "at least 2 qubits" in capsys.readouterr().err


class TestMappingTrialsBelowOne:
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_cli_exits_one(self, trials, capsys):
        assert main(["--benchmark", "NNN_Ising", "--qubits", "6",
                     "--device", "montreal", "--mapping-trials",
                     trials]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "at least 1 trial" in err
        assert "Traceback" not in err


class TestFrontEndsAgree:
    """'repro compile --json' and the service resolve the same target
    and report the same metrics."""

    FIELDS = ("n_swaps", "n_dressed", "n_two_qubit_gates",
              "two_qubit_depth", "total_depth", "qap_cost")

    def _both(self, capsys, compiler, n_qubits, device):
        from repro.service.batch import CompileRequest, execute_request

        assert main(["compile", "--compiler", compiler, "--benchmark",
                     "NNN_Ising", "--qubits", str(n_qubits), "--device",
                     device, "--gateset", "CNOT", "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)
        served = execute_request(CompileRequest(
            compiler=compiler, benchmark="NNN_Ising", n_qubits=n_qubits,
            device=device.upper(), gateset="CNOT", seed=0)).to_dict()
        return ({f: cli[f] for f in self.FIELDS},
                {f: served[f] for f in self.FIELDS})

    @pytest.mark.parametrize("compiler", compiler_names())
    def test_every_registry_compiler_on_aspen(self, compiler, capsys):
        cli, served = self._both(capsys, compiler, 6, "aspen")
        assert cli == served

    def test_all_to_all(self, capsys):
        cli, served = self._both(capsys, "2qan", 6, "all-to-all")
        assert cli == served
        assert cli["n_swaps"] == 0

    def test_device_free_compiler_on_too_small_device(self, capsys):
        cli, served = self._both(capsys, "nomap", 20, "aspen")
        assert cli == served


class TestClosedStdout:
    """``repro ... | head`` closes stdout early: exit 1, no traceback."""

    def test_broken_pipe_exits_quietly(self):
        # ~84 KB of JSON outgrows the pipe, so the writer is still
        # blocked on it when the reader goes away
        bindings = [arg for i in range(300)
                    for arg in ("--bind", f"gamma={i / 300},beta=0.2")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(Path(__file__).parents[1] / "src"),
                       os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "bind", "--benchmark",
             "QAOA-REG-3", "--qubits", "6", "--device", "aspen", "--json",
             *bindings],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in err
        assert b"BrokenPipeError" not in err
