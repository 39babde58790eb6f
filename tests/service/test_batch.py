"""Tests for the batch compilation service."""

import json

import pytest

from repro.service.batch import (
    BatchCompiler,
    CompileRequest,
    execute_request,
    load_requests,
    request_from_dict,
)

REQS = [
    CompileRequest(compiler="2qan", benchmark="NNN_Ising", n_qubits=6,
                   device="aspen", gateset="CNOT", seed=0),
    CompileRequest(compiler="tket", benchmark="NNN_Ising", n_qubits=6,
                   device="aspen", gateset="CNOT", seed=0),
]


class TestRequest:
    def test_from_dict_defaults(self):
        request = request_from_dict({"compiler": "tket"})
        assert request.benchmark == "NNN_Heisenberg"
        assert request.n_qubits == 8

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="qubits"):
            request_from_dict({"qubits": 6})

    def test_from_dict_rejects_wrong_types(self):
        """Bad values fail at parse time with a clear message, not as a
        traceback from deep inside a worker."""
        with pytest.raises(ValueError, match="n_qubits"):
            request_from_dict({"n_qubits": "6"})
        with pytest.raises(ValueError, match="compiler"):
            request_from_dict({"compiler": 7})
        with pytest.raises(ValueError, match="seed"):
            request_from_dict({"seed": True})

    def test_alias_dedupes_to_canonical(self):
        assert CompileRequest(compiler="tket").key() == \
            CompileRequest(compiler="order").key()

    def test_device_free_compiler_ignores_device_in_key(self):
        assert CompileRequest(compiler="nomap", device="aspen").key() == \
            CompileRequest(compiler="nomap", device="montreal").key()

    def test_gateset_free_compiler_ignores_gateset_in_key(self):
        a = CompileRequest(compiler="paulihedral", gateset="CNOT")
        b = CompileRequest(compiler="paulihedral", gateset="SYC")
        assert a.key() == b.key()

    def test_distinct_requests_distinct_keys(self):
        assert CompileRequest(seed=0).key() != CompileRequest(seed=1).key()

    def test_device_name_case_folded_in_key(self):
        """by_name folds case, so 'Montreal' and 'montreal' are one
        compile."""
        assert CompileRequest(device="Montreal").key() == \
            CompileRequest(device="montreal").key()

    def test_gateset_name_case_folded_in_key(self):
        """get_gateset folds case, so 'cnot' and 'CNOT' are one
        compile."""
        assert CompileRequest(gateset="cnot").key() == \
            CompileRequest(gateset="CNOT").key()

    def test_qaoa_degree_ignored_for_non_qaoa_benchmarks(self):
        a = CompileRequest(benchmark="NNN_Ising", qaoa_degree=3)
        b = CompileRequest(benchmark="NNN_Ising", qaoa_degree=4)
        assert a.key() == b.key()
        qa = CompileRequest(benchmark="QAOA-REG-3", qaoa_degree=3)
        qb = CompileRequest(benchmark="QAOA-REG-3", qaoa_degree=4)
        assert qa.key() != qb.key()

    def test_load_requests(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"compiler": "2qan", "n_qubits": 6}]))
        requests = load_requests(path)
        assert requests == [CompileRequest(compiler="2qan", n_qubits=6)]

    def test_load_requests_rejects_non_list(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"compiler": "2qan"}))
        with pytest.raises(ValueError, match="list"):
            load_requests(path)

    def test_load_requests_rejects_non_object_item(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"compiler": "2qan"}, "tket"]))
        with pytest.raises(ValueError, match="request #1"):
            load_requests(path)


class TestExecuteRequest:
    def test_matches_direct_compilation(self):
        from repro.analysis.harness import build_step
        from repro.core.registry import get_compiler
        from repro.devices.library import aspen

        request = REQS[0]
        response = execute_request(request)
        step = build_step("NNN_Ising", 6, 0)
        direct = get_compiler("2qan", device=aspen(), gateset="CNOT",
                              seed=0).compile(step)
        assert response.n_two_qubit_gates == direct.metrics.n_two_qubit_gates
        assert response.n_swaps == direct.metrics.n_swaps

    def test_oversized_request_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            execute_request(CompileRequest(n_qubits=99, device="aspen"))

    @pytest.mark.parametrize("n_qubits", [-1, 0, 1])
    def test_size_below_two_raises(self, n_qubits):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            execute_request(CompileRequest(n_qubits=n_qubits))

    def test_device_free_compiler_any_size(self):
        response = execute_request(CompileRequest(
            compiler="nomap", benchmark="NNN_Ising", n_qubits=40))
        assert response.n_swaps == 0

    def test_all_to_all_device_accepted(self):
        """'all-to-all' resolves like the compile CLI: sized to the
        problem, any compiler, zero SWAPs needed."""
        response = execute_request(CompileRequest(
            compiler="2qan", benchmark="NNN_Ising", n_qubits=20,
            device="all-to-all"))
        assert response.n_swaps == 0

    def test_all_to_all_case_insensitive(self):
        """Execution folds case exactly as key() does, so dedupe-equal
        requests never execute differently."""
        response = execute_request(CompileRequest(
            compiler="2qan", benchmark="NNN_Ising", n_qubits=6,
            device="All-To-All"))
        assert response.n_swaps == 0

    def test_to_dict_deterministic_fields_only(self):
        payload = execute_request(REQS[0]).to_dict()
        assert "seconds" not in payload
        assert "timings" not in payload
        assert payload["n_qubits"] == 6

    def test_to_dict_carries_request_key(self):
        """Clients correlate responses on request_key instead of
        recomputing key() themselves."""
        payload = execute_request(REQS[0]).to_dict()
        assert payload["request_key"] == REQS[0].key()

    def test_request_key_threaded_through_is_not_recomputed(self):
        response = execute_request(REQS[0], request_key="precomputed")
        assert response.to_dict()["request_key"] == "precomputed"

    def test_batch_duplicates_share_request_key(self):
        responses, _ = BatchCompiler().run([REQS[0], REQS[0]])
        first, second = [r.to_dict() for r in responses]
        assert first["request_key"] == second["request_key"]
        assert responses[1].deduplicated

    def test_uncomputable_key_serialises_as_none(self):
        from repro.service.batch import error_response

        bogus = CompileRequest(compiler="bogus")
        responses, summary = BatchCompiler().run([bogus])
        assert summary.n_failed == 1
        assert responses[0].to_dict()["request_key"] is None
        assert error_response(bogus, ValueError("x")).to_dict()[
            "request_key"] is None


class TestBatchCompiler:
    def test_responses_in_request_order(self):
        responses, summary = BatchCompiler().run(REQS)
        assert [r.request for r in responses] == REQS
        assert summary.n_requests == 2 and summary.n_unique == 2

    def test_duplicates_compiled_once(self):
        doubled = REQS + [REQS[0]]
        responses, summary = BatchCompiler().run(doubled)
        assert summary.n_unique == 2
        assert not responses[0].deduplicated
        assert responses[2].deduplicated
        assert responses[2].n_swaps == responses[0].n_swaps

    def test_alias_duplicate_detected(self):
        aliased = [REQS[1],
                   CompileRequest(compiler="order", benchmark="NNN_Ising",
                                  n_qubits=6, device="aspen",
                                  gateset="CNOT", seed=0)]
        responses, summary = BatchCompiler().run(aliased)
        assert summary.n_unique == 1
        # the served response still echoes the request as written
        assert responses[1].request.compiler == "order"

    def test_warm_batch_hits_cache(self, tmp_path):
        service = BatchCompiler(cache_dir=tmp_path)
        _, cold = service.run(REQS)
        warm_responses, warm = service.run(REQS)
        assert cold.artifact_misses > 0
        assert warm.artifact_misses == 0
        assert warm.artifact_hits > 0
        assert all(set(r.cache_events.values()) == {"hit"}
                   for r in warm_responses)

    def test_cache_persists_across_service_instances(self, tmp_path):
        BatchCompiler(cache_dir=tmp_path).run(REQS)
        _, warm = BatchCompiler(cache_dir=tmp_path).run(REQS)
        assert warm.artifact_misses == 0

    def test_cache_dir_salted_with_source_digest(self, tmp_path):
        """The documented invalidation rule is enforced at construction:
        persistent artifacts never outlive the code that made them."""
        from repro.analysis.store import source_digest

        service = BatchCompiler(cache_dir=tmp_path)
        assert service.cache_dir == tmp_path / source_digest()
        service.run(REQS[:1])
        assert any((tmp_path / source_digest()).rglob("*.pkl"))

    def test_reconstruction_does_not_double_salt(self, tmp_path):
        """A service built from another's cache_dir (or
        dataclasses.replace) must keep serving the same warm cache."""
        import dataclasses

        first = BatchCompiler(cache_dir=tmp_path)
        first.run(REQS)
        rebuilt = dataclasses.replace(BatchCompiler(cache_dir=tmp_path),
                                      jobs=1)
        assert rebuilt.cache_dir == first.cache_dir
        _, warm = BatchCompiler(cache_dir=first.cache_dir).run(REQS)
        assert warm.artifact_misses == 0

    def test_memory_only_cache_still_shared_within_batch(self):
        _, summary = BatchCompiler().run(REQS)
        assert summary.artifact_hits > 0   # tket reuses 2qan's unify

    def test_metrics_identical_cold_and_warm(self, tmp_path):
        service = BatchCompiler(cache_dir=tmp_path)
        cold_responses, _ = service.run(REQS)
        warm_responses, _ = service.run(REQS)
        assert [r.to_dict() for r in cold_responses] == \
            [r.to_dict() for r in warm_responses]

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, _ = BatchCompiler().run(REQS)
        parallel, summary = BatchCompiler(jobs=2,
                                          cache_dir=tmp_path).run(REQS)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in parallel]

    def test_parallel_without_cache_dir_still_caches(self):
        """Workers without a disk layer keep a private memory cache:
        every response carries cache events, not silent no-caching."""
        responses, _ = BatchCompiler(jobs=2).run(REQS)
        assert all(r.cache_events for r in responses)

class TestFailureIsolation:
    BAD = CompileRequest(n_qubits=99, device="aspen")

    def test_bad_request_yields_error_response(self):
        responses, summary = BatchCompiler().run([self.BAD])
        assert responses[0].failed
        assert "exceed" in responses[0].error
        assert summary.n_failed == 1
        assert "1 failed" in summary.line()

    def test_failure_does_not_abort_the_batch(self):
        """Completed responses are drained around the failing one."""
        responses, summary = BatchCompiler().run(
            [REQS[0], self.BAD, REQS[1]])
        assert [r.failed for r in responses] == [False, True, False]
        assert responses[0].n_two_qubit_gates > 0
        assert responses[2].n_two_qubit_gates > 0
        assert summary.n_failed == 1

    def test_parallel_failure_isolated(self, tmp_path):
        serial, _ = BatchCompiler().run([REQS[0], self.BAD, REQS[1]])
        parallel, summary = BatchCompiler(jobs=2, cache_dir=tmp_path).run(
            [REQS[0], self.BAD, REQS[1]])
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in parallel]
        assert summary.n_failed == 1

    def test_failed_duplicates_share_the_error(self):
        responses, summary = BatchCompiler().run([self.BAD, self.BAD])
        assert responses[1].deduplicated
        assert responses[1].failed
        assert summary.n_failed == 2
        assert summary.n_unique == 1

    def test_unknown_compiler_isolated_not_traceback(self):
        """A request whose dedupe key cannot even be computed (unknown
        compiler name) is a per-request failure, not a batch abort."""
        responses, summary = BatchCompiler().run(
            [REQS[0], CompileRequest(compiler="bogus")])
        assert not responses[0].failed
        assert responses[1].failed
        assert "bogus" in responses[1].error
        assert summary.n_failed == 1
        assert summary.n_unique == 1     # the bogus request never dedupes

    def test_error_in_to_dict_only_when_failed(self):
        responses, _ = BatchCompiler().run([REQS[0], self.BAD])
        assert "error" not in responses[0].to_dict()
        assert "exceed" in responses[1].to_dict()["error"]

    def test_success_summary_line_unchanged(self):
        _, summary = BatchCompiler().run(REQS[:1])
        assert "failed" not in summary.line()


class TestParameterisedRequests:
    BASE = {"compiler": "2qan", "benchmark": "QAOA-REG-3", "n_qubits": 6,
            "device": "montreal", "gateset": "CNOT", "seed": 0}

    def test_from_dict_parses_parameters(self):
        request = request_from_dict(
            {**self.BASE, "parameters": {"gamma": 0.4, "beta": 1}})
        assert request.parameters == (("beta", 1.0), ("gamma", 0.4))
        assert request.binding() == {"gamma": 0.4, "beta": 1.0}

    def test_from_dict_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="parameters"):
            request_from_dict({**self.BASE, "parameters": [0.4]})
        with pytest.raises(ValueError, match="gamma"):
            request_from_dict({**self.BASE, "parameters": {"gamma": "x"}})
        with pytest.raises(ValueError, match="gamma"):
            request_from_dict({**self.BASE, "parameters": {"gamma": True}})
        with pytest.raises(ValueError, match="names"):
            request_from_dict({**self.BASE, "parameters": {"": 1.0}})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1" + "0" * 400])
    def test_from_dict_rejects_non_finite_parameters(self, literal):
        # json.loads accepts these literals; the request must not
        payload = json.loads(
            f'{{"gamma": 0.4, "beta": {literal}}}')
        with pytest.raises(ValueError, match="'beta' must be finite"):
            request_from_dict({**self.BASE, "parameters": payload})

    def test_concrete_key_unchanged_by_field_addition(self):
        # concrete requests must keep their historical dedupe keys, so a
        # parameters-free request hashes without the field entirely
        concrete = request_from_dict(self.BASE)
        bound = request_from_dict(
            {**self.BASE, "parameters": {"gamma": 0.4, "beta": 1.1}})
        assert concrete.key() != bound.key()
        assert "parameters" not in concrete.to_dict()
        assert bound.to_dict()["parameters"] == {"gamma": 0.4, "beta": 1.1}

    def test_structural_key_collapses_angle_values(self):
        a = request_from_dict(
            {**self.BASE, "parameters": {"gamma": 0.4, "beta": 1.1}})
        b = request_from_dict(
            {**self.BASE, "parameters": {"gamma": -2.0, "beta": 0.0}})
        assert a.key() != b.key()
        assert a.structural_key() == b.structural_key()
        # ...but not across different structures
        other = request_from_dict(
            {**self.BASE, "n_qubits": 8,
             "parameters": {"gamma": 0.4, "beta": 1.1}})
        assert other.structural_key() != a.structural_key()

    def test_qaoa_degree_consumed_by_weighted_regular_family(self):
        base = {**self.BASE, "benchmark": "QAOA-WR-3"}
        a = request_from_dict({**base, "qaoa_degree": 3})
        b = request_from_dict({**base, "qaoa_degree": 4})
        assert a.key() != b.key()
        er = {**self.BASE, "benchmark": "QAOA-ER"}
        assert request_from_dict({**er, "qaoa_degree": 3}).key() == \
            request_from_dict({**er, "qaoa_degree": 4}).key()

    def test_bound_request_matches_concrete_compile(self):
        # the default sweep angles bound late must reproduce the
        # concrete benchmark's metrics exactly
        concrete = execute_request(request_from_dict(self.BASE))
        bound = execute_request(request_from_dict(
            {**self.BASE, "parameters": {"gamma": 0.35, "beta": -0.39}}))
        assert (bound.n_swaps, bound.n_dressed, bound.n_two_qubit_gates,
                bound.two_qubit_depth, bound.total_depth, bound.qap_cost) \
            == (concrete.n_swaps, concrete.n_dressed,
                concrete.n_two_qubit_gates, concrete.two_qubit_depth,
                concrete.total_depth, concrete.qap_cost)

    def test_batch_coalesces_structural_compiles(self):
        requests = [
            request_from_dict(
                {**self.BASE, "parameters": {"gamma": g, "beta": b}})
            for g, b in [(0.35, -0.39), (0.7, 0.1), (1.2, 0.4)]
        ]
        structurals: dict = {}
        responses = [execute_request(r, None, structurals)
                     for r in requests]
        # three bindings, one structural compile
        assert len(structurals) == 1
        assert len({r.n_swaps for r in responses}) == 1
        # and the structural fast path agrees with the plain path
        plain = execute_request(requests[0])
        assert responses[0].n_swaps == plain.n_swaps
        assert responses[0].n_two_qubit_gates == plain.n_two_qubit_gates

    def test_structural_hit_skips_problem_construction(self, monkeypatch):
        import repro.analysis.harness as harness
        from repro.core.cancel import CancelToken, CompilationCancelled

        first, second = (
            request_from_dict({**self.BASE, "parameters": angles})
            for angles in ({"gamma": 0.35, "beta": -0.39},
                           {"gamma": 0.7, "beta": 0.2}))
        structurals: dict = {}
        execute_request(first, None, structurals)

        def rebuilt(*args, **kwargs):
            raise AssertionError("structural hit rebuilt the problem")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "build_symbolic_step", rebuilt)
            hit = execute_request(second, None, structurals)
            token = CancelToken()
            token.cancel()
            with pytest.raises(CompilationCancelled):
                execute_request(second, None, structurals, cancel=token)
        assert len(structurals) == 1
        fresh = execute_request(second)
        assert hit.to_dict() == fresh.to_dict()

    def test_batch_run_serves_mixed_batches(self):
        requests = [
            request_from_dict(self.BASE),
            request_from_dict(
                {**self.BASE, "parameters": {"gamma": 0.35, "beta": -0.39}}),
            request_from_dict(
                {**self.BASE, "parameters": {"gamma": 0.7, "beta": 0.2}}),
        ]
        responses, summary = BatchCompiler().run(requests)
        assert summary.n_failed == 0
        assert summary.n_unique == 3
        assert [r.failed for r in responses] == [False, False, False]
        assert responses[0].n_swaps == responses[1].n_swaps

    def test_missing_parameter_is_isolated_failure(self):
        responses, summary = BatchCompiler().run([
            request_from_dict(self.BASE),
            request_from_dict({**self.BASE, "parameters": {"gamma": 0.4}}),
        ])
        assert summary.n_failed == 1
        assert not responses[0].failed
        assert responses[1].failed
        assert "beta" in responses[1].error
