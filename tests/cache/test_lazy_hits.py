"""Lazy cache hits: a warm stage unpickles only the fields someone reads.

A hit binds each stored field as a :class:`Deferred` holding its pickled
bytes.  A field is loaded when a missing pass reads it, when a content
hash needs it, or when a caller reads the result attribute -- and a
warm output is the cold output either way.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.analysis.harness import build_step
from repro.cache.cached import CachedPipeline, compile_cached, context_key
from repro.cache.fingerprint import fingerprint
from repro.cache.store import ArtifactCache
from repro.core.metrics import CircuitMetrics
from repro.core.pipeline import (
    CompilationContext,
    Deferred,
    PassPipeline,
    run_pipeline,
)
from repro.core.registry import get_compiler
from repro.devices.library import aspen
from repro.perf_smoke import circuits_identical
from repro.service.batch import CompileRequest, execute_request
from repro.synthesis.gateset import get_gateset

#: 2qan, a baseline whose one pass writes ``app_circuit is circuit``,
#: and a baseline without a scheduling pass.
COMPILERS = ("2qan", "paulihedral", "tket")


@pytest.fixture()
def step():
    return build_step("NNN_Ising", 6, 3)


@pytest.fixture()
def loads(monkeypatch):
    """Every value a :class:`Deferred` loads, in load order."""
    loaded = []
    load = Deferred.load

    def counting(self):
        value = load(self)
        loaded.append(value)
        return value

    monkeypatch.setattr(Deferred, "load", counting)
    return loaded


def _compiler(name="2qan", gateset="CNOT", seed=1):
    return get_compiler(name, device=aspen(), gateset=gateset, seed=seed)


def _maps(mapping):
    return None if mapping is None else mapping.logical_to_physical


def _optional_fingerprint(value):
    return None if value is None else fingerprint(value)


def _assert_same_result(got, want):
    """Every result field of ``got`` equals ``want``'s, bit for bit."""
    assert circuits_identical(got.circuit, want.circuit)
    assert (got.app_circuit is None) == (want.app_circuit is None)
    if want.app_circuit is not None:
        assert circuits_identical(got.app_circuit, want.app_circuit)
    assert got.metrics == want.metrics
    assert repr(got.qap_cost) == repr(want.qap_cost)    # NaN-safe
    assert (got.n_swaps, got.n_dressed) == (want.n_swaps, want.n_dressed)
    assert _maps(got.initial_map) == _maps(want.initial_map)
    assert _maps(got.final_map) == _maps(want.final_map)
    assert _optional_fingerprint(got.scheduled) == \
        _optional_fingerprint(want.scheduled)
    assert _optional_fingerprint(got.routed) == \
        _optional_fingerprint(want.routed)


class TestWarmRequest:
    def test_fully_warm_request_loads_only_the_metric_fields(self, tmp_path,
                                                             loads):
        """A warm response reads ``metrics`` and ``qap_cost``: those two
        fields are unpickled, no other artifact, and no step is built."""
        request = CompileRequest(compiler="2qan", benchmark="NNN_Ising",
                                 n_qubits=6, device="aspen",
                                 gateset="CNOT", seed=3)
        cold = execute_request(request, ArtifactCache(tmp_path))
        del loads[:]
        warm = execute_request(request, ArtifactCache(tmp_path))
        assert set(warm.cache_events.values()) == {"hit"}
        assert len(loads) == 2
        assert sorted(type(value).__name__ for value in loads) == \
            sorted([CircuitMetrics.__name__, float.__name__])
        assert warm.to_dict() == cold.to_dict()

    def test_hit_runs_no_unpickle(self, step, loads):
        cache = ArtifactCache()
        compile_cached(_compiler(), step, cache)
        del loads[:]
        warm = compile_cached(_compiler(), step, cache)
        assert set(warm.cache_events.values()) == {"hit"}
        assert loads == []
        warm.metrics
        assert len(loads) == 1
        warm.metrics                        # loaded once, then bound
        assert len(loads) == 1


class TestWarmResult:
    @pytest.mark.parametrize("name", COMPILERS)
    def test_every_field_equals_the_cold_result(self, name, step):
        cache = ArtifactCache()
        cold = compile_cached(_compiler(name), step, cache)
        warm = compile_cached(_compiler(name), step, cache)
        assert set(warm.cache_events.values()) == {"hit"}
        _assert_same_result(warm, cold)
        _assert_same_result(warm, _compiler(name).compile(step))

    @pytest.mark.parametrize("name", COMPILERS)
    def test_pickled_result_carries_real_values(self, name, step):
        cache = ArtifactCache()
        cold = compile_cached(_compiler(name), step, cache)
        warm = compile_cached(_compiler(name), step, cache)
        restored = pickle.loads(pickle.dumps(warm))
        assert not any(isinstance(value, Deferred)
                       for value in vars(restored).values())
        _assert_same_result(restored, cold)


class NoCircuit:
    """A pass that leaves the hardware circuit unset."""

    name = "no-circuit"
    reads = ("step",)
    writes = ("working", "circuit", "metrics")

    def run(self, ctx):
        ctx.working = ctx.step
        ctx.circuit = None
        ctx.metrics = None
        return ctx


class TestNoneFields:
    def test_none_field_is_bound_as_none(self, step):
        cache = ArtifactCache()
        pipeline = CachedPipeline(PassPipeline([NoCircuit()]), cache)

        def context():
            return CompilationContext(step=step,
                                      gateset=get_gateset("CNOT"))

        pipeline.run(context())
        warm = pipeline.run(context())
        assert warm.cache_events == {"no-circuit": "hit"}
        assert warm.circuit is None and warm.metrics is None
        assert isinstance(warm.working, Deferred)

    def test_warm_pipeline_without_circuit_fails_like_cold(self, step):
        cache = ArtifactCache()
        pipeline = CachedPipeline(PassPipeline([NoCircuit()]), cache)
        for _ in range(2):                  # cold, then warm
            with pytest.raises(ValueError, match="hardware circuit"):
                run_pipeline(pipeline, step, gateset="CNOT")


class TestPartlyWarm:
    def test_later_stage_miss_loads_deferred_fields(self, step, loads):
        """Every stage before decomposition hits; decomposition misses
        (a new gate set) and loads its deferred reads through the view."""
        cache = ArtifactCache()
        compile_cached(_compiler(gateset="CNOT"), step, cache)
        del loads[:]
        result = compile_cached(_compiler(gateset="CZ"), step, cache)
        events = result.cache_events
        assert events["decomposition"] == "miss"
        assert all(event == "hit" for name, event in events.items()
                   if name != "decomposition")
        assert loads                        # scheduled, n_swaps, ...
        _assert_same_result(result, _compiler(gateset="CZ").compile(step))

    def test_middle_stage_miss_loads_the_unified_problem(self, step):
        """Unify hits (it ignores the seed); mapping misses and reads the
        deferred ``working`` through the view."""
        cache = ArtifactCache()
        compile_cached(_compiler(seed=1), step, cache)
        result = compile_cached(_compiler(seed=2), step, cache)
        assert result.cache_events["unify"] == "hit"
        assert result.cache_events["mapping"] == "miss"
        _assert_same_result(result, _compiler(seed=2).compile(step))


class TestContentKey:
    def test_deferred_fields_key_like_their_loaded_values(self, step):
        """``context_key`` on a context whose artifacts are deferred hit
        fields equals the content key of the loaded context."""
        compiler = _compiler()
        pipeline = compiler.build_pipeline()
        cache = ArtifactCache()

        def context():
            return CompilationContext(step=step,
                                      gateset=get_gateset("CNOT"),
                                      device=compiler.device,
                                      seed=compiler.seed)

        CachedPipeline(pipeline, cache).run(context())
        warm = CachedPipeline(pipeline, cache).run(context())
        deferred = {name for name, value in vars(warm).items()
                    if isinstance(value, Deferred)}
        assert {"working", "routed", "scheduled", "metrics"} <= deferred
        loaded = SimpleNamespace(**{
            name: value.load() if isinstance(value, Deferred) else value
            for name, value in vars(warm).items()})
        for stage in pipeline.passes:
            assert context_key(stage, warm) == context_key(stage, loaded)

    def test_deferred_step_keys_by_its_content_id(self, step):
        built = []

        def build():
            built.append(step)
            return step

        deferred = SimpleNamespace(step=Deferred(build, fingerprint(step)))
        pipeline = _compiler().build_pipeline()
        unify = pipeline.passes[0]
        assert context_key(unify, deferred) == \
            context_key(unify, SimpleNamespace(step=step))
        assert built == []


class TestTornRecord:
    def test_truncated_record_is_a_miss_and_is_rewritten(self, step,
                                                         tmp_path):
        cold = compile_cached(_compiler(), step, ArtifactCache(tmp_path))
        unify_key = context_key(_compiler().build_pipeline().passes[0],
                                SimpleNamespace(step=step))
        path = tmp_path / unify_key[:2] / f"{unify_key}.pkl"
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])
        cache = ArtifactCache(tmp_path)
        result = compile_cached(_compiler(), step, cache)
        assert result.cache_events["unify"] == "miss"
        assert all(event == "hit" for name, event
                   in result.cache_events.items() if name != "unify")
        _assert_same_result(result, cold)
        again = compile_cached(_compiler(), step, ArtifactCache(tmp_path))
        assert set(again.cache_events.values()) == {"hit"}
