"""Tests for CachedPass / CachedPipeline: skip-on-hit, bit-identical."""

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.harness import (
    build_step,
    build_symbolic_step,
    default_binding,
)
from repro.cache import cached
from repro.cache.cached import (
    CachedPass,
    CachedPipeline,
    compile_cached,
    context_key,
)
from repro.cache.store import ArtifactCache
from repro.core.pipeline import (
    CompilationContext,
    MapPass,
    UnifyPass,
    run_pipeline,
)
from repro.core.decompose import DecomposeCache
from repro.core.registry import compiler_names, get_compiler
from repro.devices.library import aspen, montreal
from repro.synthesis.gateset import get_gateset


@pytest.fixture()
def step():
    return build_step("NNN_Ising", 6, 3)


@pytest.fixture()
def device():
    return aspen()


def _context(step, device, gateset="CNOT", seed=1):
    return CompilationContext(step=step, gateset=get_gateset(gateset),
                              device=device, seed=seed)


class TestContextKey:
    def test_deterministic(self, step, device):
        a = context_key(UnifyPass(), _context(step, device))
        b = context_key(UnifyPass(), _context(step, device))
        assert a == b

    def test_input_sensitivity(self, step, device):
        other = build_step("NNN_Ising", 6, 4)
        assert context_key(UnifyPass(), _context(step, device)) != \
            context_key(UnifyPass(), _context(other, device))

    def test_reads_scoping_shares_across_gatesets(self, step, device):
        """Passes that never look at the gate set share artifacts
        across bases -- the cross-gateset prefix-sharing property."""
        cnot = _context(step, device, gateset="CNOT")
        cz = _context(step, device, gateset="CZ")
        assert context_key(UnifyPass(), cnot) == context_key(UnifyPass(), cz)

    def test_undeclared_pass_keys_on_everything(self, step, device):
        class Opaque:
            name = "opaque"

            def run(self, ctx):
                return ctx

        cnot = _context(step, device, gateset="CNOT")
        cz = _context(step, device, gateset="CZ")
        assert context_key(Opaque(), cnot) != context_key(Opaque(), cz)



class TestCachedPipeline:
    def test_cold_then_warm_bit_identical(self, step, device):
        cache = ArtifactCache()
        compiler = get_compiler("2qan", device=device, gateset="CNOT",
                                seed=1)
        plain = compiler.compile(step)
        cold = compile_cached(compiler, step, cache)
        warm = compile_cached(compiler, step, cache)
        assert set(cold.cache_events.values()) == {"miss"}
        assert set(warm.cache_events.values()) == {"hit"}
        for result in (cold, warm):
            assert result.metrics == plain.metrics
            assert result.qap_cost == plain.qap_cost
            assert result.n_swaps == plain.n_swaps
            assert np.array_equal(
                result.final_map.logical_to_physical,
                plain.final_map.logical_to_physical,
            )

    def test_one_timing_entry_per_pass_even_on_hits(self, step, device):
        cache = ArtifactCache()
        compiler = get_compiler("2qan", device=device, gateset="CNOT",
                                seed=1)
        compile_cached(compiler, step, cache)
        warm = compile_cached(compiler, step, cache)
        assert set(warm.timings) == set(compiler.build_pipeline().names())

    def test_prefix_shared_across_compilers(self, step, device):
        """2qan and tket share the Unify artifact of the same problem."""
        cache = ArtifactCache()
        twoqan = get_compiler("2qan", device=device, gateset="CNOT", seed=1)
        tket = get_compiler("tket", device=device, gateset="CNOT", seed=1)
        compile_cached(twoqan, step, cache)
        second = compile_cached(tket, step, cache)
        assert second.cache_events["unify"] == "hit"
        assert second.cache_events["routing"] == "miss"

    def test_prefix_shared_across_gatesets(self, step, device):
        """Same compiler, different basis: everything up to decomposition
        replays from the cache."""
        cache = ArtifactCache()
        cnot = get_compiler("2qan", device=device, gateset="CNOT", seed=1)
        cz = get_compiler("2qan", device=device, gateset="CZ", seed=1)
        compile_cached(cnot, step, cache)
        second = compile_cached(cz, step, cache)
        assert second.cache_events == {
            "unify": "hit", "mapping": "hit", "routing": "hit",
            "scheduling": "hit", "binding": "hit",
            "decomposition": "miss",
        }

    def test_config_change_invalidates(self, step, device):
        cache = ArtifactCache()
        default = get_compiler("2qan", device=device, gateset="CNOT", seed=1)
        one_trial = get_compiler("2qan", device=device, gateset="CNOT",
                                 seed=1, mapping_trials=1)
        compile_cached(default, step, cache)
        second = compile_cached(one_trial, step, cache)
        assert second.cache_events["unify"] == "hit"
        assert second.cache_events["mapping"] == "miss"

    def test_seed_change_invalidates(self, step, device):
        cache = ArtifactCache()
        compile_cached(get_compiler("2qan", device=device, gateset="CNOT",
                                    seed=1), step, cache)
        second = compile_cached(
            get_compiler("2qan", device=device, gateset="CNOT", seed=2),
            step, cache)
        assert second.cache_events["unify"] == "hit"   # unify ignores seed
        assert second.cache_events["mapping"] == "miss"

    def test_disk_cache_shared_across_instances(self, step, device,
                                                tmp_path):
        compiler = get_compiler("2qan", device=device, gateset="CNOT",
                                seed=1)
        cold = compile_cached(compiler, step, ArtifactCache(tmp_path))
        warm = compile_cached(compiler, step, ArtifactCache(tmp_path))
        assert set(warm.cache_events.values()) == {"hit"}
        assert warm.metrics == cold.metrics

    def test_hit_result_is_isolated_from_later_mutation(self, step, device):
        """Mutating a served circuit must not corrupt the cache."""
        cache = ArtifactCache()
        compiler = get_compiler("2qan", device=device, gateset="CNOT",
                                seed=1)
        cold = compile_cached(compiler, step, cache)
        served = compile_cached(compiler, step, cache)
        served.circuit.gates.clear()
        again = compile_cached(compiler, step, cache)
        assert len(again.circuit.gates) == len(cold.circuit.gates)

    def test_works_as_plain_pipeline(self, step, device):
        """CachedPipeline is a PassPipeline: run_pipeline accepts it."""
        cache = ArtifactCache()
        compiler = get_compiler("2qan", device=device, gateset="CNOT",
                                seed=1)
        pipeline = CachedPipeline(compiler.build_pipeline(), cache)
        result = run_pipeline(pipeline, step, gateset="CNOT",
                              device=device, seed=1)
        assert result.metrics == compiler.compile(step).metrics

    def test_undeclared_write_fails_loudly(self, step, device):
        """A wrong writes declaration would make warm hits serve
        partial snapshots; the miss path must reject it instead."""
        import numpy as np

        from repro.core.pipeline import PassPipeline

        class Sneaky:
            name = "sneaky"
            writes = ("working",)        # lies: also writes assignment

            def run(self, ctx):
                ctx.working = ctx.step
                ctx.assignment = np.arange(ctx.step.n_qubits)
                return ctx

        pipeline = CachedPipeline(PassPipeline([Sneaky()]), ArtifactCache())
        with pytest.raises(ValueError, match="assignment"):
            pipeline.run(_context(step, device))

    def test_unwritable_cache_directory_degrades_gracefully(self, step,
                                                            device,
                                                            tmp_path):
        """The cache is an optimization: a broken disk layer must not
        abort compilations that succeed."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the cache dir should go")
        cache = ArtifactCache(blocker / "cache")
        compiler = get_compiler("2qan", device=device, gateset="CNOT",
                                seed=1)
        result = compile_cached(compiler, step, cache)
        warm = compile_cached(compiler, step, cache)   # memory layer
        assert warm.metrics == result.metrics
        assert set(warm.cache_events.values()) == {"hit"}

    def test_custom_pass_returning_none_fails_loudly(self, step, device):
        class Broken:
            name = "broken"

            def run(self, ctx):
                return None

        from repro.core.pipeline import PassPipeline

        pipeline = CachedPipeline(PassPipeline([Broken()]), ArtifactCache())
        with pytest.raises(TypeError, match="broken"):
            pipeline.run(_context(step, device))


class TestCachedMultiDevice:
    def test_device_change_invalidates_mapping(self, step):
        cache = ArtifactCache()
        compile_cached(get_compiler("2qan", device=aspen(), gateset="CNOT",
                                    seed=1), step, cache)
        second = compile_cached(
            get_compiler("2qan", device=montreal(), gateset="CNOT", seed=1),
            step, cache)
        assert second.cache_events["unify"] == "hit"
        assert second.cache_events["mapping"] == "miss"


class RecordingCache(ArtifactCache):
    """An artifact cache that logs every key it is asked for."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.keys: list[str] = []

    def get(self, key: str):
        self.keys.append(key)
        return super().get(key)


class Probe:
    """A cheap pass reading one artifact and writing nothing."""

    name = "probe"
    reads = ("working",)
    writes = ()

    def run(self, ctx):
        ctx.require("working")
        return ctx


class TestChainedKeys:
    """Inputs are keyed by content, artifacts by the key that derived
    them; the keys must behave exactly like content keys, only cheaper."""

    @pytest.mark.parametrize("name", compiler_names())
    @pytest.mark.parametrize("symbolic", [False, True],
                             ids=["concrete", "parameterised"])
    def test_cold_and_warm_issue_the_same_keys(self, name, symbolic,
                                               device):
        """The hit path records the same derivation ids as the miss
        path, so a warm compile looks up exactly the cold compile's
        keys (and hits every one)."""
        if symbolic:
            step = build_symbolic_step("QAOA-REG-3", 6, 0)
            binding = default_binding("QAOA-REG-3")
        else:
            step, binding = build_step("QAOA-REG-3", 6, 0), None
        compiler = get_compiler(name, device=device, gateset="CNOT", seed=1)
        cache = RecordingCache()
        cold = compile_cached(compiler, step, cache, binding=binding)
        cold_keys = list(cache.keys)
        warm = compile_cached(compiler, step, cache, binding=binding)
        assert cache.keys[len(cold_keys):] == cold_keys
        assert set(cold.cache_events.values()) == {"miss"}
        assert set(warm.cache_events.values()) == {"hit"}
        assert warm.metrics == cold.metrics

    def test_first_pass_key_is_the_content_key(self, step, device):
        """A fresh compilation keys its first pass by content, so
        context_key on any object carrying the read fields agrees."""
        cache = RecordingCache()
        CachedPass(UnifyPass(), cache).run(_context(step, device))
        assert cache.keys == [context_key(UnifyPass(),
                                          SimpleNamespace(step=step))]
        assert cache.keys[0] == context_key(UnifyPass(),
                                            _context(step, device))

    def test_reassigned_field_falls_back_to_content(self, step, device):
        """A field replaced outside a CachedPass no longer is the object
        its derivation id was recorded for, so it is hashed again."""
        cache = RecordingCache()
        ctx = _context(step, device)
        CachedPass(UnifyPass(), cache).run(ctx)
        probe = CachedPass(Probe(), cache)
        probe.run(ctx)
        derived = cache.keys[-1]
        assert derived != context_key(Probe(), ctx)
        probe.run(ctx)                      # same object: same id
        assert cache.keys[-1] == derived
        ctx.working = copy.deepcopy(ctx.working)
        probe.run(ctx)
        assert cache.keys[-1] == context_key(Probe(), ctx)
        other = build_step("NNN_Ising", 6, 4)
        ctx.working = other
        probe.run(ctx)
        assert cache.keys[-1] == context_key(Probe(),
                                             SimpleNamespace(working=other))

    def test_memo_is_private_to_one_compilation(self, step, device):
        """The memo is no context field: never fingerprinted, never
        copied into a dataclasses.replace copy."""
        import dataclasses

        ctx = _context(step, device)
        CachedPass(UnifyPass(), ArtifactCache()).run(ctx)
        assert getattr(ctx, cached._FIELD_IDS)
        assert cached._FIELD_IDS not in {f.name for f in
                                         dataclasses.fields(ctx)}
        assert not hasattr(dataclasses.replace(ctx), cached._FIELD_IDS)

    def test_golden_hit_miss_sequence_matches_content_keys(self,
                                                           monkeypatch):
        """Over the golden cases compiled through one shared cache, the
        per-pass hit/miss record is the one pure content keys give."""
        golden = json.loads((Path(__file__).parents[1] / "core"
                             / "golden_metrics.json").read_text())
        cases = sorted(key for key in golden
                       if not key.startswith(("layers3", "trotter4")))
        device = montreal()

        def events() -> list:
            cache = ArtifactCache()
            decompose = {name: DecomposeCache() for name in compiler_names()}
            record = []
            for case in cases:
                benchmark, n, s, name = case.split("|")
                seed = int(s[1:])
                compiler = get_compiler(name, device=device, gateset="CNOT",
                                        seed=seed, cache=decompose[name])
                result = compile_cached(
                    compiler, build_step(benchmark, int(n[1:]), seed), cache)
                record.append((case, result.cache_events))
            return record

        chained = events()
        # without derivation ids every field is keyed by its content
        monkeypatch.setattr(cached, "_record_derived",
                            lambda ctx, key, snapshot: None)
        content = events()
        assert chained == content
        assert any(value == "hit" for _, record in chained
                   for value in record.values())
