"""The problem index: a recipe compile keys by content without building.

``compile_cached`` accepts a :class:`ProblemRecipe` in place of a step.
The artifact cache maps each recipe to its step's content fingerprint,
and the step enters the context deferred, so a warm compile neither
builds nor hashes its problem while every key stays the content key.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import harness
from repro.analysis.harness import ProblemRecipe, build_step
from repro.cache.cached import compile_cached, context_key
from repro.cache.fingerprint import fingerprint
from repro.cache.store import ArtifactCache, LockingArtifactCache, stats_delta
from repro.core.pipeline import PassPipeline, UnifyPass
from repro.core.registry import get_compiler
from repro.devices.library import aspen
from repro.hamiltonians.trotter import TrotterStep
from repro.perf_smoke import circuits_identical

RECIPE = ProblemRecipe("NNN_Ising", 6, 3)


def _compiler(name="2qan"):
    return get_compiler(name, device=aspen(), gateset="CNOT", seed=1)


def _record_path(directory, recipe=RECIPE):
    key = fingerprint("problem", recipe)
    return directory / key[:2] / f"{key}.pkl"


def _same_result(a, b) -> bool:
    """Bit identity: hardware gates, metrics, QAP cost, final map."""
    return (circuits_identical(a.circuit, b.circuit)
            and a.metrics == b.metrics and a.qap_cost == b.qap_cost
            and a.final_map.logical_to_physical
            == b.final_map.logical_to_physical)


class TestRecipe:
    def test_builds_the_benchmark_step(self):
        assert fingerprint(RECIPE.build()) == \
            fingerprint(build_step("NNN_Ising", 6, 3))

    def test_symbolic_builds_the_symbolic_step(self):
        symbolic = ProblemRecipe("QAOA-REG-3", 6, 0, symbolic=True)
        assert fingerprint(symbolic.build()) == fingerprint(
            harness.build_symbolic_step("QAOA-REG-3", 6, 0))


class TestIndexedCompile:
    def test_index_hit_with_unify_evicted_builds_once(self, tmp_path,
                                                     problem_work):
        """The index gives the content id; the one missing pass loads
        the step through the view, which builds it exactly once."""
        compile_cached(_compiler(), RECIPE, ArtifactCache(tmp_path))
        step = build_step("NNN_Ising", 6, 3)
        unify_key = context_key(UnifyPass(), SimpleNamespace(step=step))
        ArtifactCache(tmp_path).disk.discard(unify_key)
        cache = ArtifactCache(tmp_path)
        before = dict(problem_work)
        result = compile_cached(_compiler(), RECIPE, cache)
        assert problem_work["builds"] - before["builds"] == 1
        assert problem_work["hashes"] == before["hashes"]
        assert cache.stats()["index"] == {"hits": 1, "misses": 0}
        assert result.cache_events["unify"] == "miss"
        assert all(event == "hit" for name, event
                   in result.cache_events.items() if name != "unify")
        assert _same_result(result, _compiler().compile(step))

    def test_custom_pass_reading_step_gets_a_real_step(self, tmp_path):
        seen = []

        class StepProbe:
            name = "step-probe"
            reads = ("step",)
            writes = ()

            def run(self, ctx):
                seen.append(ctx.require("step"))
                seen.append(ctx.step)
                return ctx

        base = _compiler()
        compile_cached(base, RECIPE, ArtifactCache(tmp_path))
        probed = SimpleNamespace(
            gateset=base.gateset, device=base.device, seed=base.seed,
            cache=None, build_pipeline=lambda: PassPipeline(
                (StepProbe(),) + base.build_pipeline().passes))
        cache = ArtifactCache(tmp_path)
        result = compile_cached(probed, RECIPE, cache)
        assert cache.stats()["index"]["hits"] == 1
        assert result.cache_events["step-probe"] == "miss"
        assert len(seen) == 2 and seen[0] is seen[1]
        assert isinstance(seen[0], TrotterStep)
        assert fingerprint(seen[0]) == fingerprint(RECIPE.build())

    @pytest.mark.parametrize("as_recipe", [False, True],
                             ids=["step", "recipe"])
    def test_cold_compile_hashes_its_step_once(self, as_recipe,
                                               problem_work):
        before = dict(problem_work)
        problem = RECIPE if as_recipe else RECIPE.build()
        compile_cached(_compiler(), problem, ArtifactCache())
        assert problem_work["hashes"] - before["hashes"] == 1
        assert problem_work["builds"] - before["builds"] == 1

    def test_recipe_and_step_share_every_key(self, tmp_path):
        """Keys stay content keys: a step-warmed cache serves a recipe
        compile (and the reverse) without one artifact miss."""
        step_cache = ArtifactCache(tmp_path / "step")
        compile_cached(_compiler(), RECIPE.build(), step_cache)
        warm = compile_cached(_compiler("tket"), RECIPE,
                              ArtifactCache(tmp_path / "step"))
        assert warm.cache_events["unify"] == "hit"
        recipe_cache = ArtifactCache(tmp_path / "recipe")
        compile_cached(_compiler(), RECIPE, recipe_cache)
        replay = ArtifactCache(tmp_path / "recipe")
        compile_cached(_compiler(), RECIPE.build(), replay)
        assert replay.stats()["misses"] == 0

    def test_fully_warm_compile_is_bit_identical(self, tmp_path,
                                                 problem_work):
        cold = compile_cached(_compiler(), RECIPE, ArtifactCache(tmp_path))
        before = dict(problem_work)
        warm = compile_cached(_compiler(), RECIPE, ArtifactCache(tmp_path))
        assert problem_work == before
        assert set(warm.cache_events.values()) == {"hit"}
        assert _same_result(warm, cold)
        assert _same_result(warm, _compiler().compile(RECIPE.build()))


class TestBadIndexRecord:
    @pytest.mark.parametrize("garbage", [
        b"not a digest", b"0123456789ABCDEF", b"0123456789abcdef0",
        b"0123456789abcde", b"\x80\x05N.",
    ], ids=["text", "uppercase", "long", "short", "pickle"])
    def test_bad_record_is_a_miss_and_is_rewritten(self, tmp_path, garbage,
                                                   problem_work):
        reference = compile_cached(_compiler(), RECIPE,
                                   ArtifactCache(tmp_path))
        path = _record_path(tmp_path)
        digest = path.read_bytes()
        path.write_bytes(garbage)
        cache = ArtifactCache(tmp_path)
        result = compile_cached(_compiler(), RECIPE, cache)
        assert _same_result(result, reference)
        assert cache.stats()["index"] == {"hits": 0, "misses": 1}
        assert cache.stats()["misses"] == 0
        assert path.read_bytes() == digest
        before = dict(problem_work)
        cache = ArtifactCache(tmp_path)
        compile_cached(_compiler(), RECIPE, cache)
        assert cache.stats()["index"] == {"hits": 1, "misses": 0}
        assert problem_work == before

    def test_bad_memory_record_is_replaced(self):
        cache = ArtifactCache()
        cache.memory.put("k", b"garbage")
        assert cache.get_index("k") is None
        assert "k" not in cache.memory
        cache.put_index("k", "0123456789abcdef")
        assert cache.get_index("k") == "0123456789abcdef"


class TestIndexCounters:
    """Index lookups have their own counters; the artifact hits and
    misses stay artifact-only."""

    def test_index_lookups_are_not_artifact_events(self):
        cache = ArtifactCache()
        assert cache.get_index("k") is None
        cache.put_index("k", "0123456789abcdef")
        assert cache.get_index("k") == "0123456789abcdef"
        stats = cache.stats()
        assert stats["index"] == {"hits": 1, "misses": 1}
        assert (stats["hits"], stats["misses"]) == (0, 0)
        assert stats["memory_entries"] == 1

    def test_records_are_raw_digests_on_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_index("abcd", "0123456789abcdef")
        assert (tmp_path / "ab" / "abcd.pkl").read_bytes() == \
            b"0123456789abcdef"
        assert ArtifactCache(tmp_path).get_index("abcd") == \
            "0123456789abcdef"

    def test_delta_and_reset(self):
        cache = ArtifactCache()
        cache.get_index("k")
        before = cache.stats()
        cache.put_index("k", "0123456789abcdef")
        cache.get_index("k")
        cache.get_index("other")
        delta = stats_delta(before, cache.stats())
        assert delta["index"] == {"hits": 1, "misses": 1}
        cache.reset_stats()
        assert cache.stats()["index"] == {"hits": 0, "misses": 0}

    def test_locking_cache_counts_concurrent_lookups(self):
        import sys
        import threading

        cache = LockingArtifactCache()
        cache.put_index("k", "0123456789abcdef")
        rounds = 200

        def worker():
            for _ in range(rounds):
                cache.get_index("k")
                cache.get_index("missing")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats()["index"] == {"hits": 8 * rounds,
                                          "misses": 8 * rounds}
