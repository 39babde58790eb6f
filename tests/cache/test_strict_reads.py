"""The pass-contract guard: ``CachedPass`` runs every miss on a scoped
view of the context, so a pass that loads a field outside its ``reads``
(an under-scoped cache key) or stores one outside its ``writes`` (a
partial snapshot) fails at the offending access instead of silently
serving stale artifacts on some later warm run.  No environment
variable is involved: the guard is always on.
"""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.analysis.harness import build_step, build_symbolic_step
from repro.cache import cached
from repro.cache.cached import (
    CachedPass,
    UndeclaredContextReadError,
    compile_cached,
)
from repro.cache.store import ArtifactCache
from repro.core.bind import context_parameters
from repro.core.pipeline import CompilationContext, Deferred
from repro.core.registry import compiler_names, get_compiler
from repro.devices.library import aspen
from repro.synthesis.gateset import get_gateset


@dataclass(frozen=True)
class SneakyPass:
    """Reads ``seed`` without declaring it -- the cache-unsoundness bug."""

    name: str = "sneaky"
    reads: ClassVar[tuple[str, ...]] = ("step",)
    writes: ClassVar[tuple[str, ...]] = ("working",)

    def run(self, ctx):
        ctx.working = (ctx.step, ctx.seed)
        return ctx


@dataclass(frozen=True)
class HonestPass:
    name: str = "honest"
    reads: ClassVar[tuple[str, ...]] = ("step", "seed")
    writes: ClassVar[tuple[str, ...]] = ("working",)

    def run(self, ctx):
        ctx.working = (ctx.step, ctx.seed)
        ctx.timings["honest_extra"] = 0.0  # infra: always allowed
        return ctx


def _route_by_device(context):
    """A module-level helper handed the context by a pass."""
    context.routed = context.device


def _context(seed=3):
    return CompilationContext(step=build_step("NNN_Ising", 4, 0),
                              gateset=get_gateset("CNOT"),
                              device=aspen(), seed=seed)


class TestScopedReads:
    def test_undeclared_read_raises_at_the_access(self):
        cached_pass = CachedPass(SneakyPass(), ArtifactCache())
        with pytest.raises(UndeclaredContextReadError, match="'seed'"):
            cached_pass.run(_context())

    def test_declared_reads_run_clean_and_cache(self):
        cached_pass = CachedPass(HonestPass(), ArtifactCache())
        ctx = cached_pass.run(_context())
        assert ctx.working == (ctx.step, 3)
        assert ctx.cache_events == {"honest": "miss"}

    def test_write_only_field_unreadable_before_assignment(self):
        """A pass writing ``circuit`` must not consume the upstream
        ``circuit``: it is not in the key, so a changed upstream
        circuit would still hit."""

        @dataclass(frozen=True)
        class Rewriter:
            name: str = "rewriter"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("circuit",)

            def run(self, ctx):
                ctx.circuit = ctx.circuit
                return ctx

        with pytest.raises(UndeclaredContextReadError, match="'circuit'"):
            CachedPass(Rewriter(), ArtifactCache()).run(_context())

    def test_write_only_field_readable_after_own_assignment(self):
        @dataclass(frozen=True)
        class TwoStep:
            name: str = "two-step"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working", "qap_cost")

            def run(self, ctx):
                ctx.working = ctx.step
                ctx.qap_cost = float(ctx.working.n_qubits)
                return ctx

        ctx = CachedPass(TwoStep(), ArtifactCache()).run(_context())
        assert ctx.qap_cost == 4.0

    def test_read_through_a_helper_in_another_module_is_caught(self):
        """``context_parameters`` (repro.core.bind) loads ``scheduled``,
        ``app_circuit`` and ``circuit``; a pass handing it the context
        inherits those reads wherever the helper lives."""

        @dataclass(frozen=True)
        class ParameterProbe:
            name: str = "parameter-probe"
            reads: ClassVar[tuple[str, ...]] = ("binding",)
            writes: ClassVar[tuple[str, ...]] = ()

            def run(self, ctx):
                context_parameters(ctx)
                return ctx

        with pytest.raises(UndeclaredContextReadError, match="'scheduled'"):
            CachedPass(ParameterProbe(), ArtifactCache()).run(_context())

    def test_getattr_with_default_cannot_swallow_the_violation(self):
        """The error is deliberately not an AttributeError: a pass
        probing with getattr(ctx, name, default) must still fail."""

        @dataclass(frozen=True)
        class ProbingPass:
            name: str = "probing"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                ctx.working = getattr(ctx, "seed", None)
                return ctx

        with pytest.raises(UndeclaredContextReadError):
            CachedPass(ProbingPass(), ArtifactCache()).run(_context())

    def test_require_is_audited_too(self):
        @dataclass(frozen=True)
        class RequirePass:
            name: str = "requiring"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                ctx.working = ctx.require("device")
                return ctx

        with pytest.raises(UndeclaredContextReadError, match="'device'"):
            CachedPass(RequirePass(), ArtifactCache()).run(_context())

    def test_getattr_literal_counts_as_a_read(self):
        @dataclass(frozen=True)
        class GetattrPass:
            name: str = "getattr"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                ctx.working = getattr(ctx, "device")
                return ctx

        with pytest.raises(UndeclaredContextReadError, match="'device'"):
            CachedPass(GetattrPass(), ArtifactCache()).run(_context())

    def test_dynamic_field_name_is_audited(self):
        """A field name computed at run time is checked like any other
        load -- no static reading of the pass could resolve it."""

        @dataclass(frozen=True)
        class DynamicPass:
            name: str = "dynamic"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                field = "se" + "ed"
                ctx.working = getattr(ctx, field)
                return ctx

        with pytest.raises(UndeclaredContextReadError, match="'seed'"):
            CachedPass(DynamicPass(), ArtifactCache()).run(_context())

    def test_module_helper_receiving_ctx_is_audited(self):
        @dataclass(frozen=True)
        class HelperPass:
            name: str = "helper"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("routed",)

            def run(self, ctx):
                _route_by_device(ctx)
                return ctx

        with pytest.raises(UndeclaredContextReadError, match="'device'"):
            CachedPass(HelperPass(), ArtifactCache()).run(_context())

    def test_sibling_method_receiving_ctx_is_audited(self):
        @dataclass(frozen=True)
        class SiblingPass:
            name: str = "sibling"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("routed",)

            def run(self, ctx):
                self._inner(ctx)
                return ctx

            def _inner(self, ctx):
                ctx.routed = ctx.assignment

        with pytest.raises(UndeclaredContextReadError, match="'assignment'"):
            CachedPass(SiblingPass(), ArtifactCache()).run(_context())

    def test_infra_fields_need_no_declaration(self):
        @dataclass(frozen=True)
        class InfraPass:
            name: str = "infra"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                ctx.timings["infra_extra"] = 0.0
                ctx.cache_events["infra_extra"] = "miss"
                ctx.working = (ctx.step, ctx.cancel, ctx.cache)
                return ctx

        ctx = CachedPass(InfraPass(), ArtifactCache()).run(_context())
        assert ctx.working == (ctx.step, None, None)
        assert ctx.timings["infra_extra"] == 0.0
        assert ctx.cache_events["infra"] == "miss"


class TestScopedWrites:
    def test_undeclared_input_write_raises_at_the_assignment(self):
        @dataclass(frozen=True)
        class Reseeder:
            name: str = "reseeder"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                ctx.seed = 99
                return ctx

        ctx = _context()
        with pytest.raises(ValueError, match="'seed' not declared in its "
                                             "writes"):
            CachedPass(Reseeder(), ArtifactCache()).run(ctx)
        assert ctx.seed == 3

    def test_undeclared_artifact_write_raises_at_the_assignment(self):
        """An artifact outside ``writes`` would be missing from the
        snapshot, so a warm hit would silently drop it."""

        @dataclass(frozen=True)
        class Overwriter:
            name: str = "overwriter"
            reads: ClassVar[tuple[str, ...]] = ("step",)
            writes: ClassVar[tuple[str, ...]] = ("working",)

            def run(self, ctx):
                ctx.working = ctx.step
                ctx.n_swaps = 5
                return ctx

        ctx = _context()
        with pytest.raises(ValueError, match="'n_swaps' not declared in "
                                             "its writes"):
            CachedPass(Overwriter(), ArtifactCache()).run(ctx)
        assert ctx.n_swaps == 0

    def test_undeclared_pass_reads_every_field_and_writes_artifacts(self):
        class Opaque:
            name = "opaque"

            def run(self, ctx):
                ctx.working = (ctx.step, ctx.seed, ctx.device)
                ctx.n_swaps = 7
                return ctx

        ctx = CachedPass(Opaque(), ArtifactCache()).run(_context())
        assert ctx.working == (ctx.step, 3, ctx.device)
        assert ctx.n_swaps == 7
        assert ctx.cache_events == {"opaque": "miss"}

    def test_undeclared_pass_may_not_write_inputs(self):
        """Without declarations a pass reads everything and writes every
        artifact -- but still no input."""

        class Opaque:
            name = "opaque"

            def run(self, ctx):
                ctx.working = (ctx.step, ctx.seed)
                ctx.binding = {}
                return ctx

        with pytest.raises(ValueError, match="'binding'"):
            CachedPass(Opaque(), ArtifactCache()).run(_context())

    def test_returning_another_object_fails_loudly(self):
        class Detached:
            name = "detached"

            def run(self, ctx):
                return _context()

        with pytest.raises(TypeError, match="detached"):
            CachedPass(Detached(), ArtifactCache()).run(_context())


class TestHitPath:
    def test_warm_hit_never_builds_the_view(self, monkeypatch):
        """A warm hit applies the snapshot without running the pass, so
        it has no use for the guard and must not pay for it."""
        cache = ArtifactCache()
        cached_pass = CachedPass(HonestPass(), cache)
        cached_pass.run(_context())

        def refuse(*args):
            raise AssertionError("view built on a hit")

        monkeypatch.setattr(cached, "_ScopedContext", refuse)
        warm = cached_pass.run(_context())
        assert warm.cache_events == {"honest": "hit"}
        # the hit binds the stored bytes; nothing is unpickled yet
        assert isinstance(warm.working, Deferred)
        assert warm.working.load()[1] == 3


class TestWholePipeline:
    def test_full_2qan_compile_is_guard_clean(self):
        """Every built-in 2QAN pass declaration survives a real cold
        compile under the guard, and the warm run agrees."""
        cache = ArtifactCache()
        compiler = get_compiler("2qan", device=aspen(), gateset="CNOT",
                                seed=1)
        step = build_step("NNN_Ising", 6, 3)
        cold = compile_cached(compiler, step, cache)
        warm = compile_cached(compiler, step, cache)
        assert set(cold.cache_events.values()) == {"miss"}
        assert cold.metrics == warm.metrics

    @pytest.mark.parametrize("name", compiler_names())
    def test_every_registry_compiler_is_guard_clean(self, name):
        """Every built-in pass of every registry compiler runs a cold
        compile under the guard; the warm run hits on every pass."""
        cache = ArtifactCache()
        compiler = get_compiler(name, device=aspen(), gateset="CNOT",
                                seed=1)
        step = build_step("QAOA-REG-3", 6, 0)
        cold = compile_cached(compiler, step, cache)
        warm = compile_cached(compiler, step, cache)
        assert set(cold.cache_events.values()) == {"miss"}
        assert set(warm.cache_events.values()) == {"hit"}
        assert cold.metrics == warm.metrics

    def test_bound_symbolic_compile_is_guard_clean(self):
        """The bind pass reads through ``context_parameters`` in another
        module; its declarations cover those reads, and the bound
        result equals the uncached one."""
        compiler = get_compiler("2qan", device=aspen(), gateset="CNOT",
                                seed=1)
        step = build_symbolic_step("QAOA-REG-3", 6, 0)
        binding = {"gamma": 0.4, "beta": 1.1}
        cached_result = compile_cached(compiler, step, ArtifactCache(),
                                       binding=binding)
        assert set(cached_result.cache_events.values()) == {"miss"}
        assert cached_result.metrics == \
            compiler.compile(step, binding=binding).metrics
