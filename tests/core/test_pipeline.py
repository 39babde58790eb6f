"""Tests for the pass-pipeline substrate (repro.core.pipeline)."""

import math

import numpy as np
import pytest

from repro.core.compiler import TwoQANCompiler
from repro.core.pipeline import (
    CompilationContext,
    CompilationResult,
    DecomposePass,
    MapPass,
    Pass,
    PassPipeline,
    RoutePass,
    UnifyPass,
    repeat_layers,
    result_from_context,
    run_pipeline,
)
from repro.hamiltonians.models import nnn_ising
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.qap import qap_from_problem
from repro.quantum.circuit import Circuit
from repro.synthesis.gateset import get_gateset


class TestPassPipeline:
    def test_default_2qan_pass_order(self, grid23):
        pipeline = TwoQANCompiler(grid23, "CNOT").build_pipeline()
        assert pipeline.names() == (
            "unify", "mapping", "routing", "scheduling", "binding",
            "decomposition"
        )

    def test_passes_satisfy_protocol(self, grid23):
        pipeline = TwoQANCompiler(grid23, "CNOT").build_pipeline()
        for stage in pipeline.passes:
            assert isinstance(stage, Pass)

    def test_one_timing_entry_per_pass(self, grid23):
        compiler = TwoQANCompiler(grid23, "CNOT", seed=0)
        result = compiler.compile(trotter_step(nnn_ising(6, seed=0)))
        assert set(result.timings) == set(
            compiler.build_pipeline().names()
        )

    def test_replaced_swaps_one_stage(self, grid23):
        pipeline = TwoQANCompiler(grid23, "CNOT").build_pipeline()
        swapped = pipeline.replaced("mapping", _IdentityMapPass())
        assert swapped.names() == pipeline.names()
        assert isinstance(swapped.passes[1], _IdentityMapPass)
        # the original pipeline is untouched
        assert isinstance(pipeline.passes[1], MapPass)

    def test_replaced_unknown_name_raises(self, grid23):
        pipeline = TwoQANCompiler(grid23, "CNOT").build_pipeline()
        with pytest.raises(ValueError, match="no pass named"):
            pipeline.replaced("bogus", _IdentityMapPass())

    def test_without_removes_stage(self, grid23):
        pipeline = TwoQANCompiler(grid23, "CNOT").build_pipeline()
        assert "unify" not in pipeline.without("unify").names()
        with pytest.raises(ValueError):
            pipeline.without("bogus")

    def test_custom_pass_swap_changes_result(self, grid23):
        """run_pipeline with a swapped mapping pass honours the swap."""
        step = trotter_step(nnn_ising(6, seed=0))
        compiler = TwoQANCompiler(grid23, "CNOT", seed=0)
        custom = compiler.build_pipeline().replaced(
            "mapping", _IdentityMapPass()
        )
        result = run_pipeline(custom, step, gateset="CNOT", device=grid23,
                              seed=0)
        assert result.initial_map.physical(0) == 0
        assert result.metrics.n_two_qubit_gates > 0

    def test_missing_artifact_fails_loudly(self, grid23):
        """Routing without mapping reports the missing context field."""
        broken = PassPipeline([UnifyPass(), RoutePass()])
        ctx = CompilationContext(
            step=trotter_step(nnn_ising(6, seed=0)),
            gateset=get_gateset("CNOT"), device=grid23,
        )
        with pytest.raises(ValueError, match="context.assignment"):
            broken.run(ctx)

    def test_pass_returning_none_names_the_culprit(self, grid23):
        class ForgetfulPass:
            name = "forgetful"

            def run(self, ctx):
                ctx.working = ctx.step  # mutates but forgets to return

        pipeline = PassPipeline([ForgetfulPass()])
        ctx = CompilationContext(
            step=trotter_step(nnn_ising(4, seed=0)),
            gateset=get_gateset("CNOT"),
        )
        with pytest.raises(TypeError, match="'forgetful' returned None"):
            pipeline.run(ctx)

    def test_incomplete_context_rejected_at_packaging(self):
        ctx = CompilationContext(
            step=trotter_step(nnn_ising(4, seed=0)),
            gateset=get_gateset("CNOT"),
        )
        with pytest.raises(ValueError, match="hardware circuit"):
            result_from_context(ctx)


class _IdentityMapPass:
    """Trivial mapping stage used by the swap tests."""

    name = "mapping"

    def run(self, ctx):
        instance = qap_from_problem(ctx.working, ctx.device)
        ctx.assignment = np.arange(ctx.working.n_qubits)
        ctx.qap_cost = float(instance.cost(ctx.assignment))
        return ctx


class TestMergedResult:
    def test_baseline_fields_typed_defaults(self, grid23):
        """Baselines fill the merged result without the old type lies."""
        from repro.baselines import compile_nomap

        result = compile_nomap(trotter_step(nnn_ising(6, seed=0)), "CNOT")
        assert isinstance(result, CompilationResult)
        assert isinstance(result.app_circuit, Circuit)
        assert result.routed is None and result.scheduled is None
        assert math.isnan(result.qap_cost)
        assert result.n_dressed == 0
        assert result.initial_map.physical(0) == 0
        assert result.timings  # baselines record pass timings too

    def test_2qan_result_keeps_artifacts(self, grid23):
        result = TwoQANCompiler(grid23, "CNOT", seed=0).compile(
            trotter_step(nnn_ising(6, seed=0))
        )
        assert result.routed is not None
        assert result.scheduled is not None
        assert result.initial_map is result.scheduled.initial_map
        assert result.n_swaps == result.metrics.n_swaps


class TestRepeatLayers:
    def _first(self, grid23):
        return TwoQANCompiler(grid23, "CNOT", seed=0).compile(
            trotter_step(nnn_ising(6, seed=0))
        )

    def test_empty_layers_rejected(self, grid23):
        with pytest.raises(ValueError):
            repeat_layers(self._first(grid23), [], 6)

    def test_single_layer_passthrough(self, grid23):
        first = self._first(grid23)
        assert repeat_layers(first, [first.circuit], 6) is first

    def test_metrics_scale_with_layers(self, grid23):
        first = self._first(grid23)
        combined = repeat_layers(first, [first.circuit] * 3, 6)
        assert combined.n_swaps == 3 * first.n_swaps
        assert combined.n_dressed == 3 * first.n_dressed
        assert (combined.metrics.n_two_qubit_gates
                == 3 * first.metrics.n_two_qubit_gates)

    def test_relower_seconds_added_to_decomposition(self, grid23):
        first = self._first(grid23)
        combined = repeat_layers(first, [first.circuit] * 2, 6,
                                 relower_seconds=1.5)
        assert combined.timings["decomposition"] == pytest.approx(
            first.timings["decomposition"] + 1.5
        )
        # other pass timings are inherited unchanged
        assert combined.timings["mapping"] == first.timings["mapping"]

    def test_compile_layers_sums_relower_time(self, grid23):
        """The combined timings cover all layers, not just the first.

        Asserted by instrumentation rather than wall-clock deltas (which
        are cache-warmth dependent): the decomposition timing of the
        multi-layer result must exceed that of its own first-layer
        compilation, because every reused layer's re-lowering time is
        added on top.
        """
        compiler = TwoQANCompiler(grid23, "CNOT", seed=0)
        step = trotter_step(nnn_ising(6, seed=0))
        recorded = []
        original = TwoQANCompiler.compile

        def spying_compile(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            recorded.append(result.timings["decomposition"])
            return result

        TwoQANCompiler.compile = spying_compile
        try:
            triple = compiler.compile_layers([step] * 3)
        finally:
            TwoQANCompiler.compile = original
        assert len(recorded) == 1  # only the first layer is compiled
        assert triple.timings["decomposition"] > recorded[0]


class TestDecomposePassSharing:
    def test_shared_decompose_pass_matches_legacy_helper(self, grid23):
        """DecomposePass and lower_app_circuit produce identical circuits."""
        from repro.baselines.base import lower_app_circuit
        from repro.baselines.nomap import NoDeviceSchedulePass

        step = trotter_step(nnn_ising(6, seed=0))
        pipeline = PassPipeline([
            UnifyPass(), NoDeviceSchedulePass(), DecomposePass(),
        ])
        via_pipeline = run_pipeline(pipeline, step, gateset="CNOT", seed=0)
        identity = {q: q for q in range(6)}
        via_helper = lower_app_circuit(
            via_pipeline.app_circuit, "CNOT", n_swaps=0,
            initial_map=identity, final_map=identity, seed=0,
        )
        assert via_pipeline.metrics == via_helper.metrics
