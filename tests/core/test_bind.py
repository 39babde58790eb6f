"""The bind pass and the compile-once / bind-per-request split.

Covers the seams the end-to-end property test does not isolate: the
pass is a no-op on concrete circuits, missing names fail loudly,
structural compilations are reusable (binding never mutates them), and
pipelines without a binding pass are rejected up front.
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import build_symbolic_step
from repro.core.bind import (
    bind_scheduled,
    compile_structural,
    scheduled_parameters,
)
from repro.core.pipeline import PassPipeline
from repro.core.registry import get_compiler
from repro.devices.library import by_name
from repro.hamiltonians.models import nnn_ising
from repro.hamiltonians.trotter import trotter_step
from repro.quantum.params import Param, UnboundParameterError

N = 6


def _compiler():
    return get_compiler("2qan", device=by_name("montreal"),
                        gateset="CNOT", seed=0)


def test_bind_pass_is_noop_on_concrete_steps():
    step = trotter_step(nnn_ising(N, seed=0))
    result = _compiler().compile(step)
    assert "binding" in result.timings
    assert result.metrics.n_two_qubit_gates > 0


def test_unbound_compile_raises_with_names():
    step = trotter_step(nnn_ising(N, seed=0), t=Param("t"))
    with pytest.raises(UnboundParameterError) as err:
        _compiler().compile(step)
    assert "t" in str(err.value)


def test_partial_binding_reports_missing_names():
    step = build_symbolic_step("QAOA-REG-3", N, 0)
    with pytest.raises(UnboundParameterError) as err:
        _compiler().compile(step, binding={"gamma": 0.4})
    assert "beta" in str(err.value)


def test_unused_binding_names_are_ignored():
    step = trotter_step(nnn_ising(N, seed=0), t=Param("t"))
    concrete = _compiler().compile(step.bind({"t": 0.5}))
    extra = _compiler().compile(step, binding={"t": 0.5, "unused": 9.9})
    assert extra.metrics == concrete.metrics


def test_structural_compilation_is_reusable():
    structural = compile_structural(
        _compiler(), build_symbolic_step("QAOA-REG-3", N, 0))
    assert structural.parameters == frozenset({"gamma", "beta"})
    assert structural.prefix_names == ("unify", "mapping", "routing",
                                       "scheduling")
    first = structural.bind({"gamma": 0.4, "beta": 1.1})
    again = structural.bind({"gamma": 0.4, "beta": 1.1})
    other = structural.bind({"gamma": -2.0, "beta": 0.3})
    assert first.metrics == again.metrics
    assert [g.unitary().tobytes() for g in first.circuit.gates] == \
        [g.unitary().tobytes() for g in again.circuit.gates]
    # a different binding flows through the same structure
    assert other.metrics.n_swaps == first.metrics.n_swaps
    # the structural schedule stays symbolic after any number of binds
    assert scheduled_parameters(structural.ctx.scheduled) == \
        frozenset({"gamma", "beta"})


def test_bind_structural_missing_name_raises():
    structural = compile_structural(
        _compiler(), build_symbolic_step("QAOA-REG-3", N, 0))
    with pytest.raises(UnboundParameterError):
        structural.bind({"gamma": 0.4})


def test_pipeline_without_binding_pass_rejected():
    class NoBindCompiler:
        gateset = None
        seed = 0
        cache = None

        def build_pipeline(self):
            return PassPipeline([])

    with pytest.raises(ValueError) as err:
        compile_structural(NoBindCompiler(),
                           trotter_step(nnn_ising(N, seed=0)))
    assert "binding" in str(err.value)


def test_bind_scheduled_shares_concrete_items_and_keeps_input():
    structural = compile_structural(
        _compiler(), build_symbolic_step("QAOA-REG-3", N, 0))
    scheduled = structural.ctx.scheduled
    bound = bind_scheduled(scheduled, {"gamma": 0.4, "beta": 1.1})
    assert scheduled_parameters(bound) == frozenset()
    # the input schedule is untouched (it is bound many times)
    assert scheduled_parameters(scheduled) == frozenset({"gamma", "beta"})
    assert len(bound.items) == len(scheduled.items)


def test_binds_report_only_their_suffix_timings():
    structural = compile_structural(
        _compiler(), build_symbolic_step("QAOA-REG-3", N, 0))
    assert "mapping" in structural.ctx.timings
    for angles in ({"gamma": 0.4, "beta": 1.1}, {"gamma": -2.0, "beta": 0.3}):
        result = structural.bind(angles)
        assert set(result.timings) == {"binding", "decomposition"}
    # the structural prefix's timings are not mutated by binding
    assert "mapping" in structural.ctx.timings


def test_server_metrics_gain_no_mapping_time_from_binds():
    from repro.service.client import CompileClient
    from repro.service.server import CompileService, ServerThread, ServiceConfig

    base = {"compiler": "2qan", "benchmark": "QAOA-REG-3", "n_qubits": N,
            "device": "montreal", "gateset": "CNOT", "seed": 0}
    with ServerThread(CompileService(ServiceConfig(jobs=1))) as handle:
        client = CompileClient(port=handle.port)
        client.compile_batch([{**base, "parameters": {"gamma": g, "beta": b}}
                              for g, b in [(0.4, 1.1), (0.7, 0.2)]])
        metrics = client.metrics()
    assert metrics["requests"]["structural_binds"] == 2
    assert metrics["passes"]["binding"]["count"] == 2
    assert "mapping" not in metrics["passes"]
