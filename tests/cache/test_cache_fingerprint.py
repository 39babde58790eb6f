"""Tests for canonical compilation-value fingerprints."""

import numpy as np
import pytest

from repro.analysis.harness import build_step
from repro.cache.fingerprint import (
    fingerprint,
    fingerprint_circuit,
    fingerprint_device,
    fingerprint_gateset,
    fingerprint_pass,
    fingerprint_step,
)
from repro.core.pipeline import MapPass, RoutePass, UnifyPass
from repro.devices.library import aspen, montreal
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate
from repro.synthesis.gateset import get_gateset


class TestScalars:
    def test_stable(self):
        assert fingerprint(1, "a", 2.5) == fingerprint(1, "a", 2.5)

    def test_type_distinguished(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(None) != fingerprint(0)

    def test_float_rounding(self):
        assert fingerprint(0.1 + 0.2) == fingerprint(0.3)

    def test_numpy_bool_hashes_like_bool(self):
        assert fingerprint(np.True_) == fingerprint(True)
        assert fingerprint(np.False_) == fingerprint(False)
        assert fingerprint((np.array([3]) > 1)[0]) == fingerprint(True)

    def test_dict_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_unknown_type_fails_loudly(self):
        class Mystery:
            pass

        with pytest.raises(TypeError, match="Mystery"):
            fingerprint(Mystery())


class TestArrays:
    def test_content_addressed(self):
        a = np.arange(6.0).reshape(2, 3)
        assert fingerprint(a) == fingerprint(a.copy())

    def test_shape_matters(self):
        a = np.arange(6.0)
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))

    def test_numerical_noise_ignored(self):
        a = np.array([1.0, 2.0])
        assert fingerprint(a) == fingerprint(a + 1e-14)

    def test_real_difference_detected(self):
        assert fingerprint(np.array([1.0])) != fingerprint(np.array([1.1]))

    @pytest.mark.parametrize("array", [np.array(True),
                                       np.array([[True, False],
                                                 [False, True]])])
    def test_bool_arrays(self, array):
        assert fingerprint(array) == fingerprint(array.copy())
        assert fingerprint(array) != fingerprint(~array)
        assert fingerprint(array) != fingerprint(array.astype(int))

    def test_integer_and_float_digests_pinned(self):
        # only inexact dtypes are rounded; these digests predate the
        # bool fix and must never move
        assert fingerprint(np.arange(6).reshape(2, 3)) == "475e1c5b4915b728"
        assert fingerprint(np.array([0.5, 1.25 + 1e-14])) == \
            "660ea8705ad613d3"
        assert fingerprint(np.array([1j, 2.0])) == "1b3a88e9bd7f2fbb"


class TestCompilationValues:
    def test_step_deterministic_across_builds(self):
        a = build_step("NNN_Ising", 6, 3)
        b = build_step("NNN_Ising", 6, 3)
        assert fingerprint_step(a) == fingerprint_step(b)

    def test_step_distinguishes_seed(self):
        assert fingerprint_step(build_step("NNN_Ising", 6, 3)) != \
            fingerprint_step(build_step("NNN_Ising", 6, 4))

    def test_device(self):
        assert fingerprint_device(montreal()) == fingerprint_device(montreal())
        assert fingerprint_device(montreal()) != fingerprint_device(aspen())

    def test_device_skips_derived_caches(self):
        warmed = montreal()
        warmed.distance                  # populate the Floyd-Warshall cache
        assert fingerprint_device(warmed) == fingerprint_device(montreal())

    def test_gateset(self):
        assert fingerprint_gateset(get_gateset("CNOT")) == \
            fingerprint_gateset(get_gateset("CNOT"))
        assert fingerprint_gateset(get_gateset("CNOT")) != \
            fingerprint_gateset(get_gateset("CZ"))

    def test_circuit_gate_order_matters(self):
        a = Circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
        b = Circuit(2, [Gate("CNOT", (0, 1)), Gate("H", (0,))])
        assert fingerprint_circuit(a) != fingerprint_circuit(b)

    def test_circuit_meta_ignored(self):
        a = Circuit(1, [Gate("H", (0,))])
        b = Circuit(1, [Gate("H", (0,), meta={"label": "x"})])
        assert fingerprint_circuit(a) == fingerprint_circuit(b)


class TestDigestSnapshot:
    """Digests of a golden case's compilation values, recorded before the
    class dispatch moved to module-level imports: keys stored by earlier
    runs must stay reachable, so no byte of the canonical form may move."""

    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.core.registry import get_compiler

        step = build_step("NNN_Ising", 8, 0)
        device = montreal()
        result = get_compiler("2qan", device=device, gateset="CNOT",
                              seed=0).compile(step)
        return step, device, result

    def test_inputs(self, compiled):
        step, device, _ = compiled
        assert fingerprint(step) == "9536d496a0acf763"
        assert fingerprint(device) == "597965348a3ecffc"
        assert fingerprint(get_gateset("CNOT")) == "78e8d21a0fea1ac6"
        assert fingerprint(get_gateset("CZ")) == "b361f739792734c1"
        assert fingerprint(get_gateset("ISWAP")) == "6950952464638c34"

    def test_symbolic_steps(self):
        from repro.analysis.harness import build_symbolic_step

        assert fingerprint(build_symbolic_step("QAOA-REG-3", 8, 0)) == \
            "61c9a2b5abe19df7"
        assert fingerprint(build_symbolic_step("NNN_Ising", 8, 0)) == \
            "e5a82738f292e524"

    def test_default_pass_fingerprints(self, compiled):
        """Every default 2QAN pass keys the cache as it did before the
        mapping worker knob was removed: no stored key may move."""
        from repro.core.registry import get_compiler

        _, device, _ = compiled
        pipeline = get_compiler("2qan", device=device,
                                gateset="CNOT").build_pipeline()
        assert {stage.name: fingerprint_pass(stage)
                for stage in pipeline.passes} == {
            "unify": "25aeb3529c8601ee",
            "mapping": "246cd526ea5b52fe",
            "routing": "830de24939a33c99",
            "scheduling": "85f767890c32c374",
            "binding": "b386f4938014d9e8",
            "decomposition": "83ff2f0669ec04ee",
        }
        assert fingerprint_pass(MapPass(trials=1)) == "5ba024945e7b6ebb"

    def test_artifacts(self, compiled):
        _, _, result = compiled
        assert fingerprint(result.circuit) == "3a64705a59de39bc"
        assert fingerprint(result.app_circuit) == "a9bbffa87be1d506"
        assert fingerprint(result.routed) == "7bf5e9f94e7512b5"
        assert fingerprint(result.scheduled) == "57e8c87d229f69bd"
        assert fingerprint(result.metrics) == "068bd2565404c066"
        assert fingerprint(result.initial_map) == "8b323d46e6d6594b"
        assert fingerprint(result.final_map) == "27ffdebfff606830"


class TestPassFingerprints:
    def test_configuration_matters(self):
        assert fingerprint_pass(UnifyPass()) != \
            fingerprint_pass(UnifyPass(enabled=False))
        assert fingerprint_pass(MapPass(trials=5)) != \
            fingerprint_pass(MapPass(trials=1))

    def test_class_matters(self):
        assert fingerprint_pass(UnifyPass()) != fingerprint_pass(RoutePass())

    def test_non_dataclass_pass(self):
        class Custom:
            name = "custom"

            def run(self, ctx):
                return ctx

        assert fingerprint_pass(Custom()) == fingerprint_pass(Custom())


class TestSymbolicFingerprints:
    def test_symbolic_step_hashes_parameter_names_not_values(self):
        """All bindings of one structure share the structural cache
        prefix: the symbolic step's fingerprint must be independent of
        any angle values (there are none) but sensitive to names."""
        from repro.analysis.harness import build_symbolic_step

        a = build_symbolic_step("QAOA-REG-3", 6, 0)
        b = build_symbolic_step("QAOA-REG-3", 6, 0)
        assert fingerprint_step(a) == fingerprint_step(b)

    def test_param_names_distinguished(self):
        from repro.hamiltonians.models import nnn_ising
        from repro.hamiltonians.trotter import trotter_step
        from repro.quantum.params import Param

        a = trotter_step(nnn_ising(6, seed=0), t=Param("t"))
        b = trotter_step(nnn_ising(6, seed=0), t=Param("tau"))
        assert fingerprint_step(a) != fingerprint_step(b)

    def test_param_affine_coefficients_distinguished(self):
        from repro.hamiltonians.models import nnn_ising
        from repro.hamiltonians.trotter import trotter_step
        from repro.quantum.params import Param

        a = trotter_step(nnn_ising(6, seed=0), t=Param("t"))
        b = trotter_step(nnn_ising(6, seed=0), t=2 * Param("t"))
        assert fingerprint_step(a) != fingerprint_step(b)

    def test_symbolic_differs_from_concrete(self):
        from repro.hamiltonians.models import nnn_ising
        from repro.hamiltonians.trotter import trotter_step
        from repro.quantum.params import Param

        symbolic = trotter_step(nnn_ising(6, seed=0), t=Param("t"))
        concrete = trotter_step(nnn_ising(6, seed=0), t=1.0)
        assert fingerprint_step(symbolic) != fingerprint_step(concrete)
        assert fingerprint_step(symbolic.bind({"t": 1.0})) == \
            fingerprint_step(concrete)

    def test_symbolic_circuit_fingerprints(self):
        from repro.quantum.params import Param, PauliExponential, \
            SymbolicUnitary

        def circuit(name):
            factors = (PauliExponential("zz", "", -Param(name)),)
            c = Circuit(2)
            c.append(Gate("UNIFIED", (0, 1),
                          symbolic=SymbolicUnitary(factors)))
            return c

        assert fingerprint_circuit(circuit("gamma")) == \
            fingerprint_circuit(circuit("gamma"))
        assert fingerprint_circuit(circuit("gamma")) != \
            fingerprint_circuit(circuit("beta"))
