"""Tests for the compiler registry (repro.core.registry)."""

import numpy as np
import pytest

from repro.core.decompose import DecomposeCache
from repro.core.registry import (
    CompilerSpec,
    compiler_names,
    compiler_specs,
    get_compiler,
    register_compiler,
    resolve_spec,
)
from repro.devices.library import montreal
from repro.hamiltonians.models import nnn_ising
from repro.hamiltonians.trotter import trotter_step


class TestLookup:
    def test_canonical_names(self):
        assert set(compiler_names()) == {
            "2qan", "2qan_nodress", "tket", "qiskit", "ic_qaoa", "nomap",
            "paulihedral",
        }

    def test_aliases_resolve_to_canonical(self):
        assert resolve_spec("order").name == "tket"
        assert resolve_spec("qaoa_ic").name == "ic_qaoa"
        assert resolve_spec("paulihedral_like").name == "paulihedral"

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown compiler 'bogus'"):
            resolve_spec("bogus")

    def test_specs_carry_device_metadata(self):
        by_name = {spec.name: spec for spec in compiler_specs()}
        assert by_name["2qan"].requires_device
        assert not by_name["nomap"].requires_device
        assert not by_name["paulihedral"].requires_device

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_compiler(CompilerSpec(
                name="duplicate-test", summary="", factory=lambda **k: None,
                aliases=("2qan",),
            ))


class TestConstruction:
    def test_every_compiler_compiles(self, aspen_device):
        step = trotter_step(nnn_ising(6, seed=0))
        for name in compiler_names():
            result = get_compiler(name, device=aspen_device,
                                  gateset="CNOT", seed=0).compile(step)
            assert result.metrics.n_two_qubit_gates > 0, name
            assert result.timings, name

    def test_alias_and_canonical_agree(self, aspen_device):
        step = trotter_step(nnn_ising(6, seed=0))
        via_alias = get_compiler("order", device=aspen_device,
                                 gateset="CNOT", seed=0).compile(step)
        canonical = get_compiler("tket", device=aspen_device,
                                 gateset="CNOT", seed=0).compile(step)
        assert via_alias.metrics == canonical.metrics

    def test_knobs_forwarded(self, aspen_device):
        compiler = get_compiler("2qan", device=aspen_device, gateset="CNOT",
                                mapping_trials=1, dress=False)
        assert compiler.mapping_trials == 1
        assert compiler.dress is False

    def test_unknown_knob_raises(self, aspen_device):
        with pytest.raises(TypeError):
            get_compiler("2qan", device=aspen_device, gateset="CNOT",
                         bogus_knob=3)

    def test_cache_injected(self, aspen_device):
        cache = DecomposeCache()
        compiler = get_compiler("2qan", device=aspen_device, gateset="CNOT",
                                cache=cache)
        assert compiler.cache is cache

    def test_nodress_variant_preconfigured(self, aspen_device):
        compiler = get_compiler("2qan_nodress", device=aspen_device,
                                gateset="CNOT")
        assert compiler.dress is False


#: A duplicated physical qubit, one off the device, one qubit short.
BAD_INITIALS = ([0, 0, 1, 2], [0, 1, 2, 99], [0, 1, 2])


class TestInitialAssignment:
    """A caller's fixed ``initial`` map is checked where it is consumed:
    every compiler with a placement stage rejects a malformed one with
    one ``ValueError`` instead of compiling on a broken map or failing
    deep inside routing."""

    @pytest.mark.parametrize("initial", BAD_INITIALS, ids=str)
    @pytest.mark.parametrize("name", [spec.name for spec in compiler_specs()
                                      if spec.requires_device])
    def test_placing_compilers_reject(self, name, initial):
        step = trotter_step(nnn_ising(4, seed=0))
        compiler = get_compiler(name, device=montreal(), gateset="CNOT",
                                seed=1)
        with pytest.raises(ValueError, match="initial assignment"):
            compiler.compile(step, initial=np.array(initial))

    @pytest.mark.parametrize("initial", BAD_INITIALS, ids=str)
    @pytest.mark.parametrize("name", [spec.name for spec in compiler_specs()
                                      if not spec.requires_device])
    def test_device_free_compilers_ignore_it(self, name, initial):
        """NoMap and Paulihedral place nothing, so ``initial`` is unused."""
        step = trotter_step(nnn_ising(4, seed=0))
        compiler = get_compiler(name, device=montreal(), gateset="CNOT",
                                seed=1)
        assert compiler.compile(step, initial=np.array(initial)).metrics == \
            compiler.compile(step).metrics
