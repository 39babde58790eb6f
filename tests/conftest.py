"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from repro.devices import aspen, grid, line, montreal
from repro.quantum.gates import standard_gate_unitary

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid23():
    """The 2x3 grid of the paper's Figure 3."""
    return grid(2, 3)


@pytest.fixture
def montreal_device():
    return montreal()


@pytest.fixture
def aspen_device():
    return aspen()


@pytest.fixture
def line5():
    return line(5)


def pauli_exponential(a: float, b: float, c: float) -> np.ndarray:
    """exp(i(a XX + b YY + c ZZ)) -- handy two-qubit test unitary."""
    generator = (
        a * np.kron(_X, _X) + b * np.kron(_Y, _Y) + c * np.kron(_Z, _Z)
    )
    return sla.expm(1j * generator)


@pytest.fixture
def heisenberg_unitary():
    return pauli_exponential(0.5, 0.3, 0.2)


@pytest.fixture
def dressed_swap_unitary():
    return standard_gate_unitary("SWAP") @ pauli_exponential(0.0, 0.0, 0.8)


@pytest.fixture
def problem_work(monkeypatch):
    """Live counts of benchmark step builds (``build_step`` and
    ``build_symbolic_step``) and of ``TrotterStep`` content hashes."""
    import importlib

    from repro.analysis import harness
    from repro.hamiltonians.trotter import TrotterStep

    fingerprint = importlib.import_module("repro.cache.fingerprint")
    counts = {"builds": 0, "hashes": 0}

    def counting_build(build):
        def wrapper(*args, **kwargs):
            counts["builds"] += 1
            return build(*args, **kwargs)
        return wrapper

    for name in ("build_step", "build_symbolic_step"):
        monkeypatch.setattr(harness, name,
                            counting_build(getattr(harness, name)))
    update_dataclass = fingerprint._update_dataclass

    def counting_update(h, obj):
        if isinstance(obj, TrotterStep):
            counts["hashes"] += 1
        update_dataclass(h, obj)

    monkeypatch.setattr(fingerprint, "_update_dataclass", counting_update)
    return counts
