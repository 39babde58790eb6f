"""The vectorised canonicalisation agrees with the scalar one where it
is most fragile, and does not quietly hand work back to the scalar path.

The batch engine picks each matrix's Weyl-chamber representative with
array operations: ``np.round(c, 9)`` keys, a lexicographic maximum over
the in-chamber candidates and first-in-scan-order tie-breaking.  These
tests feed it key ties and chamber boundaries (``x = pi/4``, ``z = 0``,
``y = |z|``, perf_smoke's canonical gates) and compare every
``KAKDecomposition`` field byte for byte with ``kak_decompose``.  A row
whose rounded keys could differ from Python's ``round`` is sent to the
scalar path; a test shows that guard firing.  The lowering fixture's
test module counts the scalar fallbacks on its CNOT blocks, which must
stay at zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from test_batch_synthesis import _assert_kak_identical

from repro.quantum.gates import standard_gate_unitary
from repro.quantum.unitaries import random_unitary
from repro.synthesis import batch
from repro.synthesis.batch import (
    batch_best_candidates,
    batch_kak_decompose,
    batch_kak_raw,
    batch_weyl_coordinates,
)
from repro.synthesis.weyl import (
    canonical_gate,
    kak_decompose,
    weyl_coordinates,
)

PI4 = math.pi / 4


def _dressed(matrix: np.ndarray, seed: int) -> np.ndarray:
    """``matrix`` between random local layers: same class, new factors."""
    rng = np.random.default_rng(seed)
    left = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    right = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    return left @ matrix @ right


def _boundary_gates() -> list[np.ndarray]:
    """Canonical gates on the chamber's faces and edges, bare and
    dressed: every one has several candidates whose rounded keys tie."""
    coords = [
        (PI4, 0.3, 0.1), (PI4, 0.3, -0.1), (PI4, PI4, 0.2),
        (PI4, PI4, PI4), (PI4, PI4, -PI4), (PI4, 0.0, 0.0),
        (0.4, 0.3, 0.0), (0.3, 0.0, 0.0), (0.5, 0.2, 0.2),
        (0.5, 0.2, -0.2), (0.4, 0.4, 0.4), (0.4, 0.4, -0.1),
        (0.0, 0.0, 0.0), (0.6, 0.25, 0.25), (PI4, 0.1, 0.1),
    ]
    bare = [canonical_gate(*c) for c in coords]
    return bare + [_dressed(m, seed) for seed, m in enumerate(bare)]


def _perf_smoke_structured() -> list[np.ndarray]:
    rng = np.random.default_rng(3)
    return [
        standard_gate_unitary("SWAP"),
        standard_gate_unitary("CNOT"),
        standard_gate_unitary("CZ"),
        standard_gate_unitary("ISWAP"),
        np.kron(random_unitary(2, rng), random_unitary(2, rng)),
        canonical_gate(PI4, 0.3, 0.1),
        canonical_gate(0.4, 0.3, 0.0),
        canonical_gate(0.4, 0.3, -0.2),
    ]


@pytest.mark.parametrize("source", [_boundary_gates, _perf_smoke_structured],
                         ids=["chamber-boundaries", "perf-smoke-canonical"])
def test_ties_and_boundaries_match_scalar(source):
    matrices = source()
    for matrix, batched in zip(matrices, batch_kak_decompose(matrices)):
        _assert_kak_identical(batched, kak_decompose(matrix))
        assert (batched.x, batched.y, batched.z) == \
            weyl_coordinates(matrix)
    assert batch_weyl_coordinates(matrices) == \
        [weyl_coordinates(m) for m in matrices]


def test_rounding_edge_goes_to_the_scalar_path(monkeypatch):
    """A coordinate whose ``c * 1e9`` sits on a half-integer is a row
    the vector keys cannot promise; it comes back not found and the
    scalar path decides it, with the same bytes."""
    z = 123456789.5 / 1e9
    matrix = canonical_gate(0.5, 0.3, z)
    _, _, thetas, _, ok = batch_kak_raw(np.stack([matrix]))
    assert ok[0]
    assert not batch_best_candidates(thetas).found[0]
    calls = []
    monkeypatch.setattr(batch, "kak_decompose",
                        lambda m: calls.append(m) or kak_decompose(m))
    (batched,) = batch_kak_decompose([matrix])
    assert len(calls) == 1
    _assert_kak_identical(batched, kak_decompose(matrix))


def test_phase_tests_near_the_threshold_match_scalar():
    """The stacked phase tests decide elements next to ``atol`` with the
    scalar test, so their verdicts are the scalar ones exactly."""
    from repro.quantum.transforms import _is_phase, _phase_mask
    from repro.synthesis.cnot_basis import _local_is_phase, _local_phase_mask

    atol = 1e-9
    mats = []
    for scale in (1 - 1e-15, 1.0, 1 + 1e-15, 0.5, 2.0):
        for entry in ((0, 1), (1, 0)):
            m = np.eye(2, dtype=complex)
            m[entry] = atol * scale * np.exp(0.3j)
            mats.append(m)
        m = np.eye(2, dtype=complex)
        m[1, 1] += atol * scale
        mats.append(m)
    stack = np.stack(mats)
    assert _phase_mask(stack, atol).tolist() == \
        [bool(_is_phase(m, atol)) for m in mats]
    assert _local_phase_mask(stack).tolist() == \
        [bool(_local_is_phase(m)) for m in mats]
