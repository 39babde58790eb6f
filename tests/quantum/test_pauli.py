"""Unit and property tests for Pauli-string algebra."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.pauli import PauliString, pauli_matrix

LABELS = "IXYZ"


def random_string(draw_labels, qubits):
    return PauliString.from_label("".join(draw_labels), tuple(qubits))


pauli_labels = st.lists(
    st.sampled_from("IXYZ"), min_size=1, max_size=4
)


class TestConstruction:
    def test_from_label_dense(self):
        p = PauliString.from_label("XIZ")
        assert p.label_on(0) == "X"
        assert p.label_on(1) == "I"
        assert p.label_on(2) == "Z"

    def test_from_label_with_qubits(self):
        p = PauliString.from_label("XZ", (2, 5))
        assert p.qubits == (2, 5)

    def test_identities_dropped(self):
        p = PauliString.from_label("IXI")
        assert p.qubits == (1,)
        assert p.weight == 1

    def test_sorted_by_qubit(self):
        p = PauliString(((5, "X"), (2, "Z")))
        assert p.qubits == (2, 5)

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError):
            PauliString(((0, "X"), (0, "Z")))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PauliString(((0, "Q"),))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            PauliString(((-1, "X"),))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XX", (0,))

    def test_str(self):
        assert str(PauliString.from_label("XZ", (0, 3))) == "X0*Z3"
        assert str(PauliString()) == "I"

    def test_hashable(self):
        a = PauliString.from_label("XX", (0, 1))
        b = PauliString.from_label("XX", (0, 1))
        assert a == b
        assert hash(a) == hash(b)


class TestMatrices:
    def test_single_qubit_matrices(self):
        for label in "IXYZ":
            matrix = pauli_matrix(label)
            assert matrix.shape == (2, 2)
            assert np.allclose(matrix @ matrix, np.eye(2))

    def test_unknown_matrix_label(self):
        with pytest.raises(ValueError):
            pauli_matrix("A")

    def test_to_matrix_xx(self):
        p = PauliString.from_label("XX")
        x = pauli_matrix("X")
        assert np.allclose(p.to_matrix(2), np.kron(x, x))

    def test_to_matrix_embeds_identity(self):
        p = PauliString.from_label("Z", (1,))
        z = pauli_matrix("Z")
        expected = np.kron(np.kron(np.eye(2), z), np.eye(2))
        assert np.allclose(p.to_matrix(3), expected)

    def test_to_matrix_out_of_range(self):
        p = PauliString.from_label("Z", (4,))
        with pytest.raises(ValueError):
            p.to_matrix(3)

    def test_to_matrix_hermitian_unitary(self):
        p = PauliString.from_label("XYZ")
        matrix = p.to_matrix(3)
        assert np.allclose(matrix, matrix.conj().T)
        assert np.allclose(matrix @ matrix, np.eye(8))


class TestExponential:
    @pytest.mark.parametrize("label", ["XX", "YY", "ZZ", "XZ", "YX"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.2, np.pi / 2])
    def test_exp_matches_expm(self, label, theta):
        p = PauliString.from_label(label)
        expected = sla.expm(1j * theta * p.to_matrix(2))
        assert np.allclose(p.exp(theta), expected)

    def test_exp_single_qubit(self):
        p = PauliString.from_label("X", (3,))
        expected = sla.expm(1j * 0.7 * pauli_matrix("X"))
        assert np.allclose(p.exp(0.7), expected)

    def test_exp_identity_is_phase(self):
        p = PauliString()
        assert np.allclose(p.exp(0.5), np.exp(0.5j) * np.eye(1))

    def test_exp_is_unitary(self):
        p = PauliString.from_label("YZ")
        u = p.exp(1.234)
        assert np.allclose(u @ u.conj().T, np.eye(4))

    def test_exp_on_sparse_support(self):
        # support (0, 2): compact matrix acts on 2 qubits
        p = PauliString.from_label("XZ", (0, 2))
        assert p.exp(0.4).shape == (4, 4)

    @pytest.mark.parametrize("label", [a + b for a in "IXYZ" for b in "IXYZ"
                                       if a + b != "II"] + list("XYZ"))
    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.2, np.pi / 2, 1e-9])
    def test_memoised_exp_bit_identical(self, label, theta):
        """The compact-matrix memo changes no byte of ``exp``."""
        p = PauliString.from_label(label, tuple(range(3, 3 + len(label))))
        k = p.weight
        compact = PauliString.from_label("".join(q for _, q in p.paulis))
        want = (np.cos(theta) * np.eye(2**k, dtype=complex)
                + 1j * np.sin(theta) * compact.to_matrix(k))
        for _ in range(2):              # first call fills the memo
            got = p.exp(theta)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_exp_result_is_writable(self):
        """Callers own the returned matrix; only the memo is read-only."""
        u = PauliString.from_label("XY").exp(0.2)
        u[0, 0] = 0.0
        assert PauliString.from_label("XY").exp(0.2)[0, 0] != 0.0


class TestCommutation:
    def test_xx_commutes_zz(self):
        a = PauliString.from_label("XX", (0, 1))
        b = PauliString.from_label("ZZ", (0, 1))
        assert a.commutes_with(b)

    def test_anticommuting_overlap(self):
        a = PauliString.from_label("XX", (0, 1))
        b = PauliString.from_label("YY", (1, 2))
        assert not a.commutes_with(b)

    def test_disjoint_always_commute(self):
        a = PauliString.from_label("XY", (0, 1))
        b = PauliString.from_label("ZZ", (2, 3))
        assert a.commutes_with(b)

    @given(
        la=st.sampled_from(["XX", "YY", "ZZ", "XY", "ZX"]),
        lb=st.sampled_from(["XX", "YY", "ZZ", "XY", "ZX"]),
        qa=st.sampled_from([(0, 1), (1, 2), (0, 2)]),
        qb=st.sampled_from([(0, 1), (1, 2), (0, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutation_matches_matrices(self, la, lb, qa, qb):
        a = PauliString.from_label(la, qa)
        b = PauliString.from_label(lb, qb)
        ma, mb = a.to_matrix(3), b.to_matrix(3)
        commutator_zero = np.allclose(ma @ mb, mb @ ma)
        assert a.commutes_with(b) == commutator_zero

    @given(
        la=st.sampled_from(["X", "Y", "Z", "XX", "YZ"]),
        lb=st.sampled_from(["X", "Y", "Z", "XX", "YZ"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_commutation_symmetric(self, la, lb):
        a = PauliString.from_label(la)
        b = PauliString.from_label(lb)
        assert a.commutes_with(b) == b.commutes_with(a)


class TestProduct:
    @given(
        la=st.sampled_from(["XX", "YY", "ZZ", "XZ", "YX", "XI"]),
        lb=st.sampled_from(["XX", "YY", "ZZ", "XZ", "YX", "IZ"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_product_matches_matrices(self, la, lb):
        a = PauliString.from_label(la)
        b = PauliString.from_label(lb)
        phase, product = a * b
        expected = a.to_matrix(2) @ b.to_matrix(2)
        assert np.allclose(phase * product.to_matrix(2), expected)

    def test_product_disjoint_supports(self):
        a = PauliString.from_label("X", (0,))
        b = PauliString.from_label("Z", (2,))
        phase, product = a * b
        assert phase == 1
        assert product.qubits == (0, 2)

    def test_self_product_is_identity(self):
        a = PauliString.from_label("XYZ")
        phase, product = a * a
        assert phase == 1
        assert product.weight == 0
