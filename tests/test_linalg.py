import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    random_hermitian,
    werner_matrix_closed_form,
    werner_pt_matrix_closed_form,
)
from wernerkit.linalg import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI_Z,
    hermitian_eigenvalues,
    is_hermitian,
    kron,
    partial_transpose_b,
)
from wernerkit.states import werner


class TestKron:
    def test_identity_times_identity(self):
        assert_array_equal(kron(IDENTITY_2, IDENTITY_2), IDENTITY_4)

    def test_pauli_z_squared(self):
        assert_array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]).astype(complex))

    def test_projector_placement(self):
        # |0><0| (x) |1><1| puts its single 1 at the |01> position (index 1)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert_array_equal(kron(p0, p1), expected)

    def test_multiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kron(np.zeros((0, 2)), IDENTITY_2)


class TestPartialTranspose:
    def test_moves_offdiagonal_to_corners(self):
        # exact: the transpose is pure data movement
        for q in np.linspace(0.0, 1.0, 11):
            assert_array_equal(
                partial_transpose_b(werner_matrix_closed_form(q)),
                werner_pt_matrix_closed_form(q),
            )

    def test_identity_invariant(self):
        assert_array_equal(partial_transpose_b(IDENTITY_4 / 4), IDENTITY_4 / 4)

    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_hermitian(rng)
            assert_array_equal(partial_transpose_b(partial_transpose_b(m)), m)

    def test_trace_preserved_exact(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng)
        assert np.trace(partial_transpose_b(m)) == np.trace(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            partial_transpose_b(IDENTITY_2)


class TestHermitianEigenvalues:
    def test_pt_werner_at_q_one(self):
        eigs = hermitian_eigenvalues(werner_pt_matrix_closed_form(1.0))
        assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_identity_quarter(self):
        assert_allclose(hermitian_eigenvalues(IDENTITY_4 / 4), [0.25] * 4, atol=1e-15)

    def test_diagonal_matrix(self):
        eigs = hermitian_eigenvalues(np.diag([3.0, 1.0, 4.0, 1.0]).astype(complex))
        assert_array_equal(eigs, [1.0, 1.0, 3.0, 4.0])
        assert_array_equal(hermitian_eigenvalues(np.zeros((3, 3))), [0.0, 0.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_lapack_on_random_hermitian(self, seed):
        m = random_hermitian(np.random.default_rng(seed))
        assert np.max(np.abs(hermitian_eigenvalues(m) - np.linalg.eigvalsh(m))) < 1e-12

    def test_power_sums_match_traces(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = random_hermitian(rng)
            eigs = hermitian_eigenvalues(m)
            assert abs(np.sum(eigs) - np.trace(m).real) < 1e-10
            assert abs(np.sum(eigs**2) - np.trace(m @ m).real) < 1e-10

    def test_power_sums_determine_the_spectrum(self):
        # the power sums tr(m^k) for k = 1..n fix the n eigenvalues (Newton's
        # identities), so matching all four is a check independent of LAPACK
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = random_hermitian(rng)
            eigs = hermitian_eigenvalues(m)
            power = np.eye(4, dtype=complex)
            for k in range(1, 5):
                power = power @ m
                scale = np.sum(np.abs(eigs) ** k)
                assert abs(np.sum(eigs**k) - np.trace(power).real) <= 1e-12 * scale

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)

    def test_scale_invariant_at_tiny_scale(self):
        m = random_hermitian(np.random.default_rng(12))
        assert_allclose(
            hermitian_eigenvalues(1e-20 * m), 1e-20 * np.linalg.eigvalsh(m), rtol=1e-12
        )

    def test_rejects_non_hermitian_at_tiny_scale(self):
        m = 1e-20 * np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)


class TestPlumbing:
    def test_trace_of_werner_is_one(self):
        for q in (0.0, 0.37, 1.0):
            assert np.trace(werner(q)) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_dimension_mismatches_raise(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="2-d"):
            hermitian_eigenvalues(np.zeros(4))
        with pytest.raises(ValueError, match="2-d"):
            kron(np.zeros(2), IDENTITY_2)

    def test_is_hermitian_tolerance(self):
        m = np.array([[1.0, 1e-13j], [0.0, 1.0]], dtype=complex)
        assert is_hermitian(m, tol=1e-12)
        assert not is_hermitian(m, tol=1e-14)
        assert not is_hermitian(np.zeros((2, 3)))
