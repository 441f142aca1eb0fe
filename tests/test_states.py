import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    STACK_QS,
    assert_bitwise_equal,
    random_bloch_vector,
    werner_matrix_closed_form,
)
from wernerkit.linalg import hermitian_eigenvalues, kron
from wernerkit.states import (
    BLOCH_NORM_MAX,
    PositivityError,
    _largest_norm,
    _unit_axis,
    bell_state,
    bloch_state,
    marginal,
    product_state,
    validate_bloch_vector,
    werner,
)

Q_GRID = np.linspace(0.0, 1.0, 21)


class TestWerner:
    def test_q_zero_is_maximally_mixed(self):
        assert np.max(np.abs(werner(0.0) - np.eye(4) / 4)) < 1e-15

    @pytest.mark.parametrize("q", np.linspace(0.0, 1.0, 101))
    def test_matches_closed_form(self, q):
        assert np.max(np.abs(werner(q) - werner_matrix_closed_form(q))) < 1e-15

    def test_00_matrix_element(self):
        for q in Q_GRID:
            assert werner(q)[0, 0].real == pytest.approx((1 - q) / 4, abs=1e-15)

    @pytest.mark.parametrize("q", [-0.1, 1.0000001, float("nan")])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError, match="mixing parameter"):
            werner(q)

    def test_stack_equals_scalar_calls_bitwise(self):
        stack = werner(STACK_QS)
        assert stack.shape == (len(STACK_QS), 4, 4)
        for q, rho in zip(STACK_QS.tolist(), stack):
            assert_bitwise_equal(rho, werner(q))
        grid = STACK_QS[:6].reshape(2, 3)
        assert_bitwise_equal(werner(grid)[1, 2], werner(float(grid[1, 2])))

    def test_stack_names_the_first_bad_q(self):
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            werner(np.array([0.2, 1.5, -0.5, float("nan")]))
        with pytest.raises(ValueError, match=r"got nan$"):
            werner(np.array([0.2, float("nan"), -0.5]))

    def test_family_is_hermitian_unit_trace_psd(self):
        for q in Q_GRID:
            w = werner(q)
            assert np.max(np.abs(w - w.conj().T)) < 1e-15
            assert abs(np.trace(w) - 1.0) < 1e-15
            assert hermitian_eigenvalues(w)[0] >= -1e-12


# Vectors whose squared norm underflows to 0, is a subnormal with few digits,
# or overflows past 1e300
FAR_SCALED_VECTORS = [
    [1e-200, 0.0, 0.0],
    [1e-160, 1e-160, 0.0],
    [1e151, 1e151, 0.0],
    [1e200, 0.0, 0.0],
]


class TestAxisNorm:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", FAR_SCALED_VECTORS, ids=str)
    def test_unit_axis_names_the_true_norm(self, v):
        # the norm is taken from v over its largest entry, within 2 ulps of
        # math.hypot's
        with pytest.raises(ValueError) as info:
            _unit_axis(v, "axis")
        named = re.fullmatch(r"axis must be a finite unit vector, got norm (\S+)", str(info.value))
        assert named
        true = math.hypot(*v)
        assert abs(float(named[1]) - true) <= 2 * math.ulp(true)

    def test_a_stacked_vector_has_its_own_norm(self):
        # each vector of a stack gets the norm np.linalg.norm gives it alone
        rng = np.random.default_rng(21)
        stack = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-3, 4, size=(2000, 1))
        for v in stack:
            assert _largest_norm(v) == np.linalg.norm(v)
        assert _largest_norm(stack) == max(np.linalg.norm(v) for v in stack)


class TestBellStates:
    def test_psi_minus_components(self):
        assert_allclose(
            bell_state("psi_minus"),
            [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],
            atol=0,
        )

    def test_orthonormality(self):
        kinds = ["psi_minus", "psi_plus", "phi_minus", "phi_plus"]
        for i, ki in enumerate(kinds):
            for j, kj in enumerate(kinds):
                overlap = np.vdot(bell_state(ki), bell_state(kj))
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_projector_idempotent(self):
        psi = bell_state("psi_minus")
        proj = np.outer(psi, psi.conj())
        assert np.max(np.abs(proj @ proj - proj)) < 1e-15

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("sigma_plus")

    def test_returns_fresh_copies(self):
        v = bell_state("phi_plus")
        v[0] = 9.0
        assert bell_state("phi_plus")[0] != 9.0


class TestBlochState:
    def test_zero_vector_is_maximally_mixed(self):
        assert_array_equal(bloch_state((0, 0, 0)), np.eye(2) / 2)

    def test_north_pole_is_ground_projector(self):
        assert_allclose(bloch_state((0, 0, 1)), np.diag([1.0, 0.0]), atol=1e-16)

    def test_norm_bound_enforced(self):
        with pytest.raises(PositivityError):
            bloch_state((1.1, 0, 0))

    def test_boundary_accepted(self):
        rho = bloch_state((1.0, 0.0, 0.0))
        assert abs(np.trace(rho) - 1.0) < 1e-15

    def test_norm_bound_is_exact(self):
        # 6 ulps above 1: half of PPT_TOL, 12 ulps at the accepted edge; the
        # next double up is refused
        assert BLOCH_NORM_MAX == 1.0 + 6 * np.finfo(float).eps
        bloch_state((0.0, BLOCH_NORM_MAX, 0.0))
        with pytest.raises(PositivityError):
            bloch_state((0.0, np.nextafter(BLOCH_NORM_MAX, 2.0), 0.0))

    def test_eigenvalues_from_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            v = random_bloch_vector(rng)
            n = np.linalg.norm(v)
            eigs = hermitian_eigenvalues(bloch_state(v))
            assert_allclose(eigs, [(1 - n) / 2, (1 + n) / 2], atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3 real components"):
            bloch_state((1.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_vector(self, bad):
        # a NaN norm compares false with the bound, so it is refused by name
        with pytest.raises(ValueError, match="must be finite") as info:
            bloch_state((bad, 0.0, 0.0))
        assert type(info.value) is ValueError

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "v, norm",
        [
            ((1e200, 0.0, 0.0), 1e200),
            ((0.0, -3e200, 4e200), 5e200),
            # the norm itself is past the largest double
            ((1.7e308, 1.7e308, 0.0), np.inf),
        ],
    )
    def test_refuses_a_huge_finite_vector_by_its_norm(self, v, norm):
        # |v|^2 overflows, but the vector is finite: it is past the bound,
        # with no numpy warning first
        stack = np.zeros((3, 3))
        stack[2] = v
        for call, arg in ((validate_bloch_vector, v), (bloch_state, stack)):
            with pytest.raises(PositivityError) as info:
                call(arg)
            named = re.fullmatch(r"Bloch vector norm (\S+) exceeds 1; .*", str(info.value))
            assert named and float(named[1]) == pytest.approx(norm, rel=1e-15)

    def test_rejects_a_stack_with_one_non_finite_row(self):
        stack = np.zeros((5, 3))
        stack[3, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite") as info:
            validate_bloch_vector(stack)
        assert type(info.value) is ValueError
        # a row beyond the bound still gives the positivity text
        stack[3, 1] = 1.5
        with pytest.raises(PositivityError, match="norm 1.5 exceeds 1"):
            validate_bloch_vector(stack)


class TestProductState:
    def test_two_mixed_qubits(self):
        assert np.max(np.abs(product_state((0, 0, 0), (0, 0, 0)) - np.eye(4) / 4)) < 1e-16

    def test_00_element(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_bloch_vector(rng)
            b = random_bloch_vector(rng)
            expected = (1 + a[2]) * (1 + b[2]) / 4
            assert product_state(a, b)[0, 0].real == pytest.approx(expected, abs=1e-14)

    def test_opposite_poles(self):
        # |0><0| (x) |1><1| = |01><01|
        assert_allclose(
            product_state((0, 0, 1), (0, 0, -1)),
            np.diag([0.0, 1.0, 0.0, 0.0]),
            atol=1e-16,
        )

    def test_propagates_positivity_error(self):
        with pytest.raises(PositivityError):
            product_state((0, 0, 1), (0, 0, 1.5))


class TestMarginal:
    def test_werner_marginals_maximally_mixed(self):
        for q in Q_GRID:
            for side in ("A", "B"):
                assert np.max(np.abs(marginal(werner(q), side) - np.eye(2) / 2)) < 1e-15

    def test_product_marginal_recovers_factor(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_bloch_vector(rng)
            b = random_bloch_vector(rng)
            rho = kron(bloch_state(a), bloch_state(b))
            assert np.max(np.abs(marginal(rho, "A") - bloch_state(a))) < 1e-12
            assert np.max(np.abs(marginal(rho, "B") - bloch_state(b))) < 1e-12

    def test_entangled_state_marginal(self):
        psi = bell_state("psi_minus")
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(marginal(rho, "B") - np.eye(2) / 2)) < 1e-15

    def test_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            marginal(2.0 * werner(0.5), "A")

    def test_rejects_bad_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            marginal(werner(0.5), "C")

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            marginal(np.eye(2) / 2, "A")
