import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    EXACT_SUM_TOL,
    STACK_QS,
    assert_bitwise_equal,
    reference_moment_matrix,
    reference_moments,
    reference_node_sum,
    reference_pauli_sum,
    reference_phase_residual,
    reference_phase_residual_exp,
    reference_phase_sum,
    reference_schmidt_determinant,
    reference_wootters,
    reference_wootters_exp,
    reference_wootters_sum,
    sphere_direction,
    werner_matrix_closed_form,
    wootters_closed_form,
    wootters_factors,
    wootters_phase_factors,
)
from wernerkit.decomposition import (
    DecompositionDomainError,
    SphericalDecomposition,
    WoottersDecomposition,
    _assemble,
    _local_norm_squared,
    _moment_matrix,
    _quadrature,
    direction_moment,
    local_bloch_norm,
    moment_check,
    reconstruct,
    schmidt_determinant,
    schmidt_rank_one_check,
    spherical_decomposition,
    wootters_decomposition,
    wootters_phase_residual,
)
from wernerkit.states import PositivityError, bell_state, werner
from wernerkit.tolerances import SEPARABLE_Q_EDGE

Q_THIRD = 1.0 / 3.0
SEPARABLE_QS = [0.0, 0.1, 0.2, Q_THIRD, SEPARABLE_Q_EDGE]
PAST_EDGE = math.nextafter(SEPARABLE_Q_EDGE, 1.0)


class TestSphericalConstruction:
    def test_weights_sum_to_one(self):
        for n_theta, n_phi in [(2, 3), (4, 8), (8, 16)]:
            dec = spherical_decomposition(0.25, n_theta, n_phi)
            assert abs(sum(dec.weights.tolist()) - 1.0) < 1e-14
            assert np.all(dec.weights >= 0.0)

    def test_anti_alignment_exact(self):
        dec = spherical_decomposition(0.2)
        assert np.all(dec.a + dec.b == 0.0)

    def test_node_norms(self):
        for q in SEPARABLE_QS:
            dec = spherical_decomposition(q)
            target = math.sqrt(3.0 * q)
            assert np.all(np.abs(np.linalg.norm(dec.a, axis=1) - target) < 1e-14)

    def test_boundary_saturation(self):
        dec = spherical_decomposition(Q_THIRD)
        assert np.all(np.abs(np.linalg.norm(dec.a, axis=1) - 1.0) < 1e-14)
        below = spherical_decomposition(0.2)
        assert np.all(np.linalg.norm(below.a, axis=1) < 1.0)

    def test_edge_nodes_are_the_one_third_nodes(self):
        # past 1/3 by rounding only, |a| stays 1, so every node is a state
        assert local_bloch_norm(SEPARABLE_Q_EDGE) == 1.0
        edge = spherical_decomposition(SEPARABLE_Q_EDGE, 7, 11)
        assert np.array_equal(edge.a, spherical_decomposition(Q_THIRD, 7, 11).a)

    def test_q_zero_nodes_are_origin(self):
        dec = spherical_decomposition(0.0)
        assert np.all(dec.a == 0.0)

    def test_node_budget(self):
        dec = spherical_decomposition(0.1, n_theta=3, n_phi=5)
        assert len(dec.nodes) == 15
        theta, phi = dec.nodes.T
        assert np.all((0.0 <= theta) & (theta <= math.pi))
        assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi))

    def test_array_shapes(self):
        dec = spherical_decomposition(0.1, n_theta=3, n_phi=5)
        assert dec.nodes.shape == (15, 2)
        assert dec.weights.shape == (15,)
        assert dec.directions.shape == dec.a.shape == dec.b.shape == (15, 3)


class TestSphericalArrayOracle:
    """The arrays against the per-node construction they replace: one
    sphere_direction and one product_state per node, the products added
    exactly."""

    @pytest.mark.parametrize("q", SEPARABLE_QS)
    @pytest.mark.parametrize("nodes", [(2, 3), (4, 8), (7, 11)])
    def test_reconstruct_matches_exact_node_sum(self, q, nodes):
        dec = spherical_decomposition(q, *nodes)
        error = np.max(np.abs(reconstruct(dec) - reference_node_sum(dec.weights, dec.a)))
        assert error <= EXACT_SUM_TOL

    def test_reconstruct_refuses_nodes_that_are_not_states(self):
        dec = spherical_decomposition(0.2, 4, 8)
        bad = dataclasses.replace(dec, a=1.5 * dec.directions)
        with pytest.raises(PositivityError) as exc:
            reconstruct(bad)
        # the error names the largest node norm, each as np.linalg.norm gives
        # it for one vector
        largest = max(np.linalg.norm(a) for a in bad.a)
        assert str(exc.value) == (
            f"Bloch vector norm {largest} exceeds 1; the operator (I + v.sigma)/2 "
            "would not be positive semidefinite"
        )

    @pytest.mark.parametrize("q", SEPARABLE_QS)
    @pytest.mark.parametrize("nodes", [(2, 3), (4, 8), (7, 11)])
    def test_vectors_equal_sphere_direction_bitwise(self, q, nodes):
        dec = spherical_decomposition(q, *nodes)
        for (theta, phi), f, a in zip(dec.nodes.tolist(), dec.directions, dec.a):
            assert np.array_equal(f, sphere_direction(theta, phi))
            radius = math.sqrt(min(3.0 * q, 1.0))
            assert np.array_equal(a, radius * sphere_direction(theta, phi))
        assert np.array_equal(dec.b, -dec.a)

    @pytest.mark.parametrize("q", SEPARABLE_QS)
    @pytest.mark.parametrize("nodes", [(2, 3), (4, 8), (7, 11)])
    def test_arrays_are_read_only_and_contiguous(self, q, nodes):
        dec = spherical_decomposition(q, *nodes)
        for arr in (dec.nodes, dec.weights, dec.directions, dec.a, dec.b):
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous
        with pytest.raises(ValueError):
            dec.a[0, 0] = 1.0


def extreme_moment_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random 4x4 matrices whose entries span every magnitude a double
    holds: 1e-300 to 1e300, subnormals, and zeros of both signs."""
    m = rng.uniform(-2.0, 2.0, (n, 4, 4)) * 10.0 ** rng.integers(-300, 301, (n, 4, 4))
    subnormal = rng.random(m.shape) < 0.1
    m[subnormal] = rng.integers(-(2**40), 2**40, subnormal.sum()) * 5e-324
    m[rng.random(m.shape) < 0.1] = 0.0
    m[rng.random(m.shape) < 0.05] = -0.0
    return m


class TestMomentKernels:
    """The spherical reconstruction's two kernels against the arithmetic
    they replace: _assemble against the 16-term Pauli sum, entry for entry,
    and _moment_matrix against one product per entry, bit for bit."""

    def test_assemble_equals_the_sixteen_term_sum(self):
        dec = spherical_decomposition(0.2)
        m = extreme_moment_matrices(np.random.default_rng(28), 50_000)
        assembled, reference = _assemble(dec, m), reference_pauli_sum(m)
        assert assembled.shape == reference.shape and assembled.dtype == reference.dtype
        assert np.array_equal(assembled, reference)
        # only the sign of a zero may differ
        floats, reference_floats = assembled.view(float), reference.view(float)
        differ = floats.view(np.uint64) != reference_floats.view(np.uint64)
        assert np.all(floats[differ] == 0.0)

    @pytest.mark.parametrize("q", [0.0, 0.2, SEPARABLE_Q_EDGE])
    def test_assemble_of_one_matrix(self, q):
        dec = spherical_decomposition(q)
        m = moment_check(dec).matrix
        assert m.shape == (4, 4)
        assert np.array_equal(_assemble(dec, m), reference_pauli_sum(m))

    @pytest.mark.parametrize("shape", [(333, 32, 3), (1, 8192, 3), (7, 11, 3), (4096, 3)])
    def test_moment_matrix_equals_one_product_per_entry(self, shape):
        rng = np.random.default_rng(shape[-2])
        w = rng.random(shape[-2])
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        assert_bitwise_equal(_moment_matrix(w, x, y), reference_moment_matrix(w, x, y))

    def test_moment_matrix_of_a_stacked_decomposition(self):
        dec = spherical_decomposition(np.linspace(0.0, Q_THIRD, 334), 64, 128)
        for x, y in ((dec.a, dec.b), (dec.directions, dec.directions)):
            expected = reference_moment_matrix(dec.weights, x, y)
            assert_bitwise_equal(_moment_matrix(dec.weights, x, y), expected)


class TestSharedQuadrature:
    """The q-independent arrays are built once per grid and shared."""

    def test_quadrature_is_shared_and_read_only(self):
        first = spherical_decomposition(0.1)
        second = spherical_decomposition(0.3)
        assert first.nodes is second.nodes
        assert first.weights is second.weights
        assert first.directions is second.directions
        assert first.a is not second.a
        _quadrature.cache_clear()
        rebuilt = spherical_decomposition(0.1)
        assert rebuilt.nodes is not first.nodes
        for old, new in zip(
            (first.nodes, first.weights, first.directions, first.a),
            (rebuilt.nodes, rebuilt.weights, rebuilt.directions, rebuilt.a),
        ):
            assert old.tobytes() == new.tobytes()
            assert not new.flags.writeable


class TestSphericalReconstruction:
    @pytest.mark.parametrize("q", SEPARABLE_QS)
    @pytest.mark.parametrize("nodes", [(2, 3), (4, 8), (8, 16)])
    def test_reconstructs_closed_form(self, q, nodes):
        dec = spherical_decomposition(q, *nodes)
        err = np.max(np.abs(reconstruct(dec) - werner_matrix_closed_form(q)))
        assert err < 1e-12

    def test_minimal_nodes_at_q_zero(self):
        dec = spherical_decomposition(0.0, 2, 3)
        assert np.max(np.abs(reconstruct(dec) - np.eye(4) / 4)) < 1e-13

    def test_00_element(self):
        for q in SEPARABLE_QS:
            recon = reconstruct(spherical_decomposition(q))
            assert recon[0, 0].real == pytest.approx((1 - q) / 4, abs=1e-13)

    def test_node_count_independence(self):
        for q in SEPARABLE_QS:
            coarse = reconstruct(spherical_decomposition(q, 2, 3))
            fine = reconstruct(spherical_decomposition(q, 8, 16))
            assert np.max(np.abs(coarse - fine)) < 1e-13

    def test_reconstruct_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            reconstruct(object())


class TestMoments:
    def test_first_moments_vanish(self):
        for q in SEPARABLE_QS:
            report = moment_check(spherical_decomposition(q))
            assert np.max(np.abs(report.first_moment_a)) <= 1e-13
            assert np.max(np.abs(report.first_moment_b)) <= 1e-13
            assert np.array_equal(report.first_moment_b, -report.first_moment_a)

    def test_second_moment_is_minus_q_identity(self):
        report = moment_check(spherical_decomposition(0.3))
        assert_allclose(report.second_moment, -0.3 * np.eye(3), atol=1e-13)
        assert np.max(np.abs(report.second_moment + 0.3 * np.eye(3))) <= EXACT_SUM_TOL

    def test_direction_second_moment_is_third_identity(self):
        for q in (0.0, 0.25):
            dec = spherical_decomposition(q)
            assert_allclose(direction_moment(dec), np.eye(3) / 3, atol=1e-13)
            expected = reference_moment_matrix(dec.weights, dec.directions, dec.directions)
            assert_bitwise_equal(direction_moment(dec), expected[1:, 1:])

    def test_report_never_raises_and_holds_only_moments(self):
        # nodes that are not states still have moments; the checks judge them
        dec = spherical_decomposition(0.2)
        report = moment_check(dataclasses.replace(dec, a=1.5 * dec.directions))
        assert [f.name for f in dataclasses.fields(report)] == [
            "q", "first_moment_a", "first_moment_b", "second_moment", "matrix",
        ]
        assert_allclose(report.second_moment, -0.75 * np.eye(3), atol=1e-15)
        # the moment matrix M = sum w (1, a)(1, b)^T holds the first three
        m = report.matrix
        assert m.shape == (4, 4) and m[0, 0] == dec.weights.sum()
        for block, field in ((m[1:, 0], "first_moment_a"), (m[0, 1:], "first_moment_b"),
                             (m[1:, 1:], "second_moment")):
            assert np.array_equal(block, getattr(report, field))


class TestDomainBoundary:
    @pytest.mark.parametrize("q", [PAST_EDGE, Q_THIRD + 1e-6, 0.34, 0.5, 1.0])
    def test_spherical_rejects_inseparable(self, q):
        with pytest.raises(DecompositionDomainError) as exc:
            spherical_decomposition(q)
        assert exc.value.bloch_norm == pytest.approx(math.sqrt(3 * q))
        assert "sqrt(3q)" in str(exc.value)

    @pytest.mark.parametrize("q", [PAST_EDGE, Q_THIRD + 1e-6, 0.34, 0.5, 1.0])
    def test_wootters_rejects_inseparable(self, q):
        with pytest.raises(DecompositionDomainError):
            wootters_decomposition(q)

    @pytest.mark.parametrize("q", [0.0, Q_THIRD, SEPARABLE_Q_EDGE])
    def test_constructors_accept_boundary(self, q):
        assert spherical_decomposition(q).q == q
        assert wootters_decomposition(q).q == q

    def test_one_window_clamp_gives_both_former_clamps_bit_for_bit(self):
        # every double from 1/3 - 4096 ulps to the edge, and 10^5 seeded q below 1/3
        third = np.float64(Q_THIRD).view(np.int64)
        window = np.arange(third - 4096, third + 65).view(np.float64)
        assert window[-1] == SEPARABLE_Q_EDGE
        qs = np.concatenate([window, np.random.default_rng(7).uniform(0.0, Q_THIRD, 10**5)])
        assert_bitwise_equal(local_bloch_norm(qs), np.sqrt(np.minimum(3.0 * qs, 1.0)))
        assert_bitwise_equal(1.0 - _local_norm_squared(qs), np.maximum(0.0, 1.0 - 3.0 * qs))

    def test_negative_q_is_a_parameter_error(self):
        with pytest.raises(ValueError, match="mixing parameter"):
            spherical_decomposition(-0.1)

    def test_node_count_validation(self):
        with pytest.raises(ValueError, match="n_theta"):
            spherical_decomposition(0.1, n_theta=1)
        with pytest.raises(ValueError, match="n_phi"):
            spherical_decomposition(0.1, n_phi=2)


class TestWootters:
    def test_closed_form_phases(self):
        q = 0.2
        dec = wootters_decomposition(q)
        assert dec.thetas[0] == 0.0
        assert dec.thetas[1] == pytest.approx(math.pi / 2)
        expected_3 = math.atan2(
            math.sqrt((1 + q) / (2 * (1 - q))), math.sqrt((1 - 3 * q) / (2 * (1 - q)))
        )
        assert dec.thetas[2] == pytest.approx(expected_3, abs=1e-15)
        assert dec.thetas[3] == pytest.approx(math.pi - expected_3, abs=1e-15)

    def test_phases_at_critical_point(self):
        dec = wootters_decomposition(Q_THIRD)
        assert dec.thetas[2] == pytest.approx(math.pi / 2, abs=1e-12)
        assert dec.thetas[3] == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.1, 0.2, 0.3, Q_THIRD])
    def test_resummation(self, q):
        recon = reconstruct(wootters_decomposition(q))
        assert np.max(np.abs(recon - werner_matrix_closed_form(q))) < 1e-12

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.2, Q_THIRD])
    def test_all_vectors_are_product_states(self, q):
        dec = wootters_decomposition(q)
        assert all(schmidt_rank_one_check(z) for z in dec.z)

    def test_vector_norms(self):
        for q in (0.05, 0.2, Q_THIRD):
            dec = wootters_decomposition(q)
            norms_sq = [float(np.real(np.vdot(z, z))) for z in dec.z]
            for n in norms_sq:
                assert n == pytest.approx(0.25, abs=1e-12)
            assert sum(norms_sq) == pytest.approx(1.0, abs=1e-12)

    def test_phase_constraint_satisfied(self):
        for q in np.linspace(0.0, Q_THIRD, 12):
            dec = wootters_decomposition(q)
            assert reference_phase_residual_exp(dec.thetas, q) <= 1e-14
            assert wootters_phase_residual(dec) <= 1e-14


# The separable q of STACK_QS, then the 64 doubles of the window
# (1/3, SEPARABLE_Q_EDGE].
_THIRD_BITS = np.float64(Q_THIRD).view(np.int64)
WINDOW_QS = np.arange(_THIRD_BITS + 1, _THIRD_BITS + 65).view(np.float64)
CLOSED_FORM_QS = np.concatenate([STACK_QS[STACK_QS <= Q_THIRD], WINDOW_QS])


class TestWoottersClosedForm:
    """z built from the phase factors 1, i, c + is and -c + is, against
    the same formula in exact rational arithmetic and against the
    exp-of-atan2 construction it replaces."""

    def test_window_ends_at_the_edge(self):
        assert WINDOW_QS[0] == math.nextafter(Q_THIRD, 1.0)
        assert WINDOW_QS[-1] == SEPARABLE_Q_EDGE and WINDOW_QS.size == 64

    def test_z_is_one_read_only_array(self):
        dec = wootters_decomposition(CLOSED_FORM_QS)
        assert dec.z.shape == (4, CLOSED_FORM_QS.size, 4) and dec.z.dtype == complex
        assert not dec.z.flags.writeable
        assert wootters_decomposition(0.2).z.shape == (4, 4)

    def test_cross_entries_have_exactly_zero_real_parts(self):
        # the |01> and |10> entries are purely imaginary: +0.0, not a residue
        for z in (wootters_decomposition(CLOSED_FORM_QS).z, wootters_decomposition(0.2).z):
            assert_bitwise_equal(z.real[..., 1:3], np.zeros(z.shape[:-1] + (2,)))

    def test_entries_within_2_ulps_of_the_exact_closed_form(self):
        # exact from the same float64 c, s, h and h'; a decimal context of
        # 40 digits would round the operands themselves, whose exact values
        # take up to 55 digits, and miss the exact zero S_2 h - h' at q = 0
        z = wootters_decomposition(CLOSED_FORM_QS).z
        worst = 0.0
        for k, q in enumerate(CLOSED_FORM_QS.tolist()):
            exact = wootters_closed_form(*map(Fraction, wootters_factors(q)))
            for i, j in np.ndindex(4, 4):
                for value, part in zip((z[i, k, j].real, z[i, k, j].imag), exact[i][j]):
                    worst = max(worst, float(abs(Fraction(value) - part)) / math.ulp(part))
        assert worst <= 2.0

    def test_phase_factor_has_unit_modulus(self):
        # |c + is| within one ulp of 1, decided on the exact square
        ulp = Fraction(math.ulp(1.0))
        for q in CLOSED_FORM_QS.tolist():
            c, s, _, _ = map(Fraction, wootters_factors(q))
            assert (1 - ulp) ** 2 <= c * c + s * s <= (1 + ulp) ** 2

    def test_matches_the_exp_of_atan2_construction(self):
        z = wootters_decomposition(CLOSED_FORM_QS).z
        for k, q in enumerate(CLOSED_FORM_QS.tolist()):
            assert np.max(np.abs(z[:, k] - np.array(reference_wootters_exp(q)))) <= 4e-16


class TestWoottersPhaseResidual:
    """The residual of Wootters' own phase factors, against the factor form
    in Python scalars and the exp-of-angle form it replaces."""

    def test_stack_equals_the_factor_form(self):
        residuals = wootters_phase_residual(wootters_decomposition(CLOSED_FORM_QS))
        for k, q in enumerate(CLOSED_FORM_QS.tolist()):
            total = reference_phase_sum(wootters_phase_factors(q), q)
            # -2cs and 2cs cancel exactly, so the sum is real
            assert total.imag == 0.0
            assert residuals[k] == abs(total)
            assert residuals[k] == wootters_phase_residual(wootters_decomposition(q))

    def test_within_1e_15_of_the_exp_form_outside_the_window(self):
        qs = CLOSED_FORM_QS[CLOSED_FORM_QS <= Q_THIRD]
        residuals = wootters_phase_residual(wootters_decomposition(qs))
        for k, q in enumerate(qs.tolist()):
            _, thetas = reference_wootters(q)
            assert abs(residuals[k] - reference_phase_residual_exp(thetas, q)) <= 1e-15


class TestSchmidtCheck:
    def test_basis_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert schmidt_rank_one_check(v)

    def test_entangled_state_fails(self):
        # |det| of the singlet's amplitude matrix is exactly 1/2
        psi = bell_state("psi_minus")
        assert not schmidt_rank_one_check(psi)
        det = psi[0] * psi[3] - psi[1] * psi[2]
        assert abs(det) == pytest.approx(0.5, abs=1e-15)

    def test_scale_invariant_verdict(self):
        # nearly-product vector: the verdict must not flip when it is rescaled
        v = np.array([1.0, 1e-6, 0.0, 1e-15], dtype=complex)
        assert schmidt_rank_one_check(v)
        assert schmidt_rank_one_check(1e6 * v)
        assert schmidt_rank_one_check(1e-6 * v)
        # a scaled Bell vector stays entangled at every scale
        psi = bell_state("psi_minus")
        for scale in (1e-6, 1.0, 1e6):
            assert not schmidt_rank_one_check(scale * psi)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            schmidt_rank_one_check(np.ones(3))

    def test_determinant_is_the_amplitude_determinant(self):
        psi = bell_state("psi_minus")
        assert schmidt_determinant(psi) == psi[0] * psi[3] - psi[1] * psi[2]
        assert schmidt_determinant(np.array([1.0, 2.0, 3.0, 4.0])) == -2.0
        with pytest.raises(ValueError):
            schmidt_determinant(np.ones(3))


class TestPhaseResidual:
    """Known values of the angle form the tests take as their reference."""

    def test_all_zero_phases(self):
        assert reference_phase_residual_exp((0, 0, 0, 0), 0.0) == pytest.approx(4.0)

    def test_hand_solution_at_critical_point(self):
        res = reference_phase_residual_exp((0, math.pi / 2, math.pi / 2, math.pi / 2), Q_THIRD)
        assert res <= 1e-15


class TestCrossDecomposition:
    @pytest.mark.parametrize("q", SEPARABLE_QS)
    def test_both_routes_agree(self, q):
        spherical = reconstruct(spherical_decomposition(q))
        wootters = reconstruct(wootters_decomposition(q))
        assert np.max(np.abs(spherical - wootters)) < 1e-11


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=SEPARABLE_Q_EDGE, allow_nan=False))
def test_decompositions_reconstruct_for_any_separable_q(q):
    target = werner(q)
    assert np.max(np.abs(reconstruct(spherical_decomposition(q)) - target)) < 1e-12
    assert np.max(np.abs(reconstruct(wootters_decomposition(q)) - target)) < 1e-12


# The accepted range's ends and the doubles beside them.
STACK_EDGE_QS = [
    0.0,
    math.nextafter(0.0, 1.0),
    math.nextafter(Q_THIRD, 0.0),
    Q_THIRD,
    math.nextafter(Q_THIRD, 1.0),
    math.nextafter(SEPARABLE_Q_EDGE, 0.0),
    SEPARABLE_Q_EDGE,
]
q_stacks = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=SEPARABLE_Q_EDGE), st.sampled_from(STACK_EDGE_QS)
    ),
    min_size=1,
    max_size=80,
).map(np.array)


def block_lengths(nodes: tuple[int, int]) -> list[int]:
    """Stack lengths around blocks of 1024 node products on this grid: one
    short of a block, one block, one more, and two blocks and one more."""
    block = max(1, 1024 // (nodes[0] * nodes[1]))
    return [block - 1, block, block + 1, 2 * block + 1]


def edge_stack(length: int) -> np.ndarray:
    return np.concatenate([STACK_EDGE_QS, np.linspace(0.0, SEPARABLE_Q_EDGE, length)])[:length]


class TestStackOracle:
    """Every output of a stack of q against the one-q call, bit for bit,
    signed zeros included, and against the per-q scalar loop it replaces:
    bit for bit, or for node sums within EXACT_SUM_TOL of the exact sum."""

    @staticmethod
    def check_spherical(qs: np.ndarray, nodes: tuple[int, int]) -> None:
        dec = spherical_decomposition(qs, *nodes)
        recon = reconstruct(dec)
        moments = moment_check(dec)
        assert dec.a.shape == (len(qs), nodes[0] * nodes[1], 3)
        for k, q in enumerate(qs.tolist()):
            one = spherical_decomposition(q, *nodes)
            assert_bitwise_equal(dec.a[k], one.a)
            assert_bitwise_equal(recon[k], reconstruct(one))
            assert np.max(np.abs(recon[k] - reference_node_sum(one.weights, one.a))) <= EXACT_SUM_TOL
            report = moment_check(one)
            for name, exact in zip(
                ("first_moment_a", "first_moment_b", "second_moment"),
                reference_moments(one.weights, one.a),
            ):
                stacked = getattr(moments, name)[k]
                assert_bitwise_equal(stacked, getattr(report, name))
                assert np.max(np.abs(stacked - exact)) <= EXACT_SUM_TOL
            assert_bitwise_equal(direction_moment(dec), direction_moment(one))

    @staticmethod
    def check_wootters(qs: np.ndarray) -> None:
        dec = wootters_decomposition(qs)
        recon = reconstruct(dec)
        dets = schmidt_determinant(dec.z)
        residuals = wootters_phase_residual(dec)
        for k, q in enumerate(qs.tolist()):
            z, thetas = reference_wootters(q)
            assert [t[k] for t in dec.thetas] == list(thetas)
            for i in range(4):
                assert_bitwise_equal(dec.z[i][k], z[i])
                assert_bitwise_equal(dets[i, k], reference_schmidt_determinant(z[i]))
            assert_bitwise_equal(recon[k], reference_wootters_sum(z))
            assert residuals[k] == reference_phase_residual(wootters_phase_factors(q), q)

    @settings(max_examples=25, deadline=None)
    @given(q_stacks)
    def test_spherical_stack(self, qs):
        self.check_spherical(qs, (4, 8))

    @settings(max_examples=30, deadline=None)
    @given(q_stacks)
    def test_wootters_stack(self, qs):
        self.check_wootters(qs)

    @pytest.mark.parametrize("nodes", [(4, 8), (7, 11)])
    def test_spherical_stacks_across_blocks(self, nodes):
        for length in block_lengths(nodes):
            self.check_spherical(edge_stack(length), nodes)

    @pytest.mark.parametrize("length", block_lengths((4, 8)))
    def test_wootters_stacks_of_block_lengths(self, length):
        self.check_wootters(edge_stack(length))

    def test_spherical_stack_past_1024_nodes(self):
        self.check_spherical(np.array([0.0, 0.2, Q_THIRD]), (16, 65))

    @settings(max_examples=30, deadline=None)
    @given(q_stacks)
    def test_scalar_q_keeps_scalar_types(self, qs):
        q = float(qs[0])
        spherical = spherical_decomposition(q)
        assert type(spherical.q) is float and spherical.a.shape == (32, 3)
        assert reconstruct(spherical).shape == (4, 4)
        report = moment_check(spherical)
        assert report.first_moment_a.shape == (3,) and report.second_moment.shape == (3, 3)
        wootters = wootters_decomposition(q)
        assert type(wootters.q) is float
        assert type(wootters.c) is type(wootters.s) is float
        assert all(type(t) is float for t in wootters.thetas)
        assert all(v.shape == (4,) for v in wootters.z)
        assert isinstance(schmidt_determinant(wootters.z[0]), np.complex128)
        assert type(wootters_phase_residual(wootters)) is float
        assert type(local_bloch_norm(q)) is float


class TestStackDomain:
    """A stack is refused as a whole, and the first bad q names the error."""

    @pytest.mark.parametrize("build", [spherical_decomposition, wootters_decomposition])
    def test_first_inseparable_q_names_the_error(self, build):
        with pytest.raises(DecompositionDomainError) as exc:
            build(np.array([0.1, 0.5, 0.7]))
        assert exc.value.q == 0.5
        assert exc.value.bloch_norm == math.sqrt(1.5)
        assert str(exc.value).startswith("q = 0.5 is past the separability threshold")
        with pytest.raises(DecompositionDomainError) as scalar:
            build(0.5)
        assert str(exc.value) == str(scalar.value)

    @pytest.mark.parametrize("build", [spherical_decomposition, wootters_decomposition])
    def test_first_invalid_q_is_a_parameter_error(self, build):
        with pytest.raises(ValueError, match=r"got -0\.1$"):
            build(np.array([0.1, -0.1, 0.5, np.nan]))

    def test_stacked_types(self):
        qs = np.array([0.0, 0.2])
        assert isinstance(spherical_decomposition(qs), SphericalDecomposition)
        assert isinstance(wootters_decomposition(qs), WoottersDecomposition)
        assert reconstruct(wootters_decomposition(qs)).shape == (2, 4, 4)
        report = moment_check(spherical_decomposition(qs))
        assert report.second_moment.shape == (2, 3, 3)
        assert direction_moment(spherical_decomposition(qs)).shape == (3, 3)
        assert np.max(np.abs(report.second_moment + qs[:, None, None] * np.eye(3))) <= 1e-15
        assert reconstruct(spherical_decomposition(qs[:0])).shape == (0, 4, 4)
