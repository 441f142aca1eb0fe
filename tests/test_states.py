import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    STACK_QS,
    assert_bitwise_equal,
    random_bloch_vector,
    random_unit_axis,
    werner_matrix_closed_form,
)
from wernerkit.linalg import (
    HERMITIAN_TOL,
    _first_failure,
    hermitian_eigenvalues,
    kron,
    partial_transpose_b,
)
from wernerkit.separability import ppt_test
from wernerkit.states import (
    BLOCH_NORM_MAX,
    PPT_TOL,
    UNIT_TRACE_TOL,
    PositivityError,
    _largest_norm,
    _unit_axis,
    bell_state,
    bloch_state,
    marginal,
    product_state,
    validate_bloch_vector,
    validate_density_matrix,
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

    def test_is_the_real_part_of_the_complex_construction_bitwise(self):
        # q |psi_minus><psi_minus| + (1 - q)/4 I in complex arithmetic has an
        # imaginary part of +0.0 everywhere; werner(q) is its real part
        q = STACK_QS[:, None, None]
        psi = bell_state("psi_minus")
        built = q * np.outer(psi, psi.conj()) + ((1.0 - q) / 4.0) * np.eye(4, dtype=complex)
        assert not (built.imag.any() or np.signbit(built.imag).any())
        assert_bitwise_equal(werner(STACK_QS), built.real)
        assert werner(0.2).dtype == np.float64

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


def reference_gate(rho):
    """The full-spectrum gate that the Gershgorin certificate replaced: the
    Hermitian rule by np.max reductions, unit trace, then the smallest
    eigenvalue of every matrix against -PPT_TOL."""
    rho = np.asarray(rho)
    rho = rho.astype(complex if np.iscomplexobj(rho) else float, copy=False)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), axis=(-2, -1))
        scale = np.max(np.abs(rho), axis=(-2, -1))
        relative = deviation / np.where(scale > 0.0, scale, 1.0)
    bad = ~(np.where(np.isfinite(scale), relative, np.nan) <= HERMITIAN_TOL)
    if bad.any():
        raise ValueError(
            f"matrix{_first_failure(bad)[1]} is not Hermitian within {HERMITIAN_TOL} "
            "of its largest entry"
        )
    with np.errstate(over="ignore"):
        tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > UNIT_TRACE_TOL
    if bad.any():
        index, where = _first_failure(bad)
        raise ValueError(f"not a density matrix{where}: trace is {complex(tr[index])}, expected 1")
    smallest = np.linalg.eigvalsh(rho)[..., 0]
    bad = smallest < -PPT_TOL
    if bad.any():
        index, where = _first_failure(bad)
        raise ValueError(
            f"not a density matrix{where}: smallest eigenvalue "
            f"{float(smallest[index])} is below -{PPT_TOL}"
        )
    return rho


_THIRD = 1.0 / 3.0
_WERNER_QS = (
    st.floats(0.0, 1.0)
    | st.sampled_from([0.0, 1.0])
    | st.integers(-(2**14), 2**14).map(lambda k: _THIRD + k * math.ulp(_THIRD))
)


def _seeded(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def _werner_states(draw):
    return werner(draw(_WERNER_QS))


@st.composite
def _x_states(draw):
    """Diagonal (a, b, c, d) plus a Hermitian pair on each anti-diagonal, of
    modulus min(a, d) and min(b, c) times 1 + delta: at delta = 0 the
    smaller disc of each pair touches 0.  The lower entry of each pair may
    then be scaled by 1 + skew, within the Hermitian rule: eigvalsh reads
    that triangle alone."""
    rng = _seeded(draw)
    diagonal = rng.dirichlet(np.ones(4))
    delta = draw(st.sampled_from([0.0, 1e-16, -1e-16, 1e-14, 1e-6]))
    skew = draw(st.sampled_from([0.0, 1e-13, -1e-13, 4e-13]))
    is_complex = draw(st.booleans())
    m = np.diag(diagonal).astype(complex if is_complex else float)
    for i, j in ((0, 3), (1, 2)):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) if is_complex else rng.choice([-1, 1])
        m[i, j] = min(diagonal[i], diagonal[j]) * (1.0 + delta) * phase
        m[j, i] = np.conj(m[i, j]) * (1.0 + skew)
    return m


@st.composite
def _diagonal_states(draw):
    """A diagonal state with one entry at 0, at -PPT_TOL or one double
    either side of it, or at the smallest subnormal of either sign."""
    low = draw(st.sampled_from([
        0.0, -0.0, -PPT_TOL, np.nextafter(-PPT_TOL, -1.0), np.nextafter(-PPT_TOL, 0.0),
        5e-324, -5e-324,
    ]))
    rest = _seeded(draw).dirichlet(np.ones(3)) * (1.0 - low)
    return np.diag(np.array([low, *rest])[list(draw(st.permutations(range(4))))])


@st.composite
def _products_at_the_bound(draw):
    rng = _seeded(draw)
    radii = st.sampled_from([1.0, BLOCH_NORM_MAX]) | st.floats(0.0, 1.0)
    a, b = (random_unit_axis(rng) * draw(radii) for _ in range(2))
    # a norm drawn at BLOCH_NORM_MAX may round past it; bloch_state decides
    try:
        return product_state(a, b)
    except PositivityError:
        assume(False)


@st.composite
def _perturbed_werner_states(draw):
    rng = _seeded(draw)
    g = rng.standard_normal((4, 4))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((4, 4))
    if draw(st.booleans()):
        g = (g + g.conj().T) / 2.0
    size = draw(st.sampled_from([1e-17, 1e-15, 1e-14, 1e-13, 1e-12, 1e-6]))
    return werner(draw(_WERNER_QS)) + size * g


@st.composite
def _dense_states(draw):
    """G G^H over its trace, for a random complex 4 x r G, shifted down by
    a multiple of I near PPT_TOL, in C or Fortran layout."""
    rng = _seeded(draw)
    rank = draw(st.integers(1, 4))
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    shift = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) * PPT_TOL
    m = (m - shift * np.eye(4)) / (1.0 - 4.0 * shift)
    return np.asfortranarray(m) if draw(st.booleans()) else m


_STATES = st.one_of(
    _werner_states(), _x_states(), _diagonal_states(), _products_at_the_bound(),
    _perturbed_werner_states(), _dense_states(),
)


@st.composite
def _state_stacks(draw):
    """One drawn state, or a stack of up to five, or its conjugate-
    transposed view (a state too, in neither C nor Fortran layout)."""
    rho = np.stack(draw(st.lists(_STATES, min_size=1, max_size=5)))
    if len(rho) == 1 and draw(st.booleans()):
        rho = rho[0]
    if draw(st.booleans()):
        rho = np.swapaxes(rho, -1, -2).conj()
    return rho


def _outcome(gate, rho):
    """The gate's error text, or the dtype, shape and bytes it returns."""
    try:
        out = gate(rho)
    except ValueError as err:
        return str(err)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGershgorinGate:
    """validate_density_matrix passes a matrix whose Gershgorin discs lie at
    or above 0 without a spectrum, and judges the rest by eigvalsh; it
    accepts and refuses what the full-spectrum gate did, with its texts."""

    @settings(max_examples=400, deadline=None)
    @given(_state_stacks())
    def test_same_verdict_and_text_as_the_full_spectrum_gate(self, rho):
        assert _outcome(validate_density_matrix, rho) == _outcome(reference_gate, rho)

    def test_the_werner_sweep_takes_one_spectrum_the_pt_one(self, monkeypatch):
        rho = werner(np.linspace(0.0, 1.0, 1001))
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
        validate_density_matrix(rho)
        assert seen == []
        ppt_test(rho)
        (stack,) = seen
        assert_bitwise_equal(stack, partial_transpose_b(rho))

    @pytest.mark.parametrize(
        "low, spectra", [(0.0, 0), (-0.0, 0), (5e-324, 0), (-5e-324, 1), (-PPT_TOL / 2, 1)]
    )
    def test_the_certificate_is_at_0(self, low, spectra, monkeypatch):
        # a disc edge below 0 takes the spectrum, even where -PPT_TOL passes it
        rho = np.diag([low, 0.25, 0.25, 0.5 - low])
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
        assert_bitwise_equal(validate_density_matrix(rho), rho)
        assert len(seen) == spectra

    @pytest.mark.parametrize("upper", [False, True])
    def test_the_discs_are_those_of_the_triangle_eigvalsh_reads(self, upper):
        # within the Hermitian rule, the lower entry of the (2, 1) pair is
        # larger than the upper one by 4e-13: the discs of rho's rows touch
        # 0, but the matrix that eigvalsh builds from the lower triangle has
        # an eigenvalue of about -2e-13, past -PPT_TOL.  Its mirror image is
        # certified by either triangle.
        e = 2e-13
        rho = np.diag([0.0, 0.5 - e, 0.5 + e, 0.0])
        rho[1, 2], rho[2, 1] = -(0.5 - e), -(0.5 + e)
        if upper:
            rho = rho.T.copy()
        assert _outcome(validate_density_matrix, rho) == _outcome(reference_gate, rho)
        assert isinstance(_outcome(reference_gate, rho), str) != upper

    def test_names_the_first_failing_matrix_among_certified_ones(self):
        bad = np.diag([-1e-12, 0.25, 0.25, 0.5 + 1e-12])
        rho = np.stack([werner(0.2), bad, werner(1.0), bad])
        with pytest.raises(ValueError) as err:
            validate_density_matrix(rho)
        assert str(err.value) == (
            "not a density matrix at stack index 1: smallest eigenvalue -1e-12 is below "
            f"-{PPT_TOL}"
        )
        assert str(err.value) == _outcome(reference_gate, rho)

    def test_an_empty_stack_is_valid(self):
        rho = np.zeros((0, 4, 4))
        assert validate_density_matrix(rho).shape == (0, 4, 4)
        verdict = ppt_test(rho)
        assert verdict.eigenvalues.shape == (0, 4)
        assert verdict.separable.shape == verdict.min_eigenvalue.shape == (0,)
