import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import STACK_QS, THRESHOLD_QS, assert_bitwise_equal, random_unit_axis
from wernerkit.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermitian_eigenvalues,
    kron,
    partial_transpose_b,
)
from wernerkit.separability import (
    correlation,
    local_expectation,
    ppt_test,
    werner_pt_eigenvalues_closed_form,
)
from wernerkit.states import (
    BLOCH_NORM_MAX,
    SEPARABLE_Q_EDGE,
    PositivityError,
    bloch_state,
    marginal,
    product_state,
    werner,
)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

Q_GRID = np.linspace(0.0, 1.0, 101)

HERMITIAN_TEXT = "matrix is not Hermitian within 1e-12 of its largest entry"


class TestClosedForm:
    def test_critical_point(self):
        assert_allclose(
            werner_pt_eigenvalues_closed_form(1.0 / 3.0),
            [0.0, 1 / 3, 1 / 3, 1 / 3],
            atol=1e-15,
        )

    def test_stack_equals_scalar_calls_bitwise(self):
        closed = werner_pt_eigenvalues_closed_form(STACK_QS)
        assert closed.shape == (len(STACK_QS), 4)
        for q, row in zip(STACK_QS.tolist(), closed):
            assert_bitwise_equal(row, werner_pt_eigenvalues_closed_form(q))
        with pytest.raises(ValueError, match=r"got -0\.5$"):
            werner_pt_eigenvalues_closed_form(np.array([0.2, -0.5, 2.0]))

    def test_maximally_mixed(self):
        assert_allclose(werner_pt_eigenvalues_closed_form(0.0), [0.25] * 4, atol=0)

    def test_q_02(self):
        assert_allclose(
            werner_pt_eigenvalues_closed_form(0.2), [0.1, 0.3, 0.3, 0.3], atol=1e-15
        )


class TestPptTest:
    def test_numerical_matches_closed_form_on_grid(self):
        for q in Q_GRID:
            verdict = ppt_test(werner(q))
            closed = werner_pt_eigenvalues_closed_form(q)
            assert np.max(np.abs(np.array(verdict.eigenvalues) - closed)) < 1e-12

    def test_verdict_boundary_on_grid(self):
        for q in Q_GRID:
            assert ppt_test(werner(q)).separable == (q <= 1.0 / 3.0), q

    def test_maximally_mixed_all_quarters(self):
        verdict = ppt_test(werner(0.0))
        assert verdict.separable
        assert_allclose(verdict.eigenvalues, [0.25] * 4, atol=1e-14)

    def test_critical_point_separable(self):
        verdict = ppt_test(werner(1.0 / 3.0))
        assert verdict.separable
        assert abs(verdict.min_eigenvalue) < 1e-12

    def test_just_past_critical_point_inseparable(self):
        verdict = ppt_test(werner(1.0 / 3.0 + 1e-9))
        assert not verdict.separable

    def test_pure_singlet_weight(self):
        verdict = ppt_test(werner(1.0))
        assert not verdict.separable
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_verdict_records_tol(self):
        # the low PT eigenvalue (1 - 3q)/4 at the accepted edge, in magnitude
        assert ppt_test(werner(0.1)).tol == abs(1.0 - 3.0 * SEPARABLE_Q_EDGE) / 4.0

    def test_rejects_non_hermitian(self):
        bad = werner(0.2).astype(complex)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            ppt_test(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ppt_test(2.0 * werner(0.2))

    def test_rejects_negative_state(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            ppt_test(bad)


class TestPptStack:
    """ppt_test on a stack of states against one call per state."""

    def test_stack_equals_scalar_calls_bitwise(self):
        verdict = ppt_test(werner(STACK_QS))
        assert verdict.eigenvalues.shape == (len(STACK_QS), 4)
        for i, q in enumerate(STACK_QS.tolist()):
            single = ppt_test(werner(q))
            assert_bitwise_equal(verdict.eigenvalues[i], np.array(single.eigenvalues))
            assert_bitwise_equal(verdict.min_eigenvalue[i], np.float64(single.min_eigenvalue))
            assert verdict.separable[i] == single.separable
            assert verdict.tol == single.tol

    def test_verdict_flips_after_the_threshold(self):
        verdict = ppt_test(werner(THRESHOLD_QS))
        assert verdict.separable.tolist() == [True, True, True]
        assert ppt_test(werner(np.array([1.0 / 3.0 + 1e-9]))).separable.tolist() == [False]

    def test_single_state_gives_plain_values(self):
        verdict = ppt_test(werner(0.2))
        assert isinstance(verdict.min_eigenvalue, float)
        assert isinstance(verdict.separable, bool)
        assert isinstance(verdict.eigenvalues, tuple)
        assert all(isinstance(x, float) for x in verdict.eigenvalues)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda m: m.__setitem__((0, 1), 1e-3),
                "matrix{} is not Hermitian within 1e-12 of its largest entry",
            ),
            (lambda m: m.__imul__(2.0), "not a density matrix{}: trace is (2+0j), expected 1"),
            (
                lambda m: m.__setitem__(Ellipsis, np.diag([1.5, -0.5, 0.0, 0.0])),
                "not a density matrix{}: smallest eigenvalue -0.5 is below "
                "-2.6645352591003757e-15",
            ),
        ],
        ids=["hermitian", "trace", "positivity"],
    )
    def test_errors_name_the_first_failing_matrix(self, corrupt, message):
        single = werner(0.2)
        corrupt(single)
        with pytest.raises(ValueError) as err:
            ppt_test(single)
        assert str(err.value) == message.format("")

        stack = werner(np.linspace(0.0, 1.0, 5))
        for i in (3, 1):
            corrupt(stack[i])
        with pytest.raises(ValueError) as err:
            ppt_test(stack)
        assert str(err.value) == message.format(" at stack index 1")

    def test_hermitian_rule_comes_before_the_trace_check(self):
        # a deviation of 5e-13 is more than 1e-12 of the largest entry, 0.25,
        # of werner(0)
        single = werner(0.0)
        single[0, 1] = 5e-13
        with pytest.raises(ValueError) as err:
            ppt_test(single)
        assert str(err.value) == HERMITIAN_TEXT

        stack = werner(np.zeros(4))
        stack[2, 0, 1] = 5e-13
        with pytest.raises(ValueError) as err:
            ppt_test(stack)
        assert str(err.value) == (
            "matrix at stack index 2 is not Hermitian within 1e-12 of its largest entry"
        )

        # the Hermitian rule is applied to the whole stack before the trace check
        stack[1] *= 2.0
        with pytest.raises(ValueError) as err:
            ppt_test(stack)
        assert str(err.value) == (
            "matrix at stack index 2 is not Hermitian within 1e-12 of its largest entry"
        )
        stack[2] = werner(0.0)
        with pytest.raises(ValueError) as err:
            ppt_test(stack)
        assert str(err.value) == "not a density matrix at stack index 1: trace is (2+0j), expected 1"

    def test_rejects_wrong_shapes(self):
        for bad in (np.zeros(16), np.zeros((3, 2, 2))):
            with pytest.raises(ValueError, match="4x4 density matrix"):
                ppt_test(bad)


class TestCorrelation:
    def test_aligned_z_axes(self):
        for q in Q_GRID[::10]:
            assert correlation(werner(q), Z_AXIS, Z_AXIS) == pytest.approx(-q, abs=1e-12)

    def test_orthogonal_axes_vanish(self):
        for q in (0.0, 0.4, 1.0):
            assert correlation(werner(q), X_AXIS, Y_AXIS) == pytest.approx(0.0, abs=1e-12)

    def test_random_axes_closed_form(self):
        rng = np.random.default_rng(123)
        q = 0.25
        rho = werner(q)
        for _ in range(100):
            l, m = random_unit_axis(rng), random_unit_axis(rng)
            assert correlation(rho, l, m) == pytest.approx(-q * np.dot(l, m), abs=1e-12)

    def test_closed_form_plus_q_dot_is_zero(self):
        rng = np.random.default_rng(7)
        for q in (0.1, 0.5, 0.9):
            rho = werner(q)
            for _ in range(20):
                l, m = random_unit_axis(rng), random_unit_axis(rng)
                assert abs(correlation(rho, l, m) + q * np.dot(l, m)) < 1e-12

    def test_bilinear_in_pauli_basis(self):
        rng = np.random.default_rng(99)
        rho = werner(0.7)
        axes = [X_AXIS, Y_AXIS, Z_AXIS]
        tensor = np.array([[correlation(rho, ei, ej) for ej in axes] for ei in axes])
        for _ in range(25):
            l, m = random_unit_axis(rng), random_unit_axis(rng)
            expanded = l @ tensor @ m
            assert correlation(rho, l, m) == pytest.approx(expanded, abs=1e-12)

    def test_requires_unit_axes(self):
        with pytest.raises(ValueError, match="unit"):
            correlation(werner(0.2), 2 * Z_AXIS, Z_AXIS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_axes(self, bad):
        with pytest.raises(ValueError, match="finite unit"):
            correlation(werner(0.2), [bad, 0.0, 0.0], Z_AXIS)
        with pytest.raises(ValueError, match="finite unit"):
            correlation(werner(0.2), Z_AXIS, [bad, 0.0, 0.0])

    def test_refuses_a_non_hermitian_input(self):
        # a non-Hermitian input would make the trace complex, not silently real
        rho = 0.25 * np.eye(4, dtype=complex) + 0.25j * kron(PAULI_X, PAULI_X)
        with pytest.raises(ValueError) as err:
            correlation(rho, X_AXIS, X_AXIS)
        assert str(err.value) == HERMITIAN_TEXT

    def test_refuses_a_huge_axis_without_a_warning(self):
        # |v|^2 overflows; the axis is refused as not unit, with no numpy warning
        with pytest.raises(ValueError, match="finite unit"):
            correlation(werner(0.2), [1e200, 0.0, 0.0], Z_AXIS)


class TestLocalExpectation:
    def test_werner_marginals_vanish(self):
        rng = np.random.default_rng(42)
        for q in (0.0, 0.2, 1.0 / 3.0, 0.9):
            rho = werner(q)
            for side in ("A", "B"):
                axis = random_unit_axis(rng)
                assert local_expectation(rho, axis, side) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_gives_dot_product(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_unit_axis(rng) * 0.8
            b = random_unit_axis(rng) * 0.5
            rho = product_state(a, b)
            l = random_unit_axis(rng)
            assert local_expectation(rho, l, "A") == pytest.approx(np.dot(l, a), abs=1e-12)
            assert local_expectation(rho, l, "B") == pytest.approx(np.dot(l, b), abs=1e-12)

    def test_inseparable_regime_still_zero(self):
        assert local_expectation(werner(0.9), Z_AXIS, "B") == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            local_expectation(werner(0.1), Z_AXIS, "AB")

    def test_requires_unit_axis(self):
        with pytest.raises(ValueError, match="unit"):
            local_expectation(werner(0.1), 0.5 * Z_AXIS, "A")


# The four functions that take a two-qubit state, each called on one state.
CALLERS = {
    "ppt_test": ppt_test,
    "marginal": lambda rho: marginal(rho, "A"),
    "correlation": lambda rho: correlation(rho, Z_AXIS, Z_AXIS),
    "local_expectation": lambda rho: local_expectation(rho, Z_AXIS, "A"),
}


def _values(result) -> np.ndarray:
    """Every number a caller returns, as one complex array."""
    if hasattr(result, "eigenvalues"):
        result = [result.min_eigenvalue, *result.eigenvalues]
    return np.asarray(result, dtype=complex)


def _outcomes(rho) -> dict:
    """Each caller's error text on rho, or None where it returns."""
    texts = {}
    for name, call in CALLERS.items():
        try:
            result = call(rho)
        except ValueError as err:
            texts[name] = str(err)
        else:
            assert np.isfinite(_values(result)).all(), (name, result)
            texts[name] = None
    return texts


def _werner_with(q, index, delta):
    m = werner(q)
    for at, d in zip(index, delta):
        m[at] += d
    return m


# Non-states, each with its refusal text; None marks the positivity text,
# whose eigenvalue is eigvalsh's.
NON_STATES = {
    "nan": (np.full((4, 4), np.nan, dtype=complex), HERMITIAN_TEXT),
    "non_hermitian": (_werner_with(0.2, [(0, 1)], [1e-3]), HERMITIAN_TEXT),
    # 5e-13 is within 1e-12 absolutely, but not of werner(0)'s largest entry, 0.25
    "slightly_non_hermitian": (_werner_with(0.0, [(0, 1)], [5e-13]), HERMITIAN_TEXT),
    "trace": (
        2.0 * werner(0.5),
        "not a density matrix: trace is (1.9999999999999998+0j), expected 1",
    ),
    # Hermitian, but its trace overflows
    "huge_trace": (
        np.diag([1.7e308, 1.7e308, 0.0, 0.0]).astype(complex),
        "not a density matrix: trace is (inf+0j), expected 1",
    ),
    # smallest eigenvalue -1e-12: inside the old 1e-10 bound, past PPT_TOL
    "negative": (_werner_with(1.0, [(0, 0), (3, 3)], [1e-12, -1e-12]), None),
}

POSITIVITY_TEXT = (
    r"not a density matrix: smallest eigenvalue (-\S+) is below -2\.6645352591003757e-15"
)


class TestOneDensityMatrixGate:
    """ppt_test, marginal, correlation and local_expectation all check their
    state with states.validate_density_matrix, so each refuses a non-state
    with the same one-line ValueError."""

    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("kind", NON_STATES)
    def test_each_caller_refuses_a_non_state_with_one_text(self, caller, kind):
        rho, text = NON_STATES[kind]
        with pytest.raises(ValueError) as err:
            CALLERS[caller](rho)
        if text is None:
            match = re.fullmatch(POSITIVITY_TEXT, str(err.value))
            assert match and float(match[1]) == pytest.approx(-1e-12, abs=1e-15)
        else:
            assert str(err.value) == text
        assert set(_outcomes(rho).values()) == {str(err.value)}

    @pytest.mark.parametrize("caller", ["marginal", "correlation", "local_expectation"])
    def test_a_one_state_caller_refuses_a_stack(self, caller):
        with pytest.raises(ValueError) as err:
            CALLERS[caller](werner(np.array([0.1, 0.2])))
        assert str(err.value) == f"{caller} requires a 4x4 density matrix, got (2, 4, 4)"

    def test_a_product_past_the_bloch_bound_is_refused_not_called_entangled(self):
        # (I + a.sigma)/2 (x) (I + b.sigma)/2 with |a| = 1 + 1e-12 and |b| = 1,
        # built from the Pauli matrices: bloch_state refuses a, and the
        # product's smallest eigenvalue, about -5e-13, is past PPT_TOL.  The
        # old gate's 1e-10 accepted it, and its PT verdict read that rounding.
        def half(v):
            return 0.5 * (IDENTITY_2 + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)

        a = (1.0 + 1e-12) * np.array([1.0, 2.0, 2.0]) / 3.0
        b = np.array([2.0, -1.0, 2.0]) / 3.0
        with pytest.raises(PositivityError):
            bloch_state(a)
        rho = kron(half(a), half(b))
        with pytest.raises(ValueError) as err:
            ppt_test(rho)
        match = re.fullmatch(POSITIVITY_TEXT, str(err.value))
        assert match and float(match[1]) == pytest.approx(-5e-13, rel=1e-3)
        assert set(_outcomes(rho).values()) == {str(err.value)}


# Entry parts of the raw matrices below: the specials, and tiny and huge
# magnitudes.
_SPECIAL_PARTS = st.sampled_from(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]
)


@st.composite
def _raw_matrices(draw):
    """A complex 4x4 matrix of normal entries at a drawn scale, with a few
    entry parts replaced by specials, and Hermitian, or of trace 1, or both,
    at will."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m *= 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        m = (m + m.conj().T) / 2.0
    if draw(st.booleans()):
        m[np.diag_indices(4)] += (1.0 - np.trace(m)) / 4.0
    parts = m.reshape(-1).view(float)
    for value in draw(st.lists(_SPECIAL_PARTS, max_size=4)):
        parts[draw(st.integers(0, parts.size - 1))] = value
    return m


@st.composite
def _perturbed_states(draw):
    """werner(q) or a product of bloch_states, plus a small Hermitian or
    non-Hermitian perturbation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rho = werner(draw(st.floats(0.0, 1.0)))
    else:
        radii = st.floats(0.0, 1.0) | st.sampled_from([1.0, BLOCH_NORM_MAX])
        a, b = (random_unit_axis(rng) * draw(radii) for _ in range(2))
        # a norm drawn at BLOCH_NORM_MAX may round past it; bloch_state's own
        # norm, not a differently rounded one, decides which vectors are kept
        try:
            rho = product_state(a, b)
        except PositivityError:
            assume(False)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    if draw(st.booleans()):
        g = (g + g.conj().T) / 2.0
    return rho + draw(st.sampled_from([0.0, 1e-17, 1e-15, 1e-14, 1e-13, 1e-12, 1e-6])) * g


class TestNoCallerPassesANonStateThrough:
    """Each of the four either returns finite values or raises a one-line
    ValueError, and where one raises, all four raise the same text, with no
    numpy warning first."""

    @staticmethod
    def check(rho):
        texts = set(_outcomes(rho).values())
        assert len(texts) == 1, texts
        (text,) = texts
        assert text is None or "\n" not in text

    @settings(max_examples=300, deadline=None)
    @given(_raw_matrices())
    def test_raw_matrices(self, rho):
        self.check(rho)

    @settings(max_examples=300, deadline=None)
    @given(_perturbed_states())
    def test_perturbed_states(self, rho):
        self.check(rho)


@st.composite
def _real_state_stacks(draw):
    """A stack of real symmetric two-qubit states: each is G G^T of a random
    real 4 x r matrix, over its trace, mixed with the singlet at a drawn
    weight, so that both verdicts occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, rank = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    g = rng.standard_normal((n, 4, rank))
    m = g @ np.swapaxes(g, -1, -2)
    m = (m + np.swapaxes(m, -1, -2)) / 2.0
    m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
    weight = rng.uniform(0.0, 1.0, (n, 1, 1))
    return weight * werner(1.0) + (1.0 - weight) * m


_OPEN_DISC = np.zeros((4, 4))
_OPEN_DISC[:2, :2] = [[0.25, 0.375], [0.375, 0.75]]
_PHASES = np.array([[1, 1j, 1, 1], [-1j, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])


class TestRealInputs:
    """A real symmetric state goes through the gate and the PT test as
    float64, by LAPACK's real symmetric solver; a complex one as complex128.
    The two give the same verdicts, spectra within a few eps of each
    matrix's largest entry, and the same error texts."""

    @staticmethod
    def check_same_verdicts(rho, eps_count):
        real, cplx = ppt_test(rho), ppt_test(rho.astype(complex))
        assert_array_equal(real.separable, cplx.separable)
        bound = eps_count * np.finfo(float).eps * np.max(np.abs(rho), axis=(-2, -1))
        assert (np.max(np.abs(real.eigenvalues - cplx.eigenvalues), axis=-1) <= bound).all()
        assert (np.abs(real.min_eigenvalue - cplx.min_eigenvalue) <= bound).all()

    @settings(max_examples=200, deadline=None)
    @given(_real_state_stacks())
    def test_random_real_states_get_the_verdicts_of_their_complex_copies(self, rho):
        # each solver is within about n eps ||PT(rho)||_2 of the exact
        # spectrum, and ||PT(rho)||_2 <= n max|rho|, so two solvers at n = 4
        # differ by at most 2 n^2 = 32 eps max|rho| (18.9 seen over 200,000
        # such states)
        self.check_same_verdicts(rho, 32)

    def test_the_werner_stack_gets_the_verdicts_of_its_complex_copy(self):
        # 2.1 eps max|rho| seen on this stack
        rho = werner(STACK_QS)
        self.check_same_verdicts(rho, 4)
        assert_array_equal(ppt_test(rho).separable, STACK_QS <= SEPARABLE_Q_EDGE)

    @pytest.mark.parametrize(
        "rho, dtype, spectra",
        [
            # Werner and diagonal states pass the gate on their Gershgorin
            # discs, so only the PT spectrum is taken
            (werner(np.array([0.1, 0.9])), np.float64, 1),
            (werner(np.array([0.1, 0.9])).astype(complex), np.complex128, 1),
            (werner(0.5).astype(np.complex64), np.complex128, 1),
            (np.diag([1, 0, 0, 0]), np.float64, 1),
            (np.diag([True, False, False, False]), np.float64, 1),
            # a state whose first Gershgorin disc reaches below 0, with
            # entries exact in single precision
            (_OPEN_DISC, np.float64, 2),
            (_OPEN_DISC.astype(np.float32), np.float64, 2),
            (_OPEN_DISC * _PHASES, np.complex128, 2),
            ((_OPEN_DISC * _PHASES).astype(np.complex64), np.complex128, 2),
        ],
    )
    def test_both_spectra_are_taken_in_the_kind_of_the_input(
        self, rho, dtype, spectra, monkeypatch
    ):
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.dtype) or eigvalsh(a))
        ppt_test(rho)
        assert seen == [dtype] * spectra

    @pytest.mark.parametrize(
        "rho",
        [
            _werner_with(0.2, [(0, 1)], [1e-3]),
            2.0 * werner(0.5),
            np.diag([1.5, -0.5, 0.0, 0.0]),
            np.stack([werner(0.2), np.diag([1.5, -0.5, 0.0, 0.0])]),
        ],
        ids=["not_hermitian", "trace", "negative_eigenvalue", "negative_at_stack_index_1"],
    )
    def test_gate_texts_are_the_same_for_a_real_and_a_complex_input(self, rho):
        texts = []
        for m in (rho, rho.astype(complex)):
            with pytest.raises(ValueError) as err:
                ppt_test(m)
            texts.append(str(err.value))
        assert texts[0] == texts[1]


def test_pt_spectrum_of_the_constructed_state_matches_the_closed_form():
    # hermitian_eigenvalues of PT(werner(q)) against the closed-form spectrum
    for q in (0.0, 0.15, 1.0 / 3.0, 0.8):
        direct = hermitian_eigenvalues(partial_transpose_b(werner(q)))
        assert np.max(np.abs(direct - werner_pt_eigenvalues_closed_form(q))) < 1e-12


def test_bloch_state_spectrum_consistency():
    # the one-qubit positivity bound that drives the q <= 1/3 threshold
    eigs = hermitian_eigenvalues(bloch_state((0.6, 0.0, 0.8)))
    assert_allclose(eigs, [0.0, 1.0], atol=1e-12)
