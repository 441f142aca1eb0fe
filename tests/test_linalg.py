import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    STACK_QS,
    assert_bitwise_equal,
    random_hermitian,
    werner_matrix_closed_form,
    werner_pt_matrix_closed_form,
)
from wernerkit.linalg import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI_Z,
    _hermitian_deviation,
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
        with pytest.raises(ValueError, match="4x4"):
            partial_transpose_b(np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="2-d"):
            partial_transpose_b(np.zeros(16))

    def test_stack_equals_scalar_calls_bitwise(self):
        rng = np.random.default_rng(5)
        stacks = (
            werner(STACK_QS),
            np.array([random_hermitian(rng) for _ in range(6)]).reshape(2, 3, 4, 4),
        )
        for stack in stacks:
            pt = partial_transpose_b(stack)
            assert pt.shape == stack.shape
            for index in np.ndindex(stack.shape[:-2]):
                assert_bitwise_equal(pt[index], partial_transpose_b(stack[index]))

    def test_result_does_not_alias_the_input(self):
        stack = werner(STACK_QS[:3])
        pt = partial_transpose_b(stack)
        assert not np.shares_memory(pt, stack)
        assert not np.shares_memory(partial_transpose_b(stack[0]), stack)


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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_entries(self, bad):
        # an infinite largest entry makes the relative tolerance infinite,
        # which would let any matrix through
        m = np.array([[0.0, bad], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)
        assert not is_hermitian(m)

    def test_stack_equals_scalar_calls_bitwise(self):
        rng = np.random.default_rng(13)
        stacks = (
            werner(STACK_QS),
            partial_transpose_b(werner(STACK_QS)),
            np.array([random_hermitian(rng) for _ in range(6)]).reshape(3, 2, 4, 4),
        )
        for stack in stacks:
            eigs = hermitian_eigenvalues(stack)
            assert eigs.shape == stack.shape[:-1]
            for index in np.ndindex(stack.shape[:-2]):
                assert_bitwise_equal(eigs[index], hermitian_eigenvalues(stack[index]))


class TestPerMatrixGate:
    """The Hermitian gate of a stack holds each matrix to its own largest
    entry, never to the largest entry of the whole stack."""

    def test_rejects_a_tiny_non_hermitian_matrix_next_to_a_unit_one(self):
        unit = random_hermitian(np.random.default_rng(21))
        tiny_bad = 1e-20 * np.array(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
        )
        # its deviation, 1e-20, is far inside 1e-12 of the stack's largest entry
        for stack, position in (([unit, tiny_bad], "1"), ([tiny_bad, unit], "0")):
            with pytest.raises(ValueError, match=f"matrix at stack index {position} is not"):
                hermitian_eigenvalues(np.array(stack))

    def test_names_the_first_failing_matrix_of_a_nested_stack(self):
        stack = np.tile(np.eye(4, dtype=complex), (2, 3, 1, 1))
        stack[1, 1, 0, 1] = stack[1, 2, 0, 1] = 0.5
        with pytest.raises(ValueError, match="matrix at stack index 1, 1 is not Hermitian"):
            hermitian_eigenvalues(stack)

    def test_passes_hermitian_matrices_at_every_scale(self):
        rng = np.random.default_rng(22)
        singles = [scale * random_hermitian(rng) for scale in (1e-20, 1.0, 1e-20, 1e3)]
        eigs = hermitian_eigenvalues(np.array(singles))
        for row, m in zip(eigs, singles):
            assert_bitwise_equal(row, hermitian_eigenvalues(m))

    def test_single_matrix_message_is_unchanged(self):
        with pytest.raises(ValueError) as err:
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))
        assert str(err.value) == "matrix is not Hermitian within 1e-12 of its largest entry"


# Entry parts for the stacks below: any finite double, plus the specials.
_PARTS = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
)


@st.composite
def _stacks(draw, specials: bool):
    """A complex stack of shape (..., 4, 4): random normal entries, with a
    few entry parts replaced by drawn values (NaN and inf when specials)."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (4, 4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m *= 10.0 ** draw(st.integers(-300, 300))
    parts = m.reshape(-1).view(float)
    parts_drawn = _PARTS if specials else _PARTS.filter(np.isfinite)
    for value in draw(st.lists(parts_drawn, max_size=6)):
        parts[draw(st.integers(0, parts.size - 1))] = value
    return m


@st.composite
def _scaled_square_matrices(draw):
    """A complex n x n matrix at scale 10^k, k in [-300, 300]: random normal
    entries, made Hermitian or not, plus at will an anti-Hermitian part near
    HERMITIAN_TOL of its scale."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        m = (m + m.conj().T) / 2.0
    if draw(st.booleans()):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = m + draw(st.sampled_from([1e-14, 1e-13, 5e-13, 2e-12, 1e-11])) * (g - g.conj().T)
    return m * 10.0 ** draw(st.integers(-300, 300))


class TestOneHermitianRule:
    """is_hermitian and the gate of hermitian_eigenvalues are one rule,
    relative to each matrix's largest entry, so they agree at every scale."""

    @settings(max_examples=300, deadline=None)
    @given(_scaled_square_matrices())
    def test_is_hermitian_exactly_when_eigenvalues_return(self, m):
        try:
            hermitian_eigenvalues(m)
        except ValueError:
            returned = False
        else:
            returned = True
        assert is_hermitian(m) == returned

    def test_both_agree_on_a_tiny_and_a_huge_matrix(self):
        # an absolute rule would call the first Hermitian and the second not
        tiny = 1e-13 * np.array([[0, 1], [0, 0]], dtype=complex)
        assert not is_hermitian(tiny)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(tiny)
        huge = 1e6 * np.ones((2, 2), dtype=complex)
        huge[0, 1] += 1e-9
        assert is_hermitian(huge)
        assert_allclose(hermitian_eigenvalues(huge), [0.0, 2e6], atol=1e-9)


class TestDeviationByFolds:
    """_hermitian_deviation takes its two per-matrix maxima as elementwise
    maxima across the stack; a max is exact in any order, so it equals the
    np.max reductions it replaced, bit for bit, with NaN where they give NaN."""

    @staticmethod
    def reference(a):
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()), axis=(-2, -1))
            scale = np.max(np.abs(a), axis=(-2, -1))
            relative = deviation / np.where(scale > 0.0, scale, 1.0)
        return np.where(np.isfinite(scale), relative, np.nan)

    @settings(max_examples=150, deadline=None)
    @given(_stacks(specials=True), st.booleans())
    def test_equals_the_np_max_reductions(self, m, real):
        m = m.real.copy() if real else m
        assert_bitwise_equal(_hermitian_deviation(m), self.reference(m))


class TestPartialTransposeKeepsTheGate:
    """PT moves each entry pair (x_rc, x_cr) onto another such pair, so a
    stack and its partial transpose have the same per-matrix deviation
    max|m - m^H| and largest entry, bit for bit: the Hermitian gate of
    rho decides for PT(rho) too."""

    @staticmethod
    def gate_inputs(m):
        return _hermitian_deviation(m), np.max(np.abs(m), axis=(-2, -1))

    @settings(max_examples=150, deadline=None)
    @given(_stacks(specials=False))
    def test_finite_stacks_keep_deviation_and_scale_bitwise(self, m):
        for got, want in zip(self.gate_inputs(partial_transpose_b(m)), self.gate_inputs(m)):
            assert_bitwise_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(_stacks(specials=True))
    def test_non_finite_entries_mark_the_same_matrices(self, m):
        pt, plain = self.gate_inputs(partial_transpose_b(m)), self.gate_inputs(m)
        for got, want in zip(pt, plain):
            assert_array_equal(np.isnan(got), np.isnan(want))
            assert_array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert_bitwise_equal(got[finite], want[finite])


class TestInputKind:
    """A complex input is solved as complex128; any other, such as an int, a
    bool or a float32 array, as float64, by the real symmetric solver."""

    INPUTS = {
        "complex128": (np.array([[2.0, 1j], [-1j, 2.0]]), np.complex128),
        "complex64": (np.array([[2.0, 1j], [-1j, 2.0]], dtype=np.complex64), np.complex128),
        "float64": (np.array([[2.0, 1.0], [1.0, 2.0]]), np.float64),
        "float32": (np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.float32), np.float64),
        "int": (np.array([[2, 1], [1, 2]]), np.float64),
        "bool": (np.array([[True, False], [False, True]]), np.float64),
        "list": ([[2, 1], [1, 2]], np.float64),
    }

    @pytest.mark.parametrize("kind", INPUTS)
    def test_eigvalsh_gets_the_kind_of_the_input(self, kind, monkeypatch):
        m, dtype = self.INPUTS[kind]
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.dtype) or eigvalsh(a))
        eigs = hermitian_eigenvalues(m)
        assert seen == [dtype]
        assert eigs.dtype == np.float64
        assert_allclose(eigs, [1.0, 3.0] if kind != "bool" else [1.0, 1.0], rtol=1e-15)

    @pytest.mark.parametrize("kind", ["int", "bool", "float32"])
    def test_partial_transpose_of_a_real_input_is_float64(self, kind):
        m = np.arange(16).reshape(4, 4).astype(kind)
        pt = partial_transpose_b(m)
        assert pt.dtype == np.float64
        assert_bitwise_equal(pt, partial_transpose_b(m.astype(float)))
        assert partial_transpose_b(m.astype(np.complex64)).dtype == np.complex128


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

    def test_a_matrix_with_no_entries_is_refused(self):
        for call in (is_hermitian, hermitian_eigenvalues):
            with pytest.raises(ValueError) as err:
                call(np.zeros((0, 0)))
            assert str(err.value) == (
                "the Hermitian rule requires nonempty matrices, got shape (0, 0)"
            )
        with pytest.raises(ValueError, match="requires nonempty matrices, got shape"):
            hermitian_eigenvalues(np.zeros((3, 0, 0)))

    def test_an_empty_stack_of_matrices_is_valid(self):
        eigs = hermitian_eigenvalues(np.zeros((0, 4, 4)))
        assert (eigs.shape, eigs.dtype) == ((0, 4), np.float64)

    def test_is_hermitian_tolerance(self):
        # the entrywise deviation of [[1, t i], [0, 1]] is t; HERMITIAN_TOL is 1e-12
        assert is_hermitian(np.array([[1.0, 1e-13j], [0.0, 1.0]], dtype=complex))
        assert not is_hermitian(np.array([[1.0, 1e-11j], [0.0, 1.0]], dtype=complex))
        assert not is_hermitian(np.zeros((2, 3)))
        assert is_hermitian(np.zeros((3, 3)))
