"""Shared test oracles, independent of the library code paths they check."""

import math

import numpy as np


def werner_matrix_closed_form(q: float) -> np.ndarray:
    """Entrywise closed form of the Werner matrix in the |00>,|01>,|10>,|11>
    basis: diagonal ((1-q)/4, (1+q)/4, (1+q)/4, (1-q)/4), off-diagonal -2q/4
    at (1,2) and (2,1), zero elsewhere."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1.0 - q) / 4.0
    m[1, 1] = m[2, 2] = (1.0 + q) / 4.0
    m[1, 2] = m[2, 1] = -2.0 * q / 4.0
    return m


def werner_pt_matrix_closed_form(q: float) -> np.ndarray:
    """Closed form of the partially transposed Werner matrix: the -2q/4 pair
    moves from the inner (01,10) block to the (00,11) corners."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1.0 - q) / 4.0
    m[1, 1] = m[2, 2] = (1.0 + q) / 4.0
    m[0, 3] = m[3, 0] = -2.0 * q / 4.0
    return m


def random_hermitian(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_unit_axis(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_bloch_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction with radius scaled into the open unit ball."""
    return random_unit_axis(rng) * rng.uniform(0.0, 0.999)


# A q grid for stack-versus-scalar oracles: the 1001-point sweep grid plus
# the separability threshold 1/3 and its two neighbouring doubles.
THRESHOLD_QS = np.array([np.nextafter(1.0 / 3.0, 0.0), 1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)])
STACK_QS = np.concatenate([np.linspace(0.0, 1.0, 1001), THRESHOLD_QS])


def assert_bitwise_equal(actual, expected) -> None:
    """Same shape, dtype and bytes: unlike ==, tells -0.0 from 0.0."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# Per-q oracles of the decompositions: the one-q scalar arithmetic that the
# stacked library code replaces, kept as the reference it must equal.

_SIGN_ROWS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def wootters_factors(q: float) -> tuple[float, float, float, float]:
    """c = cos theta_3, s = sqrt(1 - c^2), h = sqrt((1-q)/32) and
    h' = sqrt((1+3q)/32) of one q, in Python floats."""
    c = math.sqrt(max(0.0, 1.0 - 3.0 * q) / (2.0 * (1.0 - q)))
    h, h_psi = math.sqrt((1.0 - q) / 32.0), math.sqrt((1.0 + 3.0 * q) / 32.0)
    return c, math.sqrt(1.0 - c * c), h, h_psi


def wootters_closed_form(c, s, h, h_psi) -> list[list[tuple]]:
    """The (real, imaginary) parts of each z_i's entries on |00>, |01>, |10>,
    |11>, in the arithmetic of the arguments: rounded for floats, exact for
    Fractions."""
    zero = 0 * h
    return [
        [
            ((s3 * c + s4 * s) * h, (s3 * s + s4 * c) * h),
            (zero, s2 * h - h_psi),
            (zero, s2 * h + h_psi),
            ((s4 * s - s3 * c) * h, (s4 * c - s3 * s) * h),
        ]
        for _, s2, s3, s4 in _SIGN_ROWS
    ]


def reference_wootters(q: float) -> tuple[tuple, tuple]:
    """The four vectors z and phase angles of one q: the closed form in
    Python complex scalars, and math.atan2 of the (s, +-c) pairs."""
    c, s, h, h_psi = wootters_factors(q)
    z = tuple(
        np.array([complex(re, im) for re, im in entries])
        for entries in wootters_closed_form(c, s, h, h_psi)
    )
    return z, (0.0, math.pi / 2.0, math.atan2(s, c), math.atan2(s, -c))


def reference_wootters_exp(q: float) -> tuple:
    """The four vectors z of one q as Bell vectors with phases e^{i theta}
    from np.exp of math.atan2 angles, sin theta_3 = sqrt((1+q)/(2(1-q))),
    summed with one array product per term."""
    from wernerkit.states import bell_state

    x_vectors = (
        -1j * (math.sqrt(1.0 + 3.0 * q) / 2.0) * bell_state("psi_minus"),
        (math.sqrt(1.0 - q) / 2.0) * bell_state("psi_plus"),
        (math.sqrt(1.0 - q) / 2.0) * bell_state("phi_minus"),
        -1j * (math.sqrt(1.0 - q) / 2.0) * bell_state("phi_plus"),
    )
    cos3 = math.sqrt(max(0.0, 1.0 - 3.0 * q) / (2.0 * (1.0 - q)))
    sin3 = math.sqrt((1.0 + q) / (2.0 * (1.0 - q)))
    thetas = (0.0, math.pi / 2.0, math.atan2(sin3, cos3), math.atan2(sin3, -cos3))
    phases = [np.exp(1j * t) for t in thetas]
    return tuple(
        0.5 * sum(s * ph * x for s, ph, x in zip(row, phases, x_vectors)) for row in _SIGN_ROWS
    )


def reference_wootters_sum(z) -> np.ndarray:
    """sum_i |z_i><z_i|, one outer product per vector."""
    total = np.zeros((4, 4), dtype=complex)
    for v in z:
        total += np.outer(v, v.conj())
    return total


def reference_schmidt_determinant(v) -> complex:
    """v0 v3 - v1 v2 in complex scalar arithmetic."""
    v = np.asarray(v, dtype=complex)
    return v[0] * v[3] - v[1] * v[2]


def wootters_phase_factors(q: float) -> tuple[tuple[float, float], ...]:
    """The (real, imaginary) parts of Wootters' phase factors 1, i, c + is
    and -c + is of one q, in Python floats."""
    c, s, _, _ = wootters_factors(q)
    return (1.0, 0.0), (0.0, 1.0), (c, s), (-c, s)


def reference_phase_sum(factors, q: float) -> complex:
    """u1*^2 (1+3q) + (u2*^2 + u3*^2 + u4*^2)(1-q) of four phase factors
    u_k = (real, imaginary), u*^2 = e^{-2i theta}, multiplied out in real
    Python scalar arithmetic."""
    e = [(x * x - y * y, -2.0 * x * y) for x, y in factors]
    return complex(
        e[0][0] * (1.0 + 3.0 * q) + (e[1][0] + e[2][0] + e[3][0]) * (1.0 - q),
        e[0][1] * (1.0 + 3.0 * q) + (e[1][1] + e[2][1] + e[3][1]) * (1.0 - q),
    )


def reference_phase_residual(factors, q: float) -> float:
    """|reference_phase_sum|, by abs() of a complex scalar."""
    return abs(reference_phase_sum(factors, q))


def reference_phase_residual_exp(thetas, q: float) -> float:
    """|e^{-2i t1}(1+3q) + (e^{-2i t2}+e^{-2i t3}+e^{-2i t4})(1-q)| in complex
    scalar arithmetic, each e^{-2i t} by np.exp of the angle."""
    e = [np.exp(-2j * float(t)) for t in thetas]
    return float(abs(e[0] * (1.0 + 3.0 * q) + (e[1] + e[2] + e[3]) * (1.0 - q)))


def binomial_pmf(n: int, p) -> np.ndarray:
    """P(K = k) for k = 0..n of K ~ Binomial(n, p), 0 < p < 1, from its
    logarithm log n! - log k! - log (n - k)! + k log p + (n - k) log(1 - p),
    each factorial a running sum of logs, so no term overflows.  An array p
    gives one row per entry, shape p.shape + (n + 1,)."""
    p = np.asarray(p, dtype=float)[..., None]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    k = np.arange(n + 1)
    log_pmf = log_fact[n] - log_fact[k] - log_fact[n - k] + k * np.log(p) + (n - k) * np.log1p(-p)
    return np.exp(log_pmf)


def reference_norm_squared_sum(z) -> float:
    """sum_i <z_i|z_i>, one np.vdot per vector."""
    return sum(float(np.real(np.vdot(v, v))) for v in z)


# The bound on a node sum against its exact-sum oracle: a few ulps of 1, the
# scale of every node sum (the weights sum to 1 and |a| = |b| <= 1), at any
# node count.
EXACT_SUM_TOL = 2 * math.ulp(1.0)


def exact_sums(terms) -> np.ndarray:
    """Each column of terms, shape (n, k), added exactly by math.fsum."""
    return np.array([math.fsum(column) for column in np.asarray(terms).T.tolist()])


def reference_node_sum(weights, a) -> np.ndarray:
    """sum_n w_n rho(a_n) (x) rho(-a_n): one product state per node, and each
    entry's real and imaginary parts added exactly."""
    from wernerkit.states import product_state

    terms = np.array([w * product_state(v, -v) for w, v in zip(np.asarray(weights).tolist(), a)])
    terms = terms.reshape(len(terms), 16)
    total = np.empty(16, dtype=complex)
    total.real, total.imag = exact_sums(terms.real), exact_sums(terms.imag)
    return total.reshape(4, 4)


def reference_moments(weights, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum w a, sum w b and sum w a_i b_j of one q's nodes, b = -a, each
    entry added exactly."""
    w, b = np.asarray(weights)[:, None], -a
    second = (w[:, :, None] * a[:, :, None] * b[:, None, :]).reshape(len(a), 9)
    return exact_sums(w * a), exact_sums(w * b), exact_sums(second).reshape(3, 3)


def reference_pauli_sum(m) -> np.ndarray:
    """(1/4) sum M_mu,nu sigma_mu (x) sigma_nu of a moment matrix or a stack
    of them, shape (..., 4, 4), as the sum of all 16 complex broadcasts
    M_mu,nu kron(sigma_mu, sigma_nu) / 4 in np.ndindex(4, 4) order."""
    from wernerkit.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z

    paulis = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)
    m = np.asarray(m)[..., None, None]
    return sum(
        m[..., mu, nu, :, :] * (np.kron(paulis[mu], paulis[nu]) / 4.0)
        for mu, nu in np.ndindex(4, 4)
    )


def reference_moment_matrix(weights, x, y) -> np.ndarray:
    """M = sum_n w_n (1, x_n)(1, y_n)^T of node vectors of shape (..., n, 3),
    each entry its own product w, w x_i, w y_j or (w x_i) y_j, formed anew
    and summed along the node axis."""
    u = [()] + [(x[..., i],) for i in range(3)]
    v = [()] + [(y[..., j],) for j in range(3)]
    m = np.empty(x.shape[:-2] + (4, 4))
    for i, j in np.ndindex(4, 4):
        product = weights
        for factor in u[i] + v[j]:
            product = product * factor
        m[..., i, j] = product.sum(axis=-1)
    return m
