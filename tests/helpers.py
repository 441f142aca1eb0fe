"""Shared test oracles, independent of the library code paths they check."""

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
