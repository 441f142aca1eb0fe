"""Constructors for the Werner state, Bell states, Bloch-parameterized
single-qubit states, product states, and reduced (marginal) states."""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import IDENTITY_2, IDENTITY_4, PAULI_X, PAULI_Y, PAULI_Z, kron
from .linalg import _first_failure, _hermitian_gate, _real_or_complex
from .tolerances import BLOCH_NORM_MAX, PPT_TOL, SEPARABLE_Q_EDGE, SEPARABLE_Q_MAX
from .tolerances import UNIT_AXIS_TOL, UNIT_TRACE_TOL

__all__ = [
    "PositivityError",
    "bell_state",
    "werner",
    "bloch_state",
    "product_state",
    "marginal",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# The strictly lower entries of a 4x4 matrix, (1,0) (2,0) (2,1) (3,0) (3,1)
# (3,2), and for each row i the three of them that sit in row or column i.
_LOWER = np.tril_indices(4, -1)
_ROW_OF_LOWER = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))

_BELL_VECTORS = {
    "psi_minus": np.array([0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], dtype=complex),
    "psi_plus": np.array([0.0, _SQRT_HALF, _SQRT_HALF, 0.0], dtype=complex),
    "phi_minus": np.array([_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF], dtype=complex),
    "phi_plus": np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=complex),
}


class PositivityError(ValueError):
    """A Bloch vector outside the unit ball would describe a non-positive
    single-qubit operator."""


def validate_mixing_parameter(q):
    """Werner mixing parameter must lie in [0, 1].  A scalar comes back as a
    float; an array of them comes back as a float array, and the first value
    outside [0, 1] names the error."""
    qs = np.asarray(q, dtype=float)
    # negated so that NaN is rejected too
    bad = ~((qs >= 0.0) & (qs <= 1.0))
    if bad.any():
        first = float(qs.flat[int(np.argmax(bad))])
        raise ValueError(f"mixing parameter q must be in [0, 1], got {first}")
    return float(qs) if qs.ndim == 0 else qs


def _scaled_norm(v: np.ndarray) -> tuple[float, float]:
    """(scale, n): the largest |v| over the vectors along the last axis of v
    is scale * n, with n the largest |v / scale|.  Where that norm leaves
    (1e-150, 1e150) for a finite nonzero v, its squared norm may have
    overflowed, underflowed or lost digits as a subnormal, so scale is v's
    largest entry; else it is 1.  A non-finite v gives an n of inf or NaN."""

    def largest(x: np.ndarray) -> float:
        # matmul takes each x.x with the dot product np.linalg.norm takes for
        # one vector, so a vector of a stack gets the norm it gets alone
        return float(np.max(np.sqrt(x[..., None, :] @ x[..., :, None]), initial=0.0))

    with np.errstate(over="ignore"):
        norm = largest(v)
    if not 1e-150 < norm < 1e150 and v.any() and np.isfinite(v).all():
        scale = float(np.max(np.abs(v)))
        return scale, largest(v / scale)
    return 1.0, norm


def _largest_norm(v: np.ndarray) -> float:
    """The largest |v| over the vectors along the last axis of v, so that
    [1e200, 0, 0] gives 1e200 and [1e-200, 0, 0] gives 1e-200."""
    scale, norm = _scaled_norm(v)
    return scale * norm


def _unit_axis(v, name: str) -> np.ndarray:
    """A measurement axis: a finite real 3-vector of norm 1 within 1e-12."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    norm = _largest_norm(v)
    # negated so that a NaN norm, from a non-finite entry, is rejected too
    if not abs(norm - 1.0) <= UNIT_AXIS_TOL:
        raise ValueError(f"{name} must be a finite unit vector, got norm {norm}")
    return v


def bell_state(kind: str) -> np.ndarray:
    """One of the four Bell vectors, unit norm, basis order |00>,|01>,|10>,|11>.

    kind is one of "psi_minus", "psi_plus", "phi_minus", "phi_plus".
    """
    try:
        return _BELL_VECTORS[kind].copy()
    except KeyError:
        raise ValueError(
            f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_VECTORS)}"
        ) from None


def werner(q) -> np.ndarray:
    """Werner density matrix: q * |psi_minus><psi_minus| + (1-q)/4 * I.

    The matrix is real symmetric in this basis, so it is float64.  An array
    of mixing parameters, shape (...), gives the stack of matrices, shape
    (..., 4, 4); each equals werner of its own q bit for bit.
    """
    q = np.asarray(validate_mixing_parameter(q))[..., None, None]
    psi = _BELL_VECTORS["psi_minus"].real
    return q * np.outer(psi, psi) + ((1.0 - q) / 4.0) * IDENTITY_4.real


def validate_bloch_vector(v) -> np.ndarray:
    """Bloch vectors, shape (..., 3), as a float array, if every |v| is finite
    (else ValueError) and at most BLOCH_NORM_MAX = 1 + 6 ulps; beyond that
    (I + v . sigma) / 2 would have a negative eigenvalue (1 - |v|)/2 and
    PositivityError names the largest, also where |v|^2 overflows."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"Bloch vector must have exactly 3 real components, got shape {v.shape}")
    norm = _largest_norm(v)
    # negated so that a NaN norm is rejected along with an infinite one; a
    # finite vector whose norm is past the largest double is not positive
    if not norm < math.inf and not np.isfinite(v).all():
        raise ValueError(f"Bloch vector must be finite, got norm {norm}")
    if norm > BLOCH_NORM_MAX:
        raise PositivityError(
            f"Bloch vector norm {norm} exceeds 1; the operator (I + v.sigma)/2 "
            "would not be positive semidefinite"
        )
    return v


def bloch_state(v) -> np.ndarray:
    """Single-qubit density matrix (I + v . sigma) / 2; a stack of Bloch
    vectors of shape (..., 3) gives the stack of matrices, shape (..., 2, 2).

    Every vector must pass validate_bloch_vector.  Eigenvalues are (1 +- |v|)/2,
    so boundary vectors may carry an eigenvalue as low as -6.7e-16.
    """
    v = validate_bloch_vector(v)
    x, y, z = (v[..., i, None, None] for i in range(3))
    return 0.5 * (IDENTITY_2 + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


def product_state(a, b) -> np.ndarray:
    """Two-qubit product density matrix from two Bloch vectors."""
    return kron(bloch_state(a), bloch_state(b))


def validate_density_matrix(rho) -> np.ndarray:
    """A 4x4 density matrix, or a stack of them, checked matrix by matrix: the
    Hermitian rule of `linalg.is_hermitian` (which passes rho, and so its
    partial transpose, for eigvalsh), unit trace, no eigenvalue below
    -PPT_TOL.  An error names the first matrix that fails.  A complex rho
    comes back as complex128, any other as float64, so a real symmetric rho
    is solved by the real symmetric solver.

    Positivity has two bounds.  A matrix whose Gershgorin discs all lie at
    or above 0, Re rho_ii - sum_{j != i} |rho_ij| >= 0 for every row i, is
    positive semidefinite and passes without a spectrum; every werner(q)
    does, so the Werner stacks of the CLI take none.  The matrices whose
    discs reach below 0 pass if eigvalsh finds no eigenvalue below -PPT_TOL.
    The discs are those of the matrix eigvalsh would solve, and their bound
    is 0, not -PPT_TOL, so the certificate passes only what the spectrum
    check passes too."""
    rho = _real_or_complex(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    _hermitian_gate(rho)
    # the diagonal of a Hermitian rho may hold entries whose sum overflows
    with np.errstate(over="ignore"):
        tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > UNIT_TRACE_TOL
    if bad.any():
        index, where = _first_failure(bad)
        raise ValueError(
            f"not a density matrix{where}: trace is {complex(tr[index])}, expected 1"
        )
    # The discs of the Hermitian matrix eigvalsh solves, which it builds from
    # rho's diagonal and lower triangle: a pair (rho_ij, rho_ji) that the
    # Hermitian rule lets differ counts as |rho_ij|, i > j, in both rows.
    lower = np.moveaxis(np.abs(rho[..., _LOWER[0], _LOWER[1]]), -1, 0)
    diagonal = np.moveaxis(np.diagonal(rho, axis1=-2, axis2=-1).real, -1, 0)
    # finite entries of a finite trace may still add up past the largest double
    with np.errstate(over="ignore"):
        edges = [diagonal[i] - (lower[a] + lower[b] + lower[c])
                 for i, (a, b, c) in enumerate(_ROW_OF_LOWER)]
    open_discs = ~(functools.reduce(np.minimum, edges) >= 0.0)
    if open_discs.any():
        # boolean indexing keeps stack order, so the first failure among the
        # open matrices is the first in the stack
        smallest = np.linalg.eigvalsh(rho[open_discs])[:, 0]
        failing = smallest < -PPT_TOL
        if failing.any():
            bad = np.zeros(open_discs.shape, dtype=bool)
            bad[open_discs] = failing
            raise ValueError(
                f"not a density matrix{_first_failure(bad)[1]}: smallest eigenvalue "
                f"{float(smallest[np.argmax(failing)])} is below -{PPT_TOL}"
            )
    return rho


def _one_density_matrix(rho, caller: str) -> np.ndarray:
    """validate_density_matrix for a caller that takes one 4x4 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"{caller} requires a 4x4 density matrix, got {rho.shape}")
    return validate_density_matrix(rho)


def marginal(rho, subsystem: str) -> np.ndarray:
    """Reduced 2x2 state of subsystem "A" or "B" of a 4x4 density matrix."""
    t = _one_density_matrix(rho, "marginal").reshape(2, 2, 2, 2)
    if subsystem == "A":
        return np.einsum("ikjk->ij", t)
    if subsystem == "B":
        return np.einsum("ikil->kl", t)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
