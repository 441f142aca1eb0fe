"""Constructors for the Werner state, Bell states, Bloch-parameterized
single-qubit states, product states, and reduced (marginal) states."""

from __future__ import annotations

import math

import numpy as np

from .linalg import HERMITIAN_TOL, IDENTITY_2, IDENTITY_4, PAULI_X, PAULI_Y, PAULI_Z, kron
from .linalg import _first_failure, _hermitian_deviation, _hermitian_gate

__all__ = [
    "PositivityError",
    "SEPARABLE_Q_MAX",
    "SEPARABLE_Q_EDGE",
    "PPT_TOL",
    "BLOCH_NORM_MAX",
    "bell_state",
    "werner",
    "bloch_state",
    "product_state",
    "marginal",
]

# The paper's separability threshold, where |a| = |b| = sqrt(3q) reaches 1,
# and the one accepted edge, 64 doubles above it.  PPT_TOL, the low PT
# eigenvalue |1 - 3q|/4 at the edge, makes eigvalsh's verdict agree with
# q <= SEPARABLE_Q_EDGE on every double within 2^-40 of 1/3 (an edge at 1/3
# would not).  A product state with |a|, |b| <= BLOCH_NORM_MAX has a PT
# eigenvalue no lower than about -PPT_TOL/4, which leaves eigvalsh three
# quarters of PPT_TOL (9 eps) of rounding on such unit-scale spectra.  Its
# own smallest eigenvalue is about -PPT_TOL/4 too, so every such product
# passes validate_density_matrix, whose positivity bound is PPT_TOL.
SEPARABLE_Q_MAX = 1.0 / 3.0
SEPARABLE_Q_EDGE = SEPARABLE_Q_MAX + 64 * math.ulp(SEPARABLE_Q_MAX)
PPT_TOL = abs(1.0 - 3.0 * SEPARABLE_Q_EDGE) / 4.0
BLOCH_NORM_MAX = 1.0 + PPT_TOL / 2.0

UNIT_AXIS_TOL = 1e-12
UNIT_TRACE_TOL = 1e-12

_SQRT_HALF = 1.0 / np.sqrt(2.0)

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


def _unit_axis(v, name: str) -> np.ndarray:
    """A measurement axis: a finite real 3-vector of norm 1 within 1e-12."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
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

    An array of mixing parameters, shape (...), gives the stack of matrices,
    shape (..., 4, 4); each equals werner of its own q bit for bit.
    """
    q = np.asarray(validate_mixing_parameter(q))[..., None, None]
    psi = _BELL_VECTORS["psi_minus"]
    return q * np.outer(psi, psi.conj()) + ((1.0 - q) / 4.0) * IDENTITY_4


def validate_bloch_vector(v) -> np.ndarray:
    """Bloch vectors, shape (..., 3), as a float array, if every |v| is finite
    (else ValueError) and at most BLOCH_NORM_MAX = 1 + 6 ulps; beyond that
    (I + v . sigma) / 2 would have a negative eigenvalue (1 - |v|)/2 and
    PositivityError names the largest."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"Bloch vector must have exactly 3 real components, got shape {v.shape}")
    norm = float(np.max(np.linalg.norm(v, axis=-1), initial=0.0))
    # negated so that a NaN norm is rejected along with an infinite one
    if not norm < math.inf:
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
    """A 4x4 density matrix, or a stack of them, as a complex array, checked
    matrix by matrix: Hermitian within HERMITIAN_TOL, unit trace, the
    Hermitian gate of `hermitian_eigenvalues`, no eigenvalue below -PPT_TOL.
    An error names the first matrix that fails.  The gate passes rho, and so
    its partial transpose, for eigvalsh."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    deviation = _hermitian_deviation(rho)
    bad = ~(deviation <= HERMITIAN_TOL)
    if bad.any():
        _, where = _first_failure(bad)
        raise ValueError(f"not a density matrix{where}: not Hermitian within {HERMITIAN_TOL}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > UNIT_TRACE_TOL
    if bad.any():
        index, where = _first_failure(bad)
        raise ValueError(
            f"not a density matrix{where}: trace is {complex(tr[index])}, expected 1"
        )
    _hermitian_gate(rho, deviation)
    smallest = np.linalg.eigvalsh(rho)[..., 0]
    bad = smallest < -PPT_TOL
    if bad.any():
        index, where = _first_failure(bad)
        raise ValueError(
            f"not a density matrix{where}: smallest eigenvalue "
            f"{float(smallest[index])} is below -{PPT_TOL}"
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
