"""The partial-transpose separability test, closed-form eigenvalues of the
partially transposed Werner state, and measurement-correlation functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermitian_eigenvalues,
    is_hermitian,
    kron,
    partial_transpose_b,
)
from .states import _unit_axis, validate_mixing_parameter

__all__ = [
    "PptVerdict",
    "ppt_test",
    "werner_pt_eigenvalues_closed_form",
    "correlation",
    "local_expectation",
]

# A slightly negative threshold keeps the verdict stable against eigensolver
# rounding at the critical point, where the smallest eigenvalue is exactly 0.
DEFAULT_PPT_TOL = 1e-10

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class PptVerdict:
    """Outcome of the partial-transpose test on a two-qubit state."""

    min_eigenvalue: float
    eigenvalues: tuple[float, float, float, float]
    separable: bool
    tol: float


def _validate_density_matrix(rho: np.ndarray, tol: float) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not is_hermitian(rho, tol=HERMITIAN_TOL):
        raise ValueError(f"not a density matrix: not Hermitian within {HERMITIAN_TOL}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-12:
        raise ValueError(f"not a density matrix: trace is {tr}, expected 1")
    smallest = hermitian_eigenvalues(rho)[0]
    if smallest < -tol:
        raise ValueError(
            f"not a density matrix: smallest eigenvalue {smallest} is below -{tol}"
        )
    return rho


def ppt_test(rho, tol: float = DEFAULT_PPT_TOL) -> PptVerdict:
    """Partial-transpose criterion on a two-qubit density matrix.

    The state is reported separable iff all eigenvalues of the partially
    transposed matrix are >= -tol.  For two qubits this criterion is exact,
    so on the Werner family the verdict equals q <= 1/3.
    """
    rho = _validate_density_matrix(rho, tol)
    eigs = hermitian_eigenvalues(partial_transpose_b(rho))
    min_eig = float(eigs[0])
    return PptVerdict(
        min_eigenvalue=min_eig,
        eigenvalues=tuple(float(x) for x in eigs),
        separable=bool(min_eig >= -tol),
        tol=float(tol),
    )


def werner_pt_eigenvalues_closed_form(q: float) -> np.ndarray:
    """Eigenvalues of the partially transposed Werner matrix, sorted ascending:
    (1-3q)/4 once and (1+q)/4 three times."""
    q = validate_mixing_parameter(q)
    return np.array(
        [(1.0 - 3.0 * q) / 4.0, (1.0 + q) / 4.0, (1.0 + q) / 4.0, (1.0 + q) / 4.0]
    )


def axis_operator(v) -> np.ndarray:
    """Spin observable v . sigma for a unit axis v (eigenvalues +-1)."""
    v = np.asarray(v, dtype=float)
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def _real_trace(op: np.ndarray, rho: np.ndarray) -> float:
    val = complex(np.trace(op @ rho))
    if abs(val.imag) > _IMAG_TOL:
        raise ValueError(
            f"expectation value has imaginary part {val.imag}; input is not Hermitian"
        )
    return val.real


def correlation(rho, axis_a, axis_b) -> float:
    """Expectation of the product of +-1 outcomes along unit axes on A and B:
    Re tr[(axis_a . sigma (x) axis_b . sigma) rho]."""
    rho = np.asarray(rho, dtype=complex)
    la = _unit_axis(axis_a, "axis_a")
    mb = _unit_axis(axis_b, "axis_b")
    return _real_trace(kron(axis_operator(la), axis_operator(mb)), rho)


def local_expectation(rho, axis, subsystem: str) -> float:
    """Expectation of a single party's +-1 outcome along a unit axis."""
    rho = np.asarray(rho, dtype=complex)
    v = _unit_axis(axis, "axis")
    if subsystem == "A":
        op = kron(axis_operator(v), IDENTITY_2)
    elif subsystem == "B":
        op = kron(IDENTITY_2, axis_operator(v))
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return _real_trace(op, rho)
