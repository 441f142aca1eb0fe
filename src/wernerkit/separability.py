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
    _first_failure,
    _hermitian_deviation,
    _hermitian_gate,
    # not called here; perfbench/tests/test_bench_tracing.py swaps it in this module
    hermitian_eigenvalues,  # noqa: F401
    kron,
    partial_transpose_b,
)
from .states import PPT_TOL, UNIT_TRACE_TOL, _unit_axis, validate_mixing_parameter

__all__ = [
    "PptVerdict",
    "ppt_test",
    "werner_pt_eigenvalues_closed_form",
    "correlation",
    "local_expectation",
]

_POSITIVITY_TOL = 1e-10  # input rounding, not the separability boundary
_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class PptVerdict:
    """Outcome of the partial-transpose test on a two-qubit state.

    For a stack of states, shape (..., 4, 4), min_eigenvalue and separable
    are arrays of shape (...) and eigenvalues has shape (..., 4)."""

    min_eigenvalue: float | np.ndarray
    eigenvalues: tuple[float, float, float, float] | np.ndarray
    separable: bool | np.ndarray
    tol: float


def _validate_density_matrix(rho) -> np.ndarray:
    """A 4x4 density matrix, or a stack of them, checked matrix by matrix:
    Hermitian, unit trace, the Hermitian gate of `hermitian_eigenvalues`, no
    eigenvalue below -_POSITIVITY_TOL.  An error names the first matrix that
    fails.  The gate passes rho, and so its partial transpose, for eigvalsh."""
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
    bad = smallest < -_POSITIVITY_TOL
    if bad.any():
        index, where = _first_failure(bad)
        raise ValueError(
            f"not a density matrix{where}: smallest eigenvalue "
            f"{float(smallest[index])} is below -{_POSITIVITY_TOL}"
        )
    return rho


def ppt_test(rho) -> PptVerdict:
    """Partial-transpose criterion on a two-qubit density matrix, or on each
    matrix of a stack of shape (..., 4, 4) at once.

    The state is reported separable iff all eigenvalues of the partially
    transposed matrix are >= -PPT_TOL.  For two qubits this criterion is
    exact, so on the Werner family the verdict equals q <= SEPARABLE_Q_EDGE,
    and product states of Bloch norm <= BLOCH_NORM_MAX are separable.  An
    input is accepted with eigenvalues down to -_POSITIVITY_TOL; where its own
    spectrum dips below -PPT_TOL, the verdict reads that rounding.
    """
    rho = _validate_density_matrix(rho)
    eigs = np.linalg.eigvalsh(partial_transpose_b(rho))
    min_eig = eigs[..., 0]
    separable = min_eig >= -PPT_TOL
    if eigs.ndim == 1:
        return PptVerdict(
            min_eigenvalue=float(min_eig),
            eigenvalues=tuple(eigs.tolist()),
            separable=bool(separable),
            tol=PPT_TOL,
        )
    return PptVerdict(min_eig, eigs, separable, PPT_TOL)


def werner_pt_eigenvalues_closed_form(q) -> np.ndarray:
    """Eigenvalues of the partially transposed Werner matrix, sorted ascending:
    (1-3q)/4 once and (1+q)/4 three times.  An array of q, shape (...), gives
    shape (..., 4)."""
    q = validate_mixing_parameter(q)
    low = (1.0 - 3.0 * q) / 4.0
    high = (1.0 + q) / 4.0
    return np.stack([low, high, high, high], axis=-1)


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
