"""The partial-transpose separability test, closed-form eigenvalues of the
partially transposed Werner state, and measurement-correlation functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    # not called here; perfbench/tests/test_bench_tracing.py swaps it in this module
    hermitian_eigenvalues,  # noqa: F401
    kron,
    partial_transpose_b,
)
from .states import (
    _one_density_matrix,
    _unit_axis,
    validate_density_matrix,
    validate_mixing_parameter,
)
from .tolerances import PPT_TOL

__all__ = [
    "PptVerdict",
    "ppt_test",
    "werner_pt_eigenvalues_closed_form",
    "correlation",
    "local_expectation",
]


@dataclass(frozen=True)
class PptVerdict:
    """Outcome of the partial-transpose test on a two-qubit state.

    For a stack of states, shape (..., 4, 4), min_eigenvalue and separable
    are arrays of shape (...) and eigenvalues has shape (..., 4)."""

    min_eigenvalue: float | np.ndarray
    eigenvalues: tuple[float, float, float, float] | np.ndarray
    separable: bool | np.ndarray
    tol: float


def ppt_test(rho) -> PptVerdict:
    """Partial-transpose criterion on a two-qubit density matrix, or on each
    matrix of a stack of shape (..., 4, 4) at once.

    The state is reported separable iff all eigenvalues of the partially
    transposed matrix are >= -PPT_TOL.  For two qubits this criterion is
    exact, so on the Werner family the verdict equals q <= SEPARABLE_Q_EDGE,
    and product states of Bloch norm <= BLOCH_NORM_MAX are separable.  The
    input passes `states.validate_density_matrix`, whose positivity bound is
    the same PPT_TOL, so no verdict reads the rounding of its own input.
    """
    rho = validate_density_matrix(rho)
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


def correlation(rho, axis_a, axis_b) -> float:
    """Expectation of the product of +-1 outcomes along unit axes on A and B:
    Re tr[(axis_a . sigma (x) axis_b . sigma) rho]."""
    rho = _one_density_matrix(rho, "correlation")
    la = _unit_axis(axis_a, "axis_a")
    mb = _unit_axis(axis_b, "axis_b")
    return float(np.trace(kron(axis_operator(la), axis_operator(mb)) @ rho).real)


def local_expectation(rho, axis, subsystem: str) -> float:
    """Expectation of a single party's +-1 outcome along a unit axis."""
    rho = _one_density_matrix(rho, "local_expectation")
    v = _unit_axis(axis, "axis")
    if subsystem == "A":
        op = kron(axis_operator(v), IDENTITY_2)
    elif subsystem == "B":
        op = kron(IDENTITY_2, axis_operator(v))
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return float(np.trace(op @ rho).real)
