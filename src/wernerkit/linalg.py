"""Dense complex linear algebra for 2x2 and 4x4 operator work.

Matrices are numpy arrays with dtype complex128, row-major.  The two-qubit
basis order is |00>, |01>, |10>, |11> everywhere in this package, so the
composite row index is 2*i + k for qubit-A index i and qubit-B index k.

Pauli conventions: sigma_x = ((0,1),(1,0)), sigma_y = ((0,-i),(i,0)),
sigma_z = ((1,0),(0,-1)).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "IDENTITY_4",
    "JacobiConvergenceError",
    "kron",
    "trace",
    "is_hermitian",
    "partial_transpose_b",
    "hermitian_eigenvalues",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

for _const in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY_2, IDENTITY_4):
    _const.setflags(write=False)


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep limit is hit before the off-diagonal
    entries drop below tolerance.  Carries the remaining residual."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = float(residual)
        self.sweeps = int(sweeps)
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps "
            f"(max off-diagonal magnitude {residual:.3e})"
        )


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; entry ((i*Br+k),(j*Bc+l)) = A[i,j]*B[k,l]."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("kron requires nonempty matrices")
    return np.kron(a, b)


def trace(a) -> complex:
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True if the matrix equals its conjugate transpose entrywise within tol."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def partial_transpose_b(m) -> np.ndarray:
    """Transpose the second-qubit indices of a 4x4 two-qubit operator.

    Indexing the input by (i,k;j,l) with A-indices i,j and B-indices k,l,
    the result satisfies result(i,l;j,k) = M(i,k;j,l).  Pure data movement:
    applying it twice returns the input exactly.
    """
    m = _as_matrix(m)
    if m.shape != (4, 4):
        raise ValueError(
            f"partial transpose is defined here for two-qubit (4x4) operators, got {m.shape}"
        )
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4).copy()


def _max_offdiag(a: np.ndarray) -> float:
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    if iu[0].size == 0:
        return 0.0
    return float(np.max(np.abs(a[iu])))


def hermitian_eigenvalues(
    m, tol: float = 1e-14, max_sweeps: int = 50
) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    Cyclic Jacobi with complex plane rotations: each rotation annihilates one
    off-diagonal pair; sweeps repeat until every off-diagonal magnitude is
    below tol.  tol is absolute, so it should be chosen relative to the
    matrix scale (the default suits unit-scale operators such as density
    matrices).

    Raises ValueError for non-Hermitian input (checked entrywise at 1e-12)
    and JacobiConvergenceError, carrying the residual, if max_sweeps is
    exhausted.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues require a square matrix, got {a.shape}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps}")
    if not is_hermitian(a, tol=1e-12):
        raise ValueError("matrix is not Hermitian within 1e-12")

    a = np.array(a, dtype=complex)  # working copy, mutated in place
    n = a.shape[0]

    for _ in range(max_sweeps):
        if _max_offdiag(a) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                abs_b = abs(beta)
                if abs_b == 0.0:
                    continue
                phase = beta / abs_b  # e^{i phi} with a[p,q] = |a[p,q]| e^{i phi}
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * abs_b)
                if abs(tau) > 1e15:
                    # asymptotic small-angle branch; avoids tau**2 overflow
                    t = 1.0 / (2.0 * tau)
                else:
                    t = math.copysign(1.0, tau) / (
                        abs(tau) + math.sqrt(tau * tau + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c

                a[p, p] = app - t * abs_b
                a[q, q] = aqq + t * abs_b
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip = a[i, p]
                    aiq = a[i, q]
                    a[i, p] = c * aip - s * np.conj(phase) * aiq
                    a[i, q] = s * aip + c * np.conj(phase) * aiq
                    a[p, i] = np.conj(a[i, p])
                    a[q, i] = np.conj(a[i, q])
    else:
        residual = _max_offdiag(a)
        if residual >= tol:
            raise JacobiConvergenceError(residual, max_sweeps)

    return np.sort(a.diagonal().real)
