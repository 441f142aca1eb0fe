"""Dense complex linear algebra for 2x2 and 4x4 operator work.

Matrices are numpy arrays with dtype complex128, row-major.  The two-qubit
basis order is |00>, |01>, |10>, |11> everywhere in this package, so the
composite row index is 2*i + k for qubit-A index i and qubit-B index k.

Pauli conventions: sigma_x = ((0,1),(1,0)), sigma_y = ((0,-i),(i,0)),
sigma_z = ((1,0),(0,-1)).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "IDENTITY_4",
    "HERMITIAN_TOL",
    "kron",
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

# Entrywise Hermiticity tolerance: absolute for unit-trace density matrices
# (`is_hermitian` default), relative to the largest entry in the gate of
# `hermitian_eigenvalues`.
HERMITIAN_TOL = 1e-12


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


def is_hermitian(a, tol: float = HERMITIAN_TOL) -> bool:
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


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    LAPACK's Hermitian solver (``np.linalg.eigvalsh``) reads only one
    triangle of the matrix, so the input is first gated: it is rejected with
    ValueError unless max|m - m^H| <= HERMITIAN_TOL * max|m|.  The gate is
    relative, so it means the same thing at any matrix scale; the zero matrix
    passes.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues require a square matrix, got {a.shape}")
    scale = float(np.max(np.abs(a)))
    if not is_hermitian(a, tol=HERMITIAN_TOL * scale):
        raise ValueError(
            f"matrix is not Hermitian within {HERMITIAN_TOL} of its largest entry"
        )
    return np.linalg.eigvalsh(a)
