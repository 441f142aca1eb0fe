"""Dense linear algebra for 2x2 and 4x4 operator work.

Matrices are row-major numpy arrays.  `kron` and the Pauli constants are
complex128.  `partial_transpose_b` and `hermitian_eigenvalues` keep their
input's kind: a complex input is taken as complex128, any other as float64,
so a real symmetric stack (a Werner stack) reaches LAPACK's real symmetric
solver and moves half the bytes.  The two-qubit
basis order is |00>, |01>, |10>, |11> everywhere in this package, so the
composite row index is 2*i + k for qubit-A index i and qubit-B index k.

Pauli conventions: sigma_x = ((0,1),(1,0)), sigma_y = ((0,-i),(i,0)),
sigma_z = ((1,0),(0,-1)).
"""

from __future__ import annotations

import numpy as np

from .tolerances import HERMITIAN_TOL

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


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _real_or_complex(m) -> np.ndarray:
    """m as complex128 if it is complex, else as float64."""
    a = np.asarray(m)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _as_stack(m) -> np.ndarray:
    """A matrix, or a stack of matrices along leading axes: shape (..., r, c),
    as float64 or complex128 by `_real_or_complex`."""
    a = _real_or_complex(m)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-d matrix or a stack of them, got shape {a.shape}")
    return a


def _first_failure(bad: np.ndarray) -> tuple[tuple[int, ...], str]:
    """The index of the first True of a per-matrix flag array, and where that
    matrix sits for an error message: "" for a single matrix (0-d flags),
    " at stack index i" (i, j, ... with several leading axes) otherwise."""
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    where = " at stack index " + ", ".join(map(str, index)) if index else ""
    return index, where


def _fold_last_axis(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the short last axis of x, as one elementwise call per
    entry of that axis across all the leading axes.  numpy's own reduction
    over a short trailing axis runs one short inner loop per matrix, which
    on a stack of 4x4 matrices is several times slower."""
    out = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        ufunc(out, x[..., k], out=out)
    return out


def _hermitian_deviation(a: np.ndarray) -> np.ndarray:
    """max|a - a^H| / max|a| of each square matrix of a stack (a 0-d array
    for one matrix): 0 for the zero matrix, NaN where max|a| is not finite.
    Each max is taken over the matrix's entries by `_fold_last_axis`; a max
    is exact in any order, so the value is that of np.max.  ValueError for
    a matrix with no entries.  No numpy warning: entries near the largest
    double overflow in a - a^H."""
    if a.shape[-1] == 0:
        raise ValueError(f"the Hermitian rule requires nonempty matrices, got shape {a.shape}")
    entries = (*a.shape[:-2], a.shape[-2] * a.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        difference = np.abs(a - np.swapaxes(a, -1, -2).conj()).reshape(entries)
        deviation = _fold_last_axis(np.maximum, difference)
        scale = _fold_last_axis(np.maximum, np.abs(a).reshape(entries))
        relative = deviation / np.where(scale > 0.0, scale, 1.0)
    return np.where(np.isfinite(scale), relative, np.nan)


def _not_hermitian(a: np.ndarray) -> np.ndarray:
    """The one Hermitian rule, per matrix: True unless its relative deviation
    is at most HERMITIAN_TOL (so True for NaN)."""
    return ~(_hermitian_deviation(a) <= HERMITIAN_TOL)


def _hermitian_gate(a: np.ndarray) -> None:
    """ValueError naming the first matrix of the stack a that breaks the rule."""
    bad = _not_hermitian(a)
    if bad.any():
        raise ValueError(
            f"matrix{_first_failure(bad)[1]} is not Hermitian within {HERMITIAN_TOL} "
            "of its largest entry"
        )


def kron(a, b) -> np.ndarray:
    """Kronecker product; entry ((i*Br+k),(j*Bc+l)) = A[i,j]*B[k,l]."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("kron requires nonempty matrices")
    return np.kron(a, b)


def is_hermitian(a) -> bool:
    """True if the matrix is square and passes the Hermitian rule of
    `hermitian_eigenvalues`, that is, exactly when that call returns."""
    a = _as_matrix(a)
    return a.shape[0] == a.shape[1] and not _not_hermitian(a)


def partial_transpose_b(m) -> np.ndarray:
    """Transpose the second-qubit indices of a 4x4 two-qubit operator, or of
    each operator of a stack of shape (..., 4, 4).

    Indexing the input by (i,k;j,l) with A-indices i,j and B-indices k,l,
    the result satisfies result(i,l;j,k) = M(i,k;j,l).  Pure data movement:
    applying it twice returns the input exactly.  A complex input gives a
    complex128 result, any other a float64 one.
    """
    m = _as_stack(m)
    if m.shape[-2:] != (4, 4):
        raise ValueError(
            f"partial transpose is defined here for two-qubit (4x4) operators, got {m.shape}"
        )
    stack = m.shape[:-2]
    # the reshape of the swapped view copies, so the result never aliases m
    return m.reshape(*stack, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*stack, 4, 4)


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending; a stack of
    shape (..., n, n) gives shape (..., n), in one LAPACK call.

    LAPACK's Hermitian solver (``np.linalg.eigvalsh``) reads only one
    triangle of each matrix, so the input is first gated, matrix by matrix,
    by the one Hermitian rule: ValueError unless max|m - m^H| <=
    HERMITIAN_TOL * max|m| and max|m| is finite.  Each matrix is held to its
    own largest entry, whatever the others of a stack hold; the zero matrix
    passes.  A complex input is solved as complex128, any other as float64
    by the real symmetric solver.
    """
    a = _as_stack(m)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"eigenvalues require a square matrix, got {a.shape}")
    _hermitian_gate(a)
    return np.linalg.eigvalsh(a)
