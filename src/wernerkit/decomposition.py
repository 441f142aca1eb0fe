"""Two explicit separable decompositions of the Werner state.

The spherical decomposition realizes the continuous convex combination
W(q) = integral over the sphere of (1/4pi) rho_A(theta,phi) (x) rho_B(theta,phi)
with local Bloch vectors a = sqrt(3q) f(theta,phi) and b = -a, where
f = (sin t cos p, sin t sin p, cos t).  A product quadrature that is exact for
spherical polynomials of degree <= 2 (Gauss-Legendre in cos theta, uniform in
phi) makes the discretization lossless: the reconstruction only ever
integrates constants, f_i, and f_i f_j.

As rho(a) (x) rho(b) is linear in 1, a, b and a (x) b, the reconstruction is
assembled from the moments M = sum_n w_n (1, a_n)(1, b_n)^T, which
moment_check reports, once each node's local vectors are checked to be states
(|a_n| <= 1).  Every node sum is numpy's pairwise sum along a contiguous node
axis, so its rounding grows with log n, not n.

The four-vector decomposition writes W(q) = sum_i |z_i><z_i| where the z_i mix
four sub-normalized Bell vectors with phases chosen so that every z_i is a
product state.

Both constructors, reconstruct, moment_check, schmidt_determinant and the
phase residual also take a stack of q, shape (m,), and evaluate it in one
call; each entry of a stacked result equals the result for its own q
bit for bit.  A scalar q gives the one-state types.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z
from .states import validate_bloch_vector, validate_mixing_parameter
from .tolerances import SCHMIDT_TOL, SEPARABLE_Q_EDGE

__all__ = [
    "DecompositionDomainError",
    "SphericalDecomposition",
    "WoottersDecomposition",
    "MomentReport",
    "sphere_direction",
    "spherical_decomposition",
    "wootters_decomposition",
    "reconstruct",
    "moment_check",
    "direction_moment",
    "schmidt_determinant",
    "schmidt_rank_one_check",
    "wootters_phase_residual",
    "local_bloch_norm",
    "local_margin",
]

# The most nodes n_theta * n_phi, refused before a count like 2^64 sizes an
# array: 1000 x 1000 nodes render a 364 MB JSON report in about 6 s, and 10^8
# nodes were killed for memory on an 8 GB host.  n_theta has its own cap below.
MAX_NODE_COUNT = 1_000_000
# The largest n_theta, refused before leggauss sees it: leggauss solves a
# dense n_theta x n_theta eigenproblem, 0.12 s at 1000 nodes and 0.65 s at
# 2000 (2 vCPUs), and asks for 3.2 GB at 20000.
MAX_THETA_COUNT = 1000


class DecompositionDomainError(ValueError):
    """Requested mixing parameter admits no product-state decomposition: the
    local Bloch vectors would need norm sqrt(3q) > 1."""

    def __init__(self, q: float, detail: str):
        self.q = float(q)
        self.bloch_norm = math.sqrt(3.0 * float(q))
        super().__init__(detail)


def _require_separable_q(q):
    """q, or a stack of q, validated as a mixing parameter and checked against
    the separability edge; the first q past the edge names the error."""
    q = validate_mixing_parameter(q)
    qs = np.asarray(q)
    past = qs > SEPARABLE_Q_EDGE
    if past.any():
        first = float(qs.flat[int(np.argmax(past))])
        raise DecompositionDomainError(
            first,
            f"q = {first} is past the separability threshold 1/3: the local Bloch "
            f"vectors would need norm |a| = |b| = sqrt(3q) = {math.sqrt(3.0 * first)}, "
            "exceeding the unit ball allowed by positivity of the local states",
        )
    return q


def _scalar_or_array(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _local_norm_squared(q) -> np.ndarray:
    """|a|^2 = |b|^2 = 3q, held at 1 in the window (1/3, SEPARABLE_Q_EDGE],
    where 3q passes 1 by rounding only, so that every local vector is a state."""
    return np.minimum(3.0 * np.asarray(q, dtype=float), 1.0)


def local_bloch_norm(q):
    """|a| = |b| = sqrt(3q), held at 1 past 1/3 as _local_norm_squared is."""
    return _scalar_or_array(np.sqrt(_local_norm_squared(q)))


def local_margin(q):
    """The smallest eigenvalue (1 - sqrt(3q))/2 of the local states
    (I +- a.sigma)/2 with |a| = sqrt(3q), unclamped: negative exactly where
    W(q) is entangled, which is the paper's reading of the threshold 1/3.
    It is written as ((1 - 2q) - q) / (2 (1 + sqrt(3q))), whose numerator is
    exact near 1/3 (Sterbenz), so margin >= -PPT_TOL agrees with the PT
    verdict on every double within 2^-40 of 1/3; (1 - sqrt(3q))/2 rounds
    across -PPT_TOL at 1/3 + 65 and 66 ulps, past the edge at 64."""
    q = np.asarray(q, dtype=float)
    return _scalar_or_array(((1.0 - 2.0 * q) - q) / (2.0 * (1.0 + np.sqrt(3.0 * q))))


def _frozen(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class SphericalDecomposition:
    """The spherical product quadrature as read-only, C-contiguous arrays with
    one row per node, theta-major: nodes (n, 2) holds (theta, phi), weights
    (n,) absorb the 1/4pi distribution and the sin(theta) volume element,
    directions (n, 3) are the unit vectors f(theta, phi), and
    a = local_bloch_norm(q) f are party A's Bloch vectors.  Party B's,
    b = -a, are derived on access.  For a stack of q, shape (m,), a has shape
    (m, n, 3); the node arrays are shared by every q."""

    q: float | np.ndarray
    n_theta: int
    n_phi: int
    nodes: np.ndarray
    weights: np.ndarray
    directions: np.ndarray
    a: np.ndarray

    @property
    def b(self) -> np.ndarray:
        return _frozen(-self.a)


@dataclass(frozen=True)
class WoottersDecomposition:
    """Four unnormalized product vectors z with sum_i |z_i><z_i| = W(q), as
    one read-only array of shape (4, 4), plus c = cos theta_3 and
    s = sin theta_3 of the phase factors 1, i, c + is and -c + is that build
    them; the angles are derived on access.  For a stack of q, shape (m,),
    z has shape (4, m, 4), and c, s and each angle shape (m,)."""

    q: float | np.ndarray
    z: np.ndarray
    c: float | np.ndarray
    s: float | np.ndarray

    @property
    def thetas(self) -> tuple[float, float, float, float] | tuple[np.ndarray, ...]:
        """The phase angles 0, pi/2, atan2(s, c) and atan2(s, -c)."""
        c = np.asarray(self.c)
        # math.atan2 per q: numpy's arctan2 rounds differently in the last ulp
        pairs = list(zip(np.ravel(self.s).tolist(), c.ravel().tolist()))
        thetas = np.array([
            [0.0] * len(pairs),
            [math.pi / 2.0] * len(pairs),
            [math.atan2(y, x) for y, x in pairs],
            [math.atan2(y, -x) for y, x in pairs],
        ]).reshape((4,) + c.shape)
        return tuple(thetas.tolist() if c.ndim == 0 else _frozen(thetas))


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of the node ensemble, whose targets are
    sum w*a_i = sum w*b_i = 0 and sum w*a_i*b_j = -q delta_ij; matrix
    M = sum w (1, a)(1, b)^T holds all three.  A stack of q, shape (m,),
    gives each a leading axis m."""

    q: float | np.ndarray
    first_moment_a: np.ndarray
    first_moment_b: np.ndarray
    second_moment: np.ndarray
    matrix: np.ndarray


def sphere_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def spherical_decomposition(q, n_theta: int = 4, n_phi: int = 8) -> SphericalDecomposition:
    """Quadrature realization of the continuous decomposition of W(q), or of
    every W(q) of a stack of q.

    Gauss-Legendre in cos(theta) with n_theta >= 2 points times a uniform
    n_phi >= 3 grid in phi integrates every spherical polynomial of degree
    <= 2 exactly, which covers all moments the reconstruction needs.  Node
    weights are w_gl / (2 n_phi) and sum to 1.

    Raises DecompositionDomainError for q > 1/3, where |a| = sqrt(3q) > 1;
    in a stack, the first such q names the error.
    """
    q = _require_separable_q(q)
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2 for degree-2 exactness, got {n_theta}")
    if n_phi < 3:
        raise ValueError(f"n_phi must be >= 3 for degree-2 exactness, got {n_phi}")
    if n_theta > MAX_THETA_COUNT:
        raise ValueError(f"n_theta must be <= {MAX_THETA_COUNT}, got {n_theta}")
    n_nodes = int(n_theta) * int(n_phi)
    if n_nodes > MAX_NODE_COUNT:
        raise ValueError(f"n_theta * n_phi must be <= {MAX_NODE_COUNT}, got {n_nodes}")

    nodes, weights, directions = _quadrature(n_theta, n_phi)
    return SphericalDecomposition(
        q=q,
        n_theta=n_theta,
        n_phi=n_phi,
        nodes=nodes,
        weights=weights,
        directions=directions,
        a=_frozen(np.asarray(local_bloch_norm(q))[..., None, None] * directions),
    )


# Shared by every decomposition on the same grid; the arrays are read-only.
# Bounded, since a 64x128 grid holds about 0.4 MB.
@functools.lru_cache(maxsize=8)
def _quadrature(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q-independent node arrays of the spherical quadrature: nodes,
    weights and directions."""
    cos_nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    # Angles, sines and cosines come from math on the axis values, so each
    # row of directions equals sphere_direction(theta, phi) bit for bit.
    thetas = [math.acos(float(c)) for c in cos_nodes]
    phis = [2.0 * math.pi * k / n_phi for k in range(n_phi)]
    sin_t = [math.sin(t) for t in thetas]
    directions = np.column_stack((
        np.outer(sin_t, [math.cos(p) for p in phis]).ravel(),
        np.outer(sin_t, [math.sin(p) for p in phis]).ravel(),
        np.repeat([math.cos(t) for t in thetas], n_phi),
    ))
    return (
        _frozen(np.column_stack((np.repeat(thetas, n_phi), np.tile(phis, n_theta)))),
        _frozen(np.repeat(gl_weights / (2.0 * n_phi), n_phi)),
        _frozen(directions),
    )


def wootters_decomposition(q) -> WoottersDecomposition:
    """Four-product-vector decomposition of W(q), or of every W(q) of a stack
    of q.

    The building blocks are sub-normalized Bell vectors
        x1 = -i sqrt(1+3q)/2 |psi_minus>,   x2 = sqrt(1-q)/2 |psi_plus>,
        x3 =    sqrt(1-q)/2 |phi_minus>,    x4 = -i sqrt(1-q)/2 |phi_plus>,
    combined as z_i = (1/2) sum_j S_ij e^{i theta_j} x_j with the four
    orthogonal sign rows S = (++++, ++--, +-+-, +--+).  The phase factors
    are 1, i, c + is and -c + is, with c = cos theta_3 = sqrt((1-3q)/(2(1-q)))
    and s = sin theta_3 = sqrt(1 - c^2); they satisfy the constraint
    e^{-2i theta_1}(1+3q) + (e^{-2i theta_2}+e^{-2i theta_3}+e^{-2i theta_4})(1-q) = 0
    and make every z_i a product state.  For q > 1/3 the cosine formula turns
    imaginary, which is the same positivity obstruction as in the spherical
    construction.

    Written out with h = sqrt((1-q)/32) and h' = sqrt((1+3q)/32), z_i is,
    on |00>, |01>, |10>, |11>,
        ((S_i3 c + S_i4 s) h + i (S_i3 s + S_i4 c) h,   i (S_i2 h - h'),
         i (S_i2 h + h'),   (S_i4 s - S_i3 c) h + i (S_i4 c - S_i3 s) h),
    so the |01> and |10> entries have real parts exactly 0.  z is one
    read-only array, vector axis first: shape (4, 4), or (4, m, 4) for a
    stack of q, shape (m,).
    """
    q = _require_separable_q(q)
    qs = np.asarray(q)
    c = np.sqrt((1.0 - _local_norm_squared(qs)) / (2.0 * (1.0 - qs)))
    # s from c keeps |c + is| = 1 in the window (1/3, SEPARABLE_Q_EDGE], where
    # sqrt((1+q)/(2(1-q))) passes 1
    s = np.sqrt(1.0 - c * c)
    h = np.sqrt((1.0 - qs) / 32.0)
    h_psi = np.sqrt((1.0 + 3.0 * qs) / 32.0)
    signs = [[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]  # S_i2, S_i3, S_i4 over i
    s2, s3, s4 = np.reshape(signs, (3, 4) + (1,) * qs.ndim)
    z = np.zeros((4,) + qs.shape + (4,), dtype=complex)
    z.real[..., 0] = (s3 * c + s4 * s) * h
    z.imag[..., 0] = (s3 * s + s4 * c) * h
    z.imag[..., 1] = s2 * h - h_psi
    z.imag[..., 2] = s2 * h + h_psi
    z.real[..., 3] = (s4 * s - s3 * c) * h
    z.imag[..., 3] = (s4 * c - s3 * s) * h
    return WoottersDecomposition(
        q=q, z=_frozen(z), c=_scalar_or_array(_frozen(c)), s=_scalar_or_array(_frozen(s))
    )


def _moment_matrix(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M = sum_n w_n (1, x_n)(1, y_n)^T for node vectors x and y of shape
    (..., n, 3), shape (..., 4, 4): the weight sum, the first moments of x
    (column 0) and y (row 0), and the second moment sum w x_i y_j.  Each
    w x_i is formed once, and each entry is one sum along the node axis of a
    C-contiguous product, so numpy adds each row pairwise, and a row of a
    stack exactly as the same row alone."""
    wx = [weights] + [weights * x[..., i] for i in range(3)]
    m = np.empty(x.shape[:-2] + (4, 4))
    for i in range(4):
        m[..., i, 0] = wx[i].sum(axis=-1)
        for j in range(1, 4):
            m[..., i, j] = (wx[i] * y[..., j - 1]).sum(axis=-1)
    return m


def _pauli_terms() -> np.ndarray:
    """The terms of (1/4) sum M_mu,nu sigma_mu (x) sigma_nu.  Each of its 16
    entries has four nonzero terms +-M_mu,nu / 4, each real or imaginary.
    Entry [k, e, p] indexes the k-th term of part p (real, imaginary) of
    entry e, flat, in the row (M / 4, -M / 4, 0) of 33 values, M flat in
    np.ndindex(4, 4) order: each part's terms in that order, then the 0 up
    to four terms."""
    paulis = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)
    signs = np.array([[np.kron(s, t) for t in paulis] for s in paulis]).reshape(16, 16)
    parts = np.stack((signs.real, signs.imag), axis=-1)  # (mu nu, entry, part)
    order = np.argsort(parts == 0.0, axis=0, kind="stable")[:4]
    sign = np.take_along_axis(parts, order, axis=0)
    return np.where(sign > 0.0, order, np.where(sign < 0.0, order + 16, 32))


_TERMS = _pauli_terms()


def _assemble(dec: SphericalDecomposition, m: np.ndarray) -> np.ndarray:
    """(1/4) sum m_mu,nu sigma_mu (x) sigma_nu, once dec's nodes are checked
    to be states.  The real and the imaginary part of each entry are the
    in-order sums of their +-m_mu,nu / 4 terms, so an entry equals the sum
    of all 16 terms, but for the sign of a zero."""
    validate_bloch_vector(dec.a)  # b = -a has the same norms
    quarter = m.reshape(m.shape[:-2] + (16,)) * 0.25
    row = np.concatenate((quarter, -quarter, np.zeros(quarter.shape[:-1] + (1,))), axis=-1)
    t = row[..., _TERMS]
    parts = t[..., 0, :, :] + t[..., 1, :, :] + t[..., 2, :, :] + t[..., 3, :, :]
    return np.ascontiguousarray(parts).view(complex).reshape(m.shape)


def reconstruct(dec) -> np.ndarray:
    """Resum a decomposition into its 4x4 density matrix; a stacked
    decomposition gives the stack of matrices, shape (m, 4, 4).  A spherical
    node whose local vectors are not states raises PositivityError."""
    if isinstance(dec, SphericalDecomposition):
        return _assemble(dec, _moment_matrix(dec.weights, dec.a, dec.b))
    if isinstance(dec, WoottersDecomposition):
        total = np.zeros(dec.z[0].shape[:-1] + (4, 4), dtype=complex)
        for z in dec.z:
            total += z[..., :, None] * z.conj()[..., None, :]
        return total
    raise TypeError(f"cannot reconstruct from {type(dec).__name__}")


def moment_check(dec: SphericalDecomposition) -> MomentReport:
    """The ensemble moments that force the reconstruction to equal W(q).

    Reports sum w*a, sum w*b (targets 0) and the 3x3 matrix sum w*a_i*b_j
    (target -q delta_ij).  Never raises and judges nothing; the checks
    compare these with their targets.
    """
    m = _moment_matrix(dec.weights, dec.a, dec.b)
    return MomentReport(
        q=dec.q,
        first_moment_a=m[..., 1:, 0],
        first_moment_b=m[..., 0, 1:],
        second_moment=m[..., 1:, 1:],
        matrix=m,
    )


def direction_moment(dec: SphericalDecomposition) -> np.ndarray:
    """The direction second moment sum w*f_i*f_j (target delta_ij / 3) of
    dec's nodes, shape (3, 3): it does not depend on q, so a stack of q has
    the one matrix.  Only the decompose report prints it, so no check
    builder forms it."""
    return _moment_matrix(dec.weights, dec.directions, dec.directions)[1:, 1:]


def schmidt_determinant(v) -> complex | np.ndarray:
    """Determinant of a two-qubit vector's 2x2 amplitude matrix (row index
    qubit A, column index qubit B); it vanishes iff the vector is a product
    state.  A stack of vectors, shape (..., 4), gives a complex array of
    shape (...)."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (4,):
        raise ValueError(f"expected a 4-component vector, got shape {v.shape}")
    # v0 v3 - v1 v2 multiplied out in real arithmetic, one rounding per
    # product and per sum as complex scalars make them; an array complex
    # product may fuse them
    r, i = np.moveaxis(v.real, -1, 0), np.moveaxis(v.imag, -1, 0)
    det = np.empty(v.shape[:-1], dtype=complex)
    det.real = (r[0] * r[3] - i[0] * i[3]) - (r[1] * r[2] - i[1] * i[2])
    det.imag = (r[0] * i[3] + i[0] * r[3]) - (r[1] * i[2] + i[1] * r[2])
    return det[()]


def _schmidt_terms(v) -> tuple[np.ndarray, np.ndarray]:
    """|det| and <v|v> of each two-qubit vector of a stack, shape (..., 4),
    the two sides of the one product-state rule |det| <= SCHMIDT_TOL <v|v>.
    np.hypot and the batched dot round as abs() of a complex scalar and
    np.vdot of each vector do."""
    v = np.asarray(v, dtype=complex)
    det = schmidt_determinant(v)
    norm_sq = np.matmul(v.conj()[..., None, :], v[..., :, None])[..., 0, 0].real
    return np.hypot(det.real, det.imag), norm_sq


def schmidt_rank_one_check(v) -> bool:
    """True if a two-qubit vector is a product state: its Schmidt determinant
    is at most SCHMIDT_TOL times its squared norm, a verdict that a rescaling
    of the vector does not change."""
    det, norm_sq = _schmidt_terms(np.asarray(v, dtype=complex).reshape(-1))
    return bool(det <= SCHMIDT_TOL * norm_sq)


def wootters_phase_residual(dec: WoottersDecomposition):
    """Magnitude of the phase constraint u1*^2 (1+3q) + (u2*^2 + u3*^2 +
    u4*^2)(1-q) on dec's own phase factors u = 1, i, c + is and -c + is,
    whose zero makes every z_i a product state.  With d = c^2 - s^2 the
    squares are 1, -1, d - 2ics and d + 2ics: the imaginary parts cancel
    exactly, so the sum is the real (1+3q) + ((d - 1) + d)(1-q).  A float for
    one q, shape (m,) for a stack."""
    d = dec.c * dec.c - dec.s * dec.s
    q = np.asarray(dec.q, dtype=float)
    return _scalar_or_array(np.abs((1.0 + 3.0 * q) + ((d - 1.0) + d) * (1.0 - q)))
