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

Both constructors, reconstruct, moment_check, schmidt_determinant and
phase_constraint_residual also take a stack of q, shape (m,), and evaluate it
in one call; each entry of a stacked result equals the result for its own q
bit for bit.  A scalar q gives the one-state types.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z
from .states import SEPARABLE_Q_EDGE, bell_state, validate_bloch_vector, validate_mixing_parameter

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
    "schmidt_determinant",
    "schmidt_rank_one_check",
    "phase_constraint_residual",
    "local_bloch_norm",
]

MOMENT_TOL = 1e-13
SCHMIDT_TOL = 1e-12
# The largest n_phi, refused before a count like 2^64 sizes an array; n_theta
# has the tighter cap below.
MAX_NODE_COUNT = 100_000
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


def local_bloch_norm(q):
    """|a| = |b| = sqrt(3q), held at 1 for q in (1/3, SEPARABLE_Q_EDGE], where
    3q passes 1 by rounding only, so that every local vector is a state."""
    return _scalar_or_array(np.sqrt(np.minimum(3.0 * np.asarray(q, dtype=float), 1.0)))


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
    """Four unnormalized product vectors z with sum_i |z_i><z_i| = W(q),
    plus the phase angles used to build them.  For a stack of q, shape (m,),
    each z_i has shape (m, 4) and each angle shape (m,)."""

    q: float | np.ndarray
    z: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    thetas: tuple[float, float, float, float] | tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of the node ensemble, whose targets are
    sum w*a_i = sum w*b_i = 0, sum w*a_i*b_j = -q delta_ij and
    sum w*f_i*f_j = delta_ij / 3; matrix M = sum w (1, a)(1, b)^T holds the
    first three.  A stack of q, shape (m,), gives each a leading axis m."""

    q: float | np.ndarray
    first_moment_a: np.ndarray
    first_moment_b: np.ndarray
    second_moment: np.ndarray
    f_second_moment: np.ndarray
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
    if n_phi > MAX_NODE_COUNT:
        raise ValueError(f"n_phi must be <= {MAX_NODE_COUNT}, got {n_phi}")

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
    orthogonal sign rows S = (++++, ++--, +-+-, +--+).  The phases are the
    closed-form choice theta_1 = 0, theta_2 = pi/2,
        cos theta_3 = sqrt((1-3q)/(2(1-q))),   sin theta_3 = sqrt((1+q)/(2(1-q))),
    and theta_4 with the opposite cosine sign; this satisfies the constraint
    e^{-2i theta_1}(1+3q) + (e^{-2i theta_2}+e^{-2i theta_3}+e^{-2i theta_4})(1-q) = 0
    and makes every z_i a product state.  For q > 1/3 the cosine formula turns
    imaginary, which is the same positivity obstruction as in the spherical
    construction.
    """
    q = _require_separable_q(q)
    qs = np.asarray(q)

    def column(x) -> np.ndarray:
        return np.asarray(x)[..., None]

    root_psi = np.sqrt(1.0 + 3.0 * qs) / 2.0
    root = np.sqrt(1.0 - qs) / 2.0
    x = np.stack([
        column(-1j * root_psi) * bell_state("psi_minus"),
        column(root) * bell_state("psi_plus"),
        column(root) * bell_state("phi_minus"),
        column(-1j * root) * bell_state("phi_plus"),
    ])

    def atan2(sin, cos) -> np.ndarray:
        # math.atan2 per q: numpy's arctan2 rounds differently in the last ulp
        pairs = zip(np.ravel(sin).tolist(), np.ravel(cos).tolist())
        return np.array([math.atan2(a, b) for a, b in pairs]).reshape(qs.shape)

    # 1 - 3q < 0 for q in (1/3, SEPARABLE_Q_EDGE]: clamp so the root stays real
    cos3 = np.sqrt(np.maximum(0.0, 1.0 - 3.0 * qs) / (2.0 * (1.0 - qs)))
    sin3 = np.sqrt((1.0 + qs) / (2.0 * (1.0 - qs)))
    thetas = np.stack([
        np.zeros(qs.shape),
        np.full(qs.shape, math.pi / 2.0),
        atan2(sin3, cos3),
        atan2(sin3, -cos3),
    ])

    signs = np.array([
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]).reshape((4, 4) + (1,) * qs.ndim)
    # S_ij e^{i theta_j} x_j, indexed (i, j, ..., component), summed over j
    terms = column(signs * np.exp(1j * thetas)) * x
    z_vectors = tuple(_frozen(0.5 * terms.sum(axis=1)))
    thetas = tuple(thetas.tolist() if qs.ndim == 0 else _frozen(thetas))
    return WoottersDecomposition(q=q, z=z_vectors, thetas=thetas)


def _node_sum(weights: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """sum_n w_n x_n y_n ... over the last axis of each factor, the node
    axis.  The products form one C-contiguous array, so numpy adds each row
    pairwise, and a row of a stack exactly as the same row alone."""
    product = weights
    for x in factors:
        product = product * x
    return product.sum(axis=-1)


def _moment_matrix(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M = sum_n w_n (1, x_n)(1, y_n)^T for node vectors x and y of shape
    (..., n, 3), shape (..., 4, 4): the weight sum, the first moments of x
    (column 0) and y (row 0), and the second moment sum w x_i y_j."""
    u = [()] + [(x[..., i],) for i in range(3)]
    v = [()] + [(y[..., j],) for j in range(3)]
    m = np.empty(x.shape[:-2] + (4, 4))
    for i in range(4):
        for j in range(4):
            m[..., i, j] = _node_sum(weights, *u[i], *v[j])
    return m


# kron(sigma_mu, sigma_nu) / 4, indexed (mu, nu, i, j), with sigma_0 = I
_PAULIS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)
_PAULI_PRODUCTS = np.array([[np.kron(s, t) / 4.0 for t in _PAULIS] for s in _PAULIS])


def _assemble(dec: SphericalDecomposition, m: np.ndarray) -> np.ndarray:
    """(1/4) sum m_mu,nu sigma_mu (x) sigma_nu, once dec's nodes are checked to be states."""
    validate_bloch_vector(dec.a)  # b = -a has the same norms
    m = m[..., None, None]
    # each entry adds four nonzero terms, +-M_mu,nu / 4 times 1 or i
    return sum(m[..., mu, nu, :, :] * _PAULI_PRODUCTS[mu, nu] for mu, nu in np.ndindex(4, 4))


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

    Reports sum w*a, sum w*b (targets 0), the 3x3 matrix sum w*a_i*b_j
    (target -q delta_ij), and the direction second moment sum w*f_i*f_j
    (target delta_ij / 3).  Never raises and judges nothing; the checks
    compare these with their targets.
    """
    m = _moment_matrix(dec.weights, dec.a, dec.b)
    f = _moment_matrix(dec.weights, dec.directions, dec.directions)
    return MomentReport(
        q=dec.q,
        first_moment_a=m[..., 1:, 0],
        first_moment_b=m[..., 0, 1:],
        second_moment=m[..., 1:, 1:],
        f_second_moment=np.broadcast_to(f[1:, 1:], m.shape[:-2] + (3, 3)),
        matrix=m,
    )


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


def schmidt_rank_one_check(v) -> bool:
    """True if a two-qubit vector is a product state: its Schmidt determinant
    is at most SCHMIDT_TOL times its squared norm, a verdict that a rescaling
    of the vector does not change."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    det = schmidt_determinant(v)
    norm_sq = float(np.real(np.vdot(v, v)))
    return bool(abs(det) <= SCHMIDT_TOL * norm_sq)


def phase_constraint_residual(thetas, q):
    """Magnitude of e^{-2i t1}(1+3q) + (e^{-2i t2}+e^{-2i t3}+e^{-2i t4})(1-q).

    Zero residual is the condition for the four-vector decomposition's phases
    to produce product states.  Four angle arrays of shape (m,) and a stack
    of q of that shape give the residuals, shape (m,).
    """
    t = [np.asarray(x, dtype=float) for x in thetas]
    if len(t) != 4:
        raise ValueError(f"expected 4 phase angles, got {len(t)}")
    q = np.asarray(q, dtype=float)
    e = [np.exp(-2j * x) for x in t]
    # the complex sum in real arithmetic, rounded as complex scalars round
    # it, and its magnitude by np.hypot, as abs() of a complex scalar
    re = e[0].real * (1.0 + 3.0 * q) + (e[1].real + e[2].real + e[3].real) * (1.0 - q)
    im = e[0].imag * (1.0 + 3.0 * q) + (e[1].imag + e[2].imag + e[3].imag) * (1.0 - q)
    return _scalar_or_array(np.hypot(re, im))
