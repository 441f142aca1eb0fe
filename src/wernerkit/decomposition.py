"""Two explicit separable decompositions of the Werner state.

The spherical decomposition realizes the continuous convex combination
W(q) = integral over the sphere of (1/4pi) rho_A(theta,phi) (x) rho_B(theta,phi)
with local Bloch vectors a = sqrt(3q) f(theta,phi) and b = -a, where
f = (sin t cos p, sin t sin p, cos t).  A product quadrature that is exact for
spherical polynomials of degree <= 2 (Gauss-Legendre in cos theta, uniform in
phi) makes the discretization lossless: the reconstruction only ever
integrates constants, f_i, and f_i f_j.

The four-vector decomposition writes W(q) = sum_i |z_i><z_i| where the z_i mix
four sub-normalized Bell vectors with phases chosen so that every z_i is a
product state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import SEPARABLE_Q_EDGE, bell_state, bloch_state, validate_mixing_parameter

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


class DecompositionDomainError(ValueError):
    """Requested mixing parameter admits no product-state decomposition: the
    local Bloch vectors would need norm sqrt(3q) > 1."""

    def __init__(self, q: float, detail: str):
        self.q = float(q)
        self.bloch_norm = math.sqrt(3.0 * float(q))
        super().__init__(detail)


def _require_separable_q(q: float) -> float:
    q = validate_mixing_parameter(q)
    if q > SEPARABLE_Q_EDGE:
        raise DecompositionDomainError(
            q,
            f"q = {q} is past the separability threshold 1/3: the local Bloch "
            f"vectors would need norm |a| = |b| = sqrt(3q) = {math.sqrt(3.0 * q)}, "
            "exceeding the unit ball allowed by positivity of the local states",
        )
    return q


def local_bloch_norm(q: float) -> float:
    """|a| = |b| = sqrt(3q), held at 1 for q in (1/3, SEPARABLE_Q_EDGE], where
    3q passes 1 by rounding only, so that every local vector is a state."""
    return math.sqrt(min(3.0 * q, 1.0))


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
    b = -a, are derived on access."""

    q: float
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
    plus the phase angles used to build them."""

    q: float
    z: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    thetas: tuple[float, float, float, float]


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of the node ensemble against their targets:
    sum w*a_i = sum w*b_i = 0 and sum w*a_i*b_j = -q delta_ij."""

    q: float
    first_moment_a: np.ndarray
    first_moment_b: np.ndarray
    second_moment: np.ndarray
    f_second_moment: np.ndarray
    tolerance: float
    first_a_pass: bool
    first_b_pass: bool
    second_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.first_a_pass and self.first_b_pass and self.second_pass


def sphere_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def spherical_decomposition(
    q: float, n_theta: int = 4, n_phi: int = 8
) -> SphericalDecomposition:
    """Quadrature realization of the continuous decomposition of W(q).

    Gauss-Legendre in cos(theta) with n_theta >= 2 points times a uniform
    n_phi >= 3 grid in phi integrates every spherical polynomial of degree
    <= 2 exactly, which covers all moments the reconstruction needs.  Node
    weights are w_gl / (2 n_phi) and sum to 1.

    Raises DecompositionDomainError for q > 1/3, where |a| = sqrt(3q) > 1.
    """
    q = _require_separable_q(q)
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2 for degree-2 exactness, got {n_theta}")
    if n_phi < 3:
        raise ValueError(f"n_phi must be >= 3 for degree-2 exactness, got {n_phi}")

    nodes, weights, directions = _quadrature(n_theta, n_phi)
    return SphericalDecomposition(
        q=q,
        n_theta=n_theta,
        n_phi=n_phi,
        nodes=nodes,
        weights=weights,
        directions=directions,
        a=_frozen(local_bloch_norm(q) * directions),
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


def wootters_decomposition(q: float) -> WoottersDecomposition:
    """Four-product-vector decomposition of W(q).

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

    x_vectors = (
        -1j * (math.sqrt(1.0 + 3.0 * q) / 2.0) * bell_state("psi_minus"),
        (math.sqrt(1.0 - q) / 2.0) * bell_state("psi_plus"),
        (math.sqrt(1.0 - q) / 2.0) * bell_state("phi_minus"),
        -1j * (math.sqrt(1.0 - q) / 2.0) * bell_state("phi_plus"),
    )

    # 1 - 3q < 0 for q in (1/3, SEPARABLE_Q_EDGE]: clamp so the root stays real
    cos3 = math.sqrt(max(0.0, 1.0 - 3.0 * q) / (2.0 * (1.0 - q)))
    sin3 = math.sqrt((1.0 + q) / (2.0 * (1.0 - q)))
    thetas = (
        0.0,
        math.pi / 2.0,
        math.atan2(sin3, cos3),
        math.atan2(sin3, -cos3),
    )

    signs = (
        (1, 1, 1, 1),
        (1, 1, -1, -1),
        (1, -1, 1, -1),
        (1, -1, -1, 1),
    )
    phases = [np.exp(1j * t) for t in thetas]
    z_vectors = []
    for row in signs:
        z = 0.5 * sum(s * ph * x for s, ph, x in zip(row, phases, x_vectors))
        z.setflags(write=False)
        z_vectors.append(z)
    return WoottersDecomposition(q=q, z=tuple(z_vectors), thetas=thetas)


def reconstruct(dec) -> np.ndarray:
    """Resum a decomposition into its 4x4 density matrix."""
    if isinstance(dec, SphericalDecomposition):
        ra, rb = bloch_state(dec.a), bloch_state(dec.b)
        # kron(ra[n], rb[n]) for every node n, indexed (n, i, k, j, l), then
        # weighted and summed over n in node order.
        products = ra[:, :, None, :, None] * rb[:, None, :, None, :]
        products *= dec.weights[:, None, None, None, None]
        return products.sum(axis=0).reshape(4, 4)
    if isinstance(dec, WoottersDecomposition):
        total = np.zeros((4, 4), dtype=complex)
        for z in dec.z:
            total += np.outer(z, z.conj())
        return total
    raise TypeError(f"cannot reconstruct from {type(dec).__name__}")


def moment_check(dec: SphericalDecomposition, tol: float = MOMENT_TOL) -> MomentReport:
    """Verify the ensemble moments that force the reconstruction to equal W(q).

    Reports sum w*a, sum w*b (targets 0), the 3x3 matrix sum w*a_i*b_j
    (target -q delta_ij), and the direction second moment sum w*f_i*f_j
    (target delta_ij / 3).  Never raises; pass/fail flags are in the report.
    """
    weights, a, b, f = dec.weights, dec.a, dec.b, dec.directions
    first_a = weights @ a
    first_b = weights @ b
    second = np.einsum("n,ni,nj->ij", weights, a, b)
    f_second = np.einsum("n,ni,nj->ij", weights, f, f)

    target = -dec.q * np.eye(3)
    report = MomentReport(
        q=dec.q,
        first_moment_a=first_a,
        first_moment_b=first_b,
        second_moment=second,
        f_second_moment=f_second,
        tolerance=float(tol),
        first_a_pass=bool(np.max(np.abs(first_a)) <= tol),
        first_b_pass=bool(np.max(np.abs(first_b)) <= tol),
        second_pass=bool(np.max(np.abs(second - target)) <= tol),
    )
    return report


def schmidt_determinant(v) -> complex:
    """Determinant of a two-qubit vector's 2x2 amplitude matrix (row index
    qubit A, column index qubit B); it vanishes iff the vector is a product
    state."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-component vector, got shape {v.shape}")
    return v[0] * v[3] - v[1] * v[2]


def schmidt_rank_one_check(v, tol: float = SCHMIDT_TOL) -> bool:
    """True if a two-qubit vector is a product state: its Schmidt determinant
    vanishes within tol, scaled by the squared norm when that exceeds 1."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    det = schmidt_determinant(v)
    norm_sq = float(np.real(np.vdot(v, v)))
    return bool(abs(det) <= tol * max(1.0, norm_sq))


def phase_constraint_residual(thetas, q: float) -> float:
    """Magnitude of e^{-2i t1}(1+3q) + (e^{-2i t2}+e^{-2i t3}+e^{-2i t4})(1-q).

    Zero residual is the condition for the four-vector decomposition's phases
    to produce product states.
    """
    t = [float(x) for x in thetas]
    if len(t) != 4:
        raise ValueError(f"expected 4 phase angles, got {len(t)}")
    q = float(q)
    value = np.exp(-2j * t[0]) * (1.0 + 3.0 * q) + (
        np.exp(-2j * t[1]) + np.exp(-2j * t[2]) + np.exp(-2j * t[3])
    ) * (1.0 - q)
    return float(abs(value))
