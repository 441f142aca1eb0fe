"""Monte Carlo realization of the local hidden variable model induced by the
spherical decomposition.

One hidden draw is (theta, phi, lambda_a, lambda_b): a uniformly random point
on the sphere plus two independent uniforms on [0, 1].  Each party's outcome
is a deterministic sign function of the draw: party A returns +1 iff
lambda_a <= (1 + l.a)/2 with a = sqrt(3q) f(theta,phi), and party B uses
b = -a.  Averaging the outcome product over draws converges to the quantum
correlation -q (l.m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import _require_separable_q, local_bloch_norm, sphere_direction
from .states import _unit_axis

__all__ = [
    "HvSample",
    "HvEstimate",
    "HvEstimates",
    "sample_hidden",
    "outcome_a",
    "outcome_b",
    "estimate_all",
    "estimate_correlation",
    "estimate_local",
]

_TWO_PI = 2.0 * math.pi
# Draws per pass through the projection work arrays: a chunk's draws are held
# whole (the stream order puts every cos(theta) before every phi), but the
# arrays derived from them never exceed one block.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class HvSample:
    """One hidden-variable draw: theta in [0, pi], phi in [0, 2pi),
    lambda_a and lambda_b in [0, 1]."""

    theta: float
    phi: float
    lambda_a: float
    lambda_b: float


@dataclass(frozen=True)
class HvEstimate:
    """Monte Carlo mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class HvEstimates:
    """The three estimates one pass over the hidden draws gives."""

    correlation: HvEstimate
    marginal_a: HvEstimate
    marginal_b: HvEstimate


def sample_hidden(rng: np.random.Generator) -> HvSample:
    """Draw one hidden sample: cos(theta) uniform on [-1, 1] (so the direction
    is uniform on the sphere), phi uniform on [0, 2pi), lambdas uniform on
    [0, 1].  Deterministic given the generator state."""
    cos_t = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, _TWO_PI) % _TWO_PI
    lam_a = rng.random()
    lam_b = rng.random()
    return HvSample(
        theta=math.acos(cos_t), phi=phi, lambda_a=lam_a, lambda_b=lam_b
    )


def outcome_a(sample: HvSample, q: float, axis) -> int:
    """Party A's deterministic outcome: +1 iff lambda_a <= (1 + l.a)/2."""
    q = _require_separable_q(q)
    axis = _unit_axis(axis, "axis")
    a = local_bloch_norm(q) * sphere_direction(sample.theta, sample.phi)
    threshold = 0.5 * (1.0 + float(np.dot(axis, a)))
    return 1 if sample.lambda_a <= threshold else -1


def outcome_b(sample: HvSample, q: float, axis) -> int:
    """Party B's deterministic outcome; B's local vector is b = -a."""
    q = _require_separable_q(q)
    axis = _unit_axis(axis, "axis")
    b = -local_bloch_norm(q) * sphere_direction(sample.theta, sample.phi)
    threshold = 0.5 * (1.0 + float(np.dot(axis, b)))
    return 1 if sample.lambda_b <= threshold else -1


def _chunk_sizes(n_samples: int, chunks: int) -> list[int]:
    base, extra = divmod(n_samples, chunks)
    return [base + 1] * extra + [base] * (chunks - extra)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    # Sub-stream per chunk derived from (seed, chunk index); merging chunk
    # results in index order is therefore independent of who computed them.
    return np.random.default_rng([seed, index])


def _draw_batch(rng: np.random.Generator, n: int):
    """Vectorized hidden draws, in the stream order (cos theta, phi,
    lambda_a, lambda_b)."""
    cos_t = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, _TWO_PI, n)
    # uniform may round up to 2pi itself: wrap it to 0, as phi % 2pi would,
    # without a division per draw
    phi[phi >= _TWO_PI] -= _TWO_PI
    lam_a = rng.random(n)
    lam_b = rng.random(n)
    return cos_t, phi, lam_a, lam_b


def _plus_mask(
    lam: np.ndarray,
    signed_radius: float,
    axis: np.ndarray,
    sin_t: np.ndarray,
    cos_t: np.ndarray,
    cos_p: np.ndarray,
    sin_p: np.ndarray,
) -> np.ndarray:
    """Where one party answers +1: lam <= (1 + signed_radius * axis.f)/2, with
    the projection axis.f = sin(theta)(cos(phi) l_x + sin(phi) l_y) +
    cos(theta) l_z built in place in two work arrays of the block's length."""
    dot = np.multiply(cos_p, axis[0])
    work = np.multiply(sin_p, axis[1])
    dot += work
    dot *= sin_t
    np.multiply(cos_t, axis[2], out=work)
    dot += work
    dot *= signed_radius
    dot += 1.0
    dot *= 0.5
    return lam <= dot


def _count_outcomes(
    q: float, axis_a: np.ndarray, axis_b: np.ndarray, n_samples: int, seed: int, chunks: int
) -> tuple[int, int, int]:
    """One pass over the seeded draws, with A measured along axis_a and B along
    axis_b.  Returns the number of draws with A = +1, with B = +1, and with
    A == B; counts of +/-1 outcomes merge exactly across chunks and blocks."""
    radius = local_bloch_norm(q)
    plus_a = plus_b = agree = 0
    for index, size in enumerate(_chunk_sizes(n_samples, chunks)):
        draws = _draw_batch(_chunk_rng(seed, index), size)
        for start in range(0, size, _BLOCK):
            cos_t, phi, lam_a, lam_b = (x[start:start + _BLOCK] for x in draws)
            sin_t = np.multiply(cos_t, cos_t)
            np.subtract(1.0, sin_t, out=sin_t)
            np.clip(sin_t, 0.0, None, out=sin_t)
            np.sqrt(sin_t, out=sin_t)
            cos_p = np.cos(phi)
            sin_p = np.sin(phi, out=phi)
            out_a = _plus_mask(lam_a, radius, axis_a, sin_t, cos_t, cos_p, sin_p)
            out_b = _plus_mask(lam_b, -radius, axis_b, sin_t, cos_t, cos_p, sin_p)
            plus_a += int(np.count_nonzero(out_a))
            plus_b += int(np.count_nonzero(out_b))
            agree += out_a.size - int(np.count_nonzero(out_a ^ out_b))
    return plus_a, plus_b, agree


def _estimate(plus: int, n_samples: int, seed: int) -> HvEstimate:
    """Mean and standard error of n_samples +/-1 outcomes, plus of them +1.

    The sample variance (1 - mean^2) n/(n - 1) is taken from the counts as
    4 plus (n - plus) / (n (n - 1)), one rounding with no cancellation near
    mean = +/-1."""
    mean = (2 * plus - n_samples) / n_samples
    if n_samples > 1:
        variance = 4 * plus * (n_samples - plus) / (n_samples * (n_samples - 1))
        std_error = math.sqrt(variance) / math.sqrt(n_samples)
    else:
        std_error = 0.0
    return HvEstimate(mean=mean, std_error=std_error, n_samples=n_samples, seed=seed)


def _validate_sampling(n_samples: int, chunks: int, seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 1 <= chunks <= n_samples:
        raise ValueError(f"chunks must be in [1, n_samples], got {chunks}")


def estimate_all(
    q: float, axis_a, axis_b, n_samples: int, seed: int, chunks: int = 1
) -> HvEstimates:
    """The correlation of A along axis_a with B along axis_b, and both
    marginals, from one pass over n_samples hidden draws.

    Each estimate equals, bit for bit, the one estimate_correlation or
    estimate_local gives for the same arguments.
    """
    q = _require_separable_q(q)
    la = _unit_axis(axis_a, "axis_a")
    mb = _unit_axis(axis_b, "axis_b")
    _validate_sampling(n_samples, chunks, seed)

    plus_a, plus_b, agree = _count_outcomes(q, la, mb, n_samples, seed, chunks)
    return HvEstimates(
        correlation=_estimate(agree, n_samples, seed),
        marginal_a=_estimate(plus_a, n_samples, seed),
        marginal_b=_estimate(plus_b, n_samples, seed),
    )


def estimate_correlation(
    q: float, axis_a, axis_b, n_samples: int, seed: int, chunks: int = 1
) -> HvEstimate:
    """Mean of outcome_a * outcome_b over n_samples hidden draws.

    Converges to -q (axis_a . axis_b).  Identical (seed, q, axes, n_samples,
    chunks) give a bit-identical estimate; chunks > 1 partitions the draws
    into deterministic sub-streams so the work may be fanned out and merged.
    """
    return estimate_all(q, axis_a, axis_b, n_samples, seed, chunks).correlation


def estimate_local(
    q: float, axis, subsystem: str, n_samples: int, seed: int, chunks: int = 1
) -> HvEstimate:
    """Mean of a single party's outcome; converges to 0 for every q <= 1/3
    and every unit axis."""
    q = _require_separable_q(q)
    v = _unit_axis(axis, "axis")
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    _validate_sampling(n_samples, chunks, seed)

    plus_a, plus_b, _ = _count_outcomes(q, v, v, n_samples, seed, chunks)
    return _estimate(plus_a if subsystem == "A" else plus_b, n_samples, seed)
