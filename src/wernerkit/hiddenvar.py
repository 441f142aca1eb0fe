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

from .decomposition import _require_separable_q, sphere_direction
from .states import _unit_axis

__all__ = [
    "HvSample",
    "HvEstimate",
    "sample_hidden",
    "outcome_a",
    "outcome_b",
    "estimate_correlation",
    "estimate_local",
]

_TWO_PI = 2.0 * math.pi


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
    a = math.sqrt(3.0 * q) * sphere_direction(sample.theta, sample.phi)
    threshold = 0.5 * (1.0 + float(np.dot(axis, a)))
    return 1 if sample.lambda_a <= threshold else -1


def outcome_b(sample: HvSample, q: float, axis) -> int:
    """Party B's deterministic outcome; B's local vector is b = -a."""
    q = _require_separable_q(q)
    axis = _unit_axis(axis, "axis")
    b = -math.sqrt(3.0 * q) * sphere_direction(sample.theta, sample.phi)
    threshold = 0.5 * (1.0 + float(np.dot(axis, b)))
    return 1 if sample.lambda_b <= threshold else -1


def _chunk_sizes(n_samples: int, chunks: int) -> list[int]:
    base, extra = divmod(n_samples, chunks)
    return [base + 1] * extra + [base] * (chunks - extra)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    # Sub-stream per chunk derived from (seed, chunk index); merging chunk
    # results in index order is therefore independent of who computed them.
    return np.random.default_rng([seed % (1 << 64), index])


def _draw_batch(rng: np.random.Generator, n: int):
    """Vectorized hidden draws, in the stream order (cos theta, phi,
    lambda_a, lambda_b)."""
    cos_t = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, _TWO_PI, n) % _TWO_PI
    lam_a = rng.random(n)
    lam_b = rng.random(n)
    return cos_t, phi, lam_a, lam_b


def _directions(cos_t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    return np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t))


def _signs(lam: np.ndarray, dot: np.ndarray) -> np.ndarray:
    return np.where(lam <= 0.5 * (1.0 + dot), 1.0, -1.0)


def _estimate(values: np.ndarray, n_samples: int, seed: int) -> HvEstimate:
    mean = float(np.mean(values))
    if n_samples > 1:
        std_error = float(np.std(values, ddof=1)) / math.sqrt(n_samples)
    else:
        std_error = 0.0
    return HvEstimate(mean=mean, std_error=std_error, n_samples=n_samples, seed=seed)


def _validate_sampling(n_samples: int, chunks: int) -> None:
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 1 <= chunks <= n_samples:
        raise ValueError(f"chunks must be in [1, n_samples], got {chunks}")


def estimate_correlation(
    q: float, axis_a, axis_b, n_samples: int, seed: int, chunks: int = 1
) -> HvEstimate:
    """Mean of outcome_a * outcome_b over n_samples hidden draws.

    Converges to -q (axis_a . axis_b).  Identical (seed, q, axes, n_samples,
    chunks) give a bit-identical estimate; chunks > 1 partitions the draws
    into deterministic sub-streams so the work may be fanned out and merged.
    """
    q = _require_separable_q(q)
    la = _unit_axis(axis_a, "axis_a")
    mb = _unit_axis(axis_b, "axis_b")
    _validate_sampling(n_samples, chunks)

    radius = math.sqrt(3.0 * q)
    parts = []
    for index, size in enumerate(_chunk_sizes(n_samples, chunks)):
        cos_t, phi, lam_a, lam_b = _draw_batch(_chunk_rng(seed, index), size)
        f = _directions(cos_t, phi)
        out_a = _signs(lam_a, radius * (f @ la))
        out_b = _signs(lam_b, -radius * (f @ mb))
        parts.append(out_a * out_b)
    return _estimate(np.concatenate(parts), n_samples, seed)


def estimate_local(
    q: float, axis, subsystem: str, n_samples: int, seed: int, chunks: int = 1
) -> HvEstimate:
    """Mean of a single party's outcome; converges to 0 for every q <= 1/3
    and every unit axis."""
    q = _require_separable_q(q)
    v = _unit_axis(axis, "axis")
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    _validate_sampling(n_samples, chunks)

    sign = 1.0 if subsystem == "A" else -1.0
    radius = math.sqrt(3.0 * q)
    parts = []
    for index, size in enumerate(_chunk_sizes(n_samples, chunks)):
        cos_t, phi, lam_a, lam_b = _draw_batch(_chunk_rng(seed, index), size)
        f = _directions(cos_t, phi)
        lam = lam_a if subsystem == "A" else lam_b
        parts.append(_signs(lam, sign * radius * (f @ v)))
    return _estimate(np.concatenate(parts), n_samples, seed)
