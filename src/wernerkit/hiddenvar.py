"""Monte Carlo realization of the local hidden variable model induced by the
spherical decomposition.

One hidden draw is (cos theta, phi, lambda_a, lambda_b): a uniformly random
point on the sphere plus two independent uniforms on [0, 1].  Each party's
outcome is a deterministic sign function of the draw: party A returns +1 iff
lambda_a <= (1 + l.a)/2 with a = sqrt(3q) f(theta,phi), and party B uses
b = -a.  Averaging the outcome product over draws converges to the quantum
correlation -q (l.m).

The model is local: each party's outcome reads only its own draw and its own
vector.  So an estimate splits into blocks of draws whose +/-1 counts add
exactly; the blocks are drawn from the seeded stream in order and counted one
after another on the caller's thread, in memory that does not grow with the
sample count.

A draw's outcome is which side of its float64 threshold lambda falls on.  An
estimate fills block buffers it makes once with raw uniform draws, and screens
every draw in float32: from sin(theta)/2 = sqrt(u (1 - u)), with 1 - u taken
in float64, from float32 cos(phi) and sin(phi), SIMD in numpy, and from the
uniform u of cos theta and both lambdas, one (2, 6) float32 product gives each
party's threshold minus its lambda.  That difference was within 2.5e-7 of the
float64 one on 4.2e6 draws, poles and both ends of phi included, so only a
draw whose difference lies within _SCREEN = 2^-16 of 0 can fall on the other
side.  Those draws, about 2 _SCREEN of them per party, are decided again from
float64 values built for them alone, through the float64 threshold arithmetic,
which gives a subset of the draws the values the whole block would.  So every
count is the one the float64 thresholds give, bit for bit.  outcome_a and
outcome_b decide one draw through the same float64 function, _plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import _require_separable_q, local_bloch_norm
from .states import _unit_axis

__all__ = [
    "HvSample",
    "HvEstimate",
    "HvEstimates",
    "MAX_SAMPLES",
    "outcome_a",
    "outcome_b",
    "estimate_all",
    "estimate_correlation",
    "estimate_local",
]

_TWO_PI = 2.0 * math.pi
# Samples per block.  A block draws the next slice of each of the four stream
# variables into the estimate's buffers and counts it, so an estimate holds
# about 2.1 MB of buffers, whatever its sample count.
_BLOCK = 1 << 15
# The most draws one estimate takes.  Streaming bounds an estimate's memory
# but not its time: 10^9 draws took 18.0 s on one thread of a 2-vCPU Xeon, so
# 2^32 take about 1.3 min, and every count stays exact in a float64.
MAX_SAMPLES = 1 << 32
# Half-width of the band around 0 inside which a draw's screened threshold
# minus lambda is decided again in float64.  At q = 1/3 the screened
# difference came within 2.42e-7 of the float64 one, 63 times inside this
# band, over 4.2e6 draws (cos theta = +/-1 with its neighbours and both ends
# of phi among them) x 100 axis pairs x both signs of the radius.  Adding up
# the worst case of every float32 rounding, phi's and the six-term product's
# included, gives about 1.7e-6, still 9 times inside.
_SCREEN = 2.0**-16


@dataclass(frozen=True)
class HvSample:
    """One hidden-variable draw: cos_theta in [-1, 1], phi in [0, 2pi),
    lambda_a and lambda_b in [0, 1].  The sampler draws cos theta, not theta,
    so a draw's outcome is computed from the value the sampler holds."""

    cos_theta: float
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


def _sample_outcome(sample: HvSample, q: float, axis, sign: int) -> int:
    """Party A's (sign 1) or B's (sign -1) outcome for one draw, decided by
    _plus on one-element arrays as the sampler decides it.  A draw outside
    the model's ranges, NaN and infinities included, is refused by the name
    of its field before any arithmetic."""
    ranges = {
        "cos_theta": (-1.0 <= sample.cos_theta <= 1.0, "[-1, 1]"),
        "phi": (0.0 <= sample.phi < _TWO_PI, "[0, 2pi)"),
        "lambda_a": (0.0 <= sample.lambda_a <= 1.0, "[0, 1]"),
        "lambda_b": (0.0 <= sample.lambda_b <= 1.0, "[0, 1]"),
    }
    for name, (inside, interval) in ranges.items():
        if not inside:
            raise ValueError(f"{name} must be in {interval}, got {getattr(sample, name)}")
    q = _require_separable_q(q)
    axis = _unit_axis(axis, "axis")
    lam = sample.lambda_a if sign == 1 else sample.lambda_b
    draw = np.array([[sample.cos_theta], [sample.phi], [lam]], dtype=float)
    return 1 if _plus(sign * local_bloch_norm(q), axis, *draw)[0] else -1


def outcome_a(sample: HvSample, q: float, axis) -> int:
    """Party A's deterministic outcome: +1 iff lambda_a <= (1 + l.a)/2."""
    return _sample_outcome(sample, q, axis, 1)


def outcome_b(sample: HvSample, q: float, axis) -> int:
    """Party B's deterministic outcome; B's local vector is b = -a."""
    return _sample_outcome(sample, q, axis, -1)


def _streams(seed: int, n_samples: int) -> list[np.random.Generator]:
    """The seed's n_samples-draw stream, default_rng([seed, 0]), as one
    generator per variable.  The stream draws every cos theta, then every
    phi, lambda_a and lambda_b, and each double takes one 64-bit PCG64
    output, so the generator of the k-th variable is the stream's advanced
    by k n_samples."""
    streams = []
    for k in range(4):
        bits = np.random.PCG64([seed, 0])
        bits.advance(k * n_samples)
        streams.append(np.random.Generator(bits))
    return streams


def _draw_block(streams: list[np.random.Generator], out: np.ndarray) -> np.ndarray:
    """Fills out, shape (4, m), with the next m draws of each of the four
    _streams, in the stream order: the uniforms of cos theta and phi, then
    lambda_a and lambda_b.  Returns out."""
    for rng, row in zip(streams, out):
        rng.random(out=row)
    return out


def _angles(u_cos: np.ndarray, u_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos theta and phi of raw uniform draws, bit for bit the values
    uniform(-1, 1) and uniform(0, 2pi) give, since numpy computes those as
    low + (high - low) u.  phi = 2pi u < 2pi for every u <= 1 - 2^-53."""
    cos_t = u_cos * 2.0
    cos_t -= 1.0
    return cos_t, u_phi * _TWO_PI


def _threshold(
    signed_radius: float,
    axis: np.ndarray,
    sin_t: np.ndarray,
    cos_t: np.ndarray,
    cos_p: np.ndarray,
    sin_p: np.ndarray,
) -> np.ndarray:
    """One party's float64 thresholds (1 + signed_radius * axis.f)/2, with the
    projection axis.f = sin(theta)(cos(phi) l_x + sin(phi) l_y) +
    cos(theta) l_z built in place in two work arrays of the draws' length.
    Every step is one elementwise float64 operation, so a subset of the draws
    gets the thresholds the whole block gives at its indices, bit for bit."""
    dot = np.multiply(cos_p, axis[0])
    work = np.multiply(sin_p, axis[1])
    dot += work
    dot *= sin_t
    np.multiply(cos_t, axis[2], out=work)
    dot += work
    dot *= signed_radius
    dot += 1.0
    dot *= 0.5
    return dot


def _plus(
    signed_radius: float, axis: np.ndarray, cos_t: np.ndarray, phi: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Where one party answers +1 for draws at cos theta cos_t and angle phi:
    each of its lambdas lam compared with its float64 threshold."""
    # |cos theta| <= 1, so 1 - cos^2 theta >= 0
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    return lam <= _threshold(signed_radius, axis, sin_t, cos_t, np.cos(phi), np.sin(phi))


def _screen_weights(radius: float, axis_a: np.ndarray, axis_b: np.ndarray) -> np.ndarray:
    """The (2, 6) float32 map from a draw's screen features (g cos phi,
    g sin phi, u, 1, lambda_a, lambda_b), with u the uniform of cos theta and
    g = sqrt(u (1 - u)) = sin(theta)/2, to each party's threshold minus its
    lambda: (1 + c.f)/2 = c_x g cos phi + c_y g sin phi + c_z u + (1 - c_z)/2
    for c = r l (party A) and c = -r m (party B)."""
    a, b = radius * axis_a, -radius * axis_b
    return np.array(
        [
            [a[0], a[1], a[2], 0.5 - 0.5 * a[2], -1.0, 0.0],
            [b[0], b[1], b[2], 0.5 - 0.5 * b[2], 0.0, -1.0],
        ],
        dtype=np.float32,
    )


def _buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """An estimate's block buffers, made once: the raw draws (4, size)
    float64, the screen features (6, size) float32 with their constant row of
    ones, the screened differences (2, size) float32, and the screened signs
    (2, size)."""
    features = np.empty((6, size), dtype=np.float32)
    features[3] = 1.0
    return (
        np.empty((4, size)),
        features,
        np.empty((2, size), dtype=np.float32),
        np.empty((2, size), dtype=bool),
    )


def _screen(
    weights: np.ndarray, draws: np.ndarray, features: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Each party's threshold minus its lambda for the raw draws (4, m), in
    float32, into out (2, m) by way of features (6, m); out's rows serve as
    scratch before the product.

    1 - u is taken in float64 before the cast, so sin(theta) keeps its
    float32 relative accuracy at the poles, where 1 - float32(u) would move it
    by up to 3.5e-4.  Beside the draws, no float64 array is built."""
    u, lam = draws[0], draws[2:]
    g, angle = out
    np.copyto(features[2], u, casting="same_kind")
    np.copyto(features[4:], lam, casting="same_kind")
    np.subtract(1.0, u, out=g)
    g *= features[2]
    np.sqrt(g, out=g)
    np.multiply(draws[1], _TWO_PI, out=angle)
    np.cos(angle, out=features[0])
    np.sin(angle, out=features[1])
    features[:2] *= g
    return np.matmul(weights, features, out=out)


def _screened_signs(
    weights: np.ndarray,
    draws: np.ndarray,
    features: np.ndarray,
    screened: np.ndarray,
    plus: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Where each party's screened threshold lies at or above its lambda,
    into plus (2, m), and the columns where either party's lies within
    _SCREEN of it: only there can a float64 threshold decide otherwise."""
    diff = _screen(weights, draws, features, screened)
    np.greater_equal(diff, 0.0, out=plus)
    np.abs(diff, out=diff)
    closest = np.minimum(diff[0], diff[1], out=diff[0])
    return plus, np.flatnonzero(closest <= _SCREEN)


def _count_outcomes(
    q: float, axis_a: np.ndarray, axis_b: np.ndarray, seed: int, n_samples: int
) -> tuple[int, int, int]:
    """Draws and counts the seed's n_samples-draw stream block by block, with
    A measured along axis_a and B along axis_b.  Returns the number of draws
    with A = +1, with B = +1, and with A == B; counts of +/-1 outcomes merge
    exactly across blocks."""
    radius = local_bloch_norm(q)
    weights = _screen_weights(radius, axis_a, axis_b)
    streams = _streams(seed, n_samples)
    draw_buf, feature_buf, screened_buf, plus_buf = _buffers(min(_BLOCK, n_samples))
    plus_a = plus_b = agree = 0
    for start in range(0, n_samples, _BLOCK):
        m = min(_BLOCK, n_samples - start)
        draws = _draw_block(streams, draw_buf[:, :m])
        plus, near = _screened_signs(
            weights, draws, feature_buf[:, :m], screened_buf[:, :m], plus_buf[:, :m]
        )
        if near.size:
            cos_t, phi = _angles(draws[0, near], draws[1, near])
            plus[0, near] = _plus(radius, axis_a, cos_t, phi, draws[2, near])
            plus[1, near] = _plus(-radius, axis_b, cos_t, phi, draws[3, near])
        out_a, out_b = plus
        plus_a += int(np.count_nonzero(out_a))
        plus_b += int(np.count_nonzero(out_b))
        agree += m - int(np.count_nonzero(np.not_equal(out_a, out_b, out=out_a)))
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


def estimate_all(q: float, axis_a, axis_b, n_samples: int, seed: int) -> HvEstimates:
    """The correlation of A along axis_a with B along axis_b, and both
    marginals, from one pass over n_samples hidden draws.

    The draws come from one seeded stream, numpy's PCG64 default_rng([seed,
    0]), so identical arguments give bit-identical estimates; the seeded
    reports pin that key.  Each estimate equals, bit for bit, the one
    estimate_correlation or estimate_local gives for the same arguments.
    More than MAX_SAMPLES draws raise ValueError.
    """
    q = _require_separable_q(q)
    la = _unit_axis(axis_a, "axis_a")
    mb = _unit_axis(axis_b, "axis_b")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {n_samples}")

    plus_a, plus_b, agree = _count_outcomes(q, la, mb, seed, n_samples)
    return HvEstimates(
        correlation=_estimate(agree, n_samples, seed),
        marginal_a=_estimate(plus_a, n_samples, seed),
        marginal_b=_estimate(plus_b, n_samples, seed),
    )


def estimate_correlation(q: float, axis_a, axis_b, n_samples: int, seed: int) -> HvEstimate:
    """Mean of outcome_a * outcome_b over n_samples hidden draws.

    Converges to -q (axis_a . axis_b).  Identical (seed, q, axes, n_samples)
    give a bit-identical estimate.
    """
    return estimate_all(q, axis_a, axis_b, n_samples, seed).correlation


def estimate_local(q: float, axis, subsystem: str, n_samples: int, seed: int) -> HvEstimate:
    """Mean of a single party's outcome; converges to 0 for every q <= 1/3
    and every unit axis."""
    q = _require_separable_q(q)
    v = _unit_axis(axis, "axis")
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")

    est = estimate_all(q, v, v, n_samples, seed)
    return est.marginal_a if subsystem == "A" else est.marginal_b
