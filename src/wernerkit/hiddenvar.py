"""Monte Carlo realization of the local hidden variable model induced by the
spherical decomposition.

One hidden draw is (theta, phi, lambda_a, lambda_b): a uniformly random point
on the sphere plus two independent uniforms on [0, 1].  Each party's outcome
is a deterministic sign function of the draw: party A returns +1 iff
lambda_a <= (1 + l.a)/2 with a = sqrt(3q) f(theta,phi), and party B uses
b = -a.  Averaging the outcome product over draws converges to the quantum
correlation -q (l.m).

The model is local: each party's outcome reads only its own draw and its own
vector.  So an estimate splits into blocks of draws whose +/-1 counts add
exactly; each block draws its own slice of the seeded stream, and the blocks
are counted on one thread per usable CPU, in memory that does not grow with
the sample count.  The counts, and so every estimate, are the same whatever
the number of threads.

A draw's outcome is which side of its float64 threshold lambda falls on.  The
thresholds are screened from float32 cos(phi) and sin(phi), SIMD in numpy and
within 2.6e-7 of the float64 values (phi's rounding to float32 included), so a
screened threshold is within 1.9e-7 of the float64 one.  Only a draw whose
lambda lies within _SCREEN = 2^-16 of its screened threshold can fall on the
other side; those draws, about 2 _SCREEN of them per party, are decided again
from float64 cos and sin of their own phi through the same threshold
arithmetic, which gives a subset of the draws the values the whole block
would.  So every count is the one the float64 thresholds give, bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .decomposition import _require_separable_q, local_bloch_norm, sphere_direction
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
# Samples per block.  A block draws its own slice of each of the four stream
# variables and counts it, so an estimate holds about 8 block-length arrays
# (2 MB) per thread, whatever its sample count.
_BLOCK = 1 << 15
# The most draws one estimate takes.  Streaming bounds an estimate's memory
# but not its time: 2^32 draws take about 4 min on 2 CPUs, and every count
# stays exact in a float64.
MAX_SAMPLES = 1 << 32
# Half-width of the band around a screened threshold inside which a draw is
# decided again in float64.  The float32 cos(phi) and sin(phi), phi rounded to
# float32 included, are within 2.6e-7 of the float64 ones over [0, 2pi]
# (measured on 2^23 points), 59 times inside this band, and a threshold moves
# by at most sqrt(3q)/2 sin(theta) |(d cos, d sin)| <= 0.71 times that.
_SCREEN = 2.0**-16


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


def _wrap_phi(phi: np.ndarray) -> np.ndarray:
    """phi % 2pi, in place, for uniform draws on [0, 2pi]: uniform may round
    up to 2pi itself, which wraps to 0, with no division per draw."""
    phi[phi >= _TWO_PI] -= _TWO_PI
    return phi


def _draw_block(seed: int, start: int, m: int, n_samples: int):
    """Draws start to start + m of the seed's n_samples-draw stream, in the
    stream order (cos theta, phi, lambda_a, lambda_b).

    The stream, default_rng([seed, 0]), draws every cos theta, then every phi,
    lambda_a and lambda_b.  Each double takes one 64-bit PCG64 output, so
    advancing the bit generator by n_samples - m moves from one variable's
    slice of the block to the next one's."""
    bits = np.random.PCG64([seed, 0]).advance(start)
    rng = np.random.Generator(bits)
    gap = n_samples - m
    cos_t = rng.uniform(-1.0, 1.0, m)
    bits.advance(gap)
    phi = _wrap_phi(rng.uniform(0.0, _TWO_PI, m))
    bits.advance(gap)
    lam_a = rng.random(m)
    bits.advance(gap)
    lam_b = rng.random(m)
    return cos_t, phi, lam_a, lam_b


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
    dot = np.multiply(cos_p, axis[0], dtype=np.float64)
    work = np.multiply(sin_p, axis[1], dtype=np.float64)
    dot += work
    dot *= sin_t
    np.multiply(cos_t, axis[2], out=work)
    dot += work
    dot *= signed_radius
    dot += 1.0
    dot *= 0.5
    return dot


def _plus_mask(
    lam: np.ndarray,
    signed_radius: float,
    axis: np.ndarray,
    sin_t: np.ndarray,
    cos_t: np.ndarray,
    phi: np.ndarray,
    cos_p32: np.ndarray,
    sin_p32: np.ndarray,
) -> np.ndarray:
    """Where one party answers +1: lam <= its float64 threshold.

    The thresholds are screened from the float32 cos(phi) and sin(phi), which
    sit within _SCREEN / 59 of the float64 ones; only the draws whose lam
    lies within _SCREEN of a screened threshold are decided again, from
    float64 np.cos and np.sin of their own phi."""
    screened = _threshold(signed_radius, axis, sin_t, cos_t, cos_p32, sin_p32)
    plus = lam <= screened
    screened -= lam
    near = np.flatnonzero(np.abs(screened, out=screened) <= _SCREEN)
    p = phi[near]
    exact = _threshold(signed_radius, axis, sin_t[near], cos_t[near], np.cos(p), np.sin(p))
    plus[near] = lam[near] <= exact
    return plus


def _count_outcomes(
    q: float,
    axis_a: np.ndarray,
    axis_b: np.ndarray,
    seed: int,
    n_samples: int,
    starts: range,
    stop: threading.Event,
) -> tuple[int, int, int]:
    """Draws and counts the blocks of the seed's n_samples-draw stream that
    begin at starts, with A measured along axis_a and B along axis_b, until
    stop is set.  Returns the number of draws with A = +1, with B = +1, and
    with A == B; counts of +/-1 outcomes merge exactly across blocks."""
    radius = local_bloch_norm(q)
    plus_a = plus_b = agree = 0
    for start in starts:
        if stop.is_set():
            break
        m = min(_BLOCK, n_samples - start)
        cos_t, phi, lam_a, lam_b = _draw_block(seed, start, m, n_samples)
        sin_t = np.multiply(cos_t, cos_t)
        np.subtract(1.0, sin_t, out=sin_t)
        np.clip(sin_t, 0.0, None, out=sin_t)
        np.sqrt(sin_t, out=sin_t)
        phi32 = phi.astype(np.float32)
        cos_p = np.cos(phi32)
        sin_p = np.sin(phi32, out=phi32)
        out_a = _plus_mask(lam_a, radius, axis_a, sin_t, cos_t, phi, cos_p, sin_p)
        out_b = _plus_mask(lam_b, -radius, axis_b, sin_t, cos_t, phi, cos_p, sin_p)
        plus_a += int(np.count_nonzero(out_a))
        plus_b += int(np.count_nonzero(out_b))
        agree += out_a.size - int(np.count_nonzero(out_a ^ out_b))
    return plus_a, plus_b, agree


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    0]), so identical arguments give bit-identical estimates on any number
    of threads; the seeded reports pin that key.  Each estimate equals, bit
    for bit, the one estimate_correlation or estimate_local gives for the same
    arguments.  More than MAX_SAMPLES draws raise ValueError.
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

    blocks = range(0, n_samples, _BLOCK)
    workers = min(_usable_cpus(), len(blocks))
    stop = threading.Event()

    def count(first: int) -> tuple[int, int, int]:
        return _count_outcomes(q, la, mb, seed, n_samples, blocks[first::workers], stop)

    if workers == 1:
        counts = [count(0)]
    else:
        # imported here so that CLI start-up does not load it; numpy releases
        # the GIL in the draws and ufuncs, so the threads run in parallel
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            try:
                counts = list(pool.map(count, range(workers)))
            finally:
                # a failed worker or an interrupt ends the others' shares
                # at their next block
                stop.set()
    plus_a, plus_b, agree = (sum(c) for c in zip(*counts))
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
