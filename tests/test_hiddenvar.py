import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import random_unit_axis
from wernerkit import hiddenvar
from wernerkit.decomposition import DecompositionDomainError, sphere_direction
from wernerkit.hiddenvar import (
    HvSample,
    _draw_batch,
    _estimate,
    estimate_all,
    estimate_correlation,
    estimate_local,
    outcome_a,
    outcome_b,
)
from wernerkit.separability import correlation
from wernerkit.states import werner

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def _stream(seed, n):
    """The hidden draws estimate_all makes for (seed, n)."""
    return _draw_batch(np.random.default_rng([seed, 0]), n)


class TestSampling:
    def test_fixed_seed_reproduces_stream(self):
        for first, second in zip(_stream(42, 50), _stream(42, 50)):
            assert np.array_equal(first, second)

    def test_sample_ranges(self):
        cos_t, phi, lam_a, lam_b = _stream(0, 1000)
        theta = np.arccos(cos_t)
        assert np.all((0.0 <= theta) & (theta <= math.pi))
        assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi))
        assert np.all((0.0 <= lam_a) & (lam_a <= 1.0))
        assert np.all((0.0 <= lam_b) & (lam_b <= 1.0))

    def test_sphere_moments(self):
        # direction statistics of 10^6 draws: first moment 0, second moment 1/3
        cos_t, phi, _, _ = _draw_batch(np.random.default_rng(2024), 1_000_000)
        f_z = cos_t
        f_x = np.sqrt(1.0 - cos_t**2) * np.cos(phi)
        assert abs(np.mean(f_z)) < 5e-3
        assert abs(np.mean(f_z**2) - 1.0 / 3.0) < 5e-3
        assert abs(np.mean(f_x)) < 5e-3
        assert abs(np.mean(f_x**2) - 1.0 / 3.0) < 5e-3


class TestOutcomes:
    def test_q_zero_threshold_is_half(self):
        s_low = HvSample(theta=1.0, phi=2.0, lambda_a=0.49, lambda_b=0.51)
        assert outcome_a(s_low, 0.0, Z_AXIS) == 1
        assert outcome_b(s_low, 0.0, Z_AXIS) == -1

    def test_aligned_axis_at_boundary_always_plus_one(self):
        # q = 1/3 and l = f(theta, phi): threshold is (1 + 1)/2 = 1
        for cos_t, phi, _, lam_b in zip(*_stream(9, 25)):
            theta = math.acos(cos_t)
            axis = sphere_direction(theta, phi)
            forced = HvSample(theta, phi, lambda_a=0.999999, lambda_b=lam_b)
            assert outcome_a(forced, 1.0 / 3.0, axis) == 1

    def test_b_threshold_uses_opposite_vector(self):
        # with b = -a, B accepts below (1 - m.a)/2; at the north pole the
        # local vector is a = sqrt(3q) z
        q = 0.3
        thresh = 0.5 * (1.0 - math.sqrt(3 * q))
        just_below = HvSample(0.0, 0.0, 0.0, thresh - 1e-9)
        just_above = HvSample(0.0, 0.0, 0.0, thresh + 1e-9)
        assert outcome_b(just_below, q, Z_AXIS) == 1
        assert outcome_b(just_above, q, Z_AXIS) == -1

    def test_conditional_means_per_cell(self):
        # freeze (theta, phi); the lambda average must reproduce l.a and the
        # product must factorize into (l.a)(m.b)
        q = 0.25
        radius = math.sqrt(3 * q)
        rng = np.random.default_rng(17)
        cells = [(0.4, 0.3), (1.2, 2.2), (2.0, 4.0), (2.8, 5.5), (1.5707, 0.0)]
        n = 40_000
        for theta, phi in cells:
            axis_l = random_unit_axis(rng)
            axis_m = random_unit_axis(rng)
            f = sphere_direction(theta, phi)
            target_a = radius * float(np.dot(axis_l, f))
            target_b = -radius * float(np.dot(axis_m, f))
            lam_a = rng.random(n)
            lam_b = rng.random(n)
            out_a = np.where(lam_a <= 0.5 * (1 + target_a), 1.0, -1.0)
            out_b = np.where(lam_b <= 0.5 * (1 + target_b), 1.0, -1.0)
            prod = out_a * out_b
            se = np.std(prod, ddof=1) / math.sqrt(n)
            assert abs(np.mean(prod) - target_a * target_b) <= 5 * se
            se_a = np.std(out_a, ddof=1) / math.sqrt(n)
            assert abs(np.mean(out_a) - target_a) <= 5 * max(se_a, 1e-12)

    def test_domain_and_axis_validation(self):
        s = HvSample(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(DecompositionDomainError):
            outcome_a(s, 0.5, Z_AXIS)
        with pytest.raises(ValueError, match="unit"):
            outcome_a(s, 0.1, 2 * Z_AXIS)


class TestEstimateCorrelation:
    def test_determinism(self):
        kwargs = dict(n_samples=10_000, seed=314)
        first = estimate_correlation(0.2, X_AXIS, X_AXIS, **kwargs)
        second = estimate_correlation(0.2, X_AXIS, X_AXIS, **kwargs)
        assert first == second

    def test_q_zero_uncorrelated(self):
        est = estimate_correlation(0.0, Z_AXIS, Z_AXIS, 1_000_000, seed=5)
        assert abs(est.mean) <= 5 * est.std_error

    def test_q_03_aligned(self):
        est = estimate_correlation(0.3, Z_AXIS, Z_AXIS, 1_000_000, seed=6)
        assert abs(est.mean - (-0.3)) <= 5 * est.std_error

    def test_boundary_orthogonal(self):
        est = estimate_correlation(1.0 / 3.0, X_AXIS, Y_AXIS, 1_000_000, seed=7)
        assert abs(est.mean) <= 5 * est.std_error

    def test_agreement_with_quantum_prediction(self):
        rng = np.random.default_rng(73)
        axis_pairs = [(X_AXIS, X_AXIS), (Z_AXIS, Z_AXIS), (X_AXIS, Y_AXIS)]
        axis_pairs += [(random_unit_axis(rng), random_unit_axis(rng)) for _ in range(3)]
        for qi, q in enumerate([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0]):
            rho = werner(q)
            for pi, (l, m) in enumerate(axis_pairs):
                est = estimate_correlation(q, l, m, 200_000, seed=1000 + 10 * qi + pi)
                target = correlation(rho, l, m)
                band = 5 * max(est.std_error, 1e-12)
                assert abs(est.mean - target) <= band, (q, l, m)

    def test_std_error_scales_as_inverse_sqrt_n(self):
        ses = {
            n: estimate_correlation(0.2, Z_AXIS, Z_AXIS, n, seed=88).std_error
            for n in (10_000, 100_000, 1_000_000)
        }
        for n_small, n_big in [(10_000, 100_000), (100_000, 1_000_000)]:
            ratio = ses[n_small] / ses[n_big]
            assert math.sqrt(10) / 2 < ratio < 2 * math.sqrt(10)

    def test_mean_bounded_by_one(self):
        est = estimate_correlation(1.0 / 3.0, Z_AXIS, Z_AXIS, 1000, seed=1)
        assert abs(est.mean) <= 1.0

    def test_single_sample(self):
        est = estimate_correlation(0.1, Z_AXIS, Z_AXIS, 1, seed=0)
        assert est.std_error == 0.0
        assert est.mean in (-1.0, 1.0)

    def test_validation(self):
        with pytest.raises(DecompositionDomainError):
            estimate_correlation(0.5, Z_AXIS, Z_AXIS, 100, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_correlation(0.1, Z_AXIS, Z_AXIS, 0, seed=0)
        with pytest.raises(ValueError, match="unit"):
            estimate_correlation(0.1, 2 * Z_AXIS, Z_AXIS, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # a wider seed would otherwise alias the stream of another seed
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            estimate_correlation(0.1, Z_AXIS, Z_AXIS, 10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            estimate_local(0.1, Z_AXIS, "A", 10, seed=seed)

    def test_64_bit_seed_range_ends_are_distinct_streams(self):
        low = estimate_correlation(0.1, Z_AXIS, X_AXIS, 1000, seed=0)
        high = estimate_correlation(0.1, Z_AXIS, X_AXIS, 1000, seed=2**64 - 1)
        assert low.mean != high.mean


class TestEstimateLocal:
    @pytest.mark.parametrize(
        "q,axis,side",
        [
            (0.2, X_AXIS, "A"),
            (0.0, Z_AXIS, "A"),
            (1.0 / 3.0, Z_AXIS, "B"),
        ],
    )
    def test_marginals_vanish(self, q, axis, side):
        est = estimate_local(q, axis, side, 1_000_000, seed=11)
        assert abs(est.mean) <= 5 * est.std_error

    def test_determinism(self):
        a = estimate_local(0.1, Y_AXIS, "B", 20_000, seed=2)
        b = estimate_local(0.1, Y_AXIS, "B", 20_000, seed=2)
        assert a == b

    def test_a_and_b_differ_for_same_seed(self):
        # same hidden draws, opposite local vectors
        a = estimate_local(0.3, Z_AXIS, "A", 50_000, seed=3)
        b = estimate_local(0.3, Z_AXIS, "B", 50_000, seed=3)
        assert a.mean != b.mean

    def test_validation(self):
        with pytest.raises(ValueError, match="subsystem"):
            estimate_local(0.1, Z_AXIS, "C", 100, seed=0)
        with pytest.raises(DecompositionDomainError):
            estimate_local(0.4, Z_AXIS, "A", 100, seed=0)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: estimate_local(0.1, 2 * Z_AXIS, "A", 10, 0),
                         "axis must be a finite unit vector, got norm 2.0", id="local-axis"),
            pytest.param(lambda: estimate_correlation(0.1, 2 * Z_AXIS, Z_AXIS, 10, 0),
                         "axis_a must be a finite unit vector, got norm 2.0",
                         id="correlation-axis_a"),
            pytest.param(lambda: estimate_correlation(0.1, Z_AXIS, (0, 0), 10, 0),
                         "axis_b must be a real 3-vector, got shape (2,)",
                         id="correlation-axis_b"),
            pytest.param(lambda: estimate_local(0.1, Z_AXIS, "AB", 10, 0),
                         "subsystem must be 'A' or 'B', got 'AB'", id="local-subsystem"),
            pytest.param(lambda: estimate_local(0.1, Z_AXIS, "B", 10, -1),
                         "seed must be in [0, 2**64), got -1", id="local-seed"),
            pytest.param(lambda: estimate_correlation(0.1, Z_AXIS, Z_AXIS, 10, 2**64),
                         f"seed must be in [0, 2**64), got {2**64}", id="correlation-seed"),
            pytest.param(lambda: estimate_local(0.1, Z_AXIS, "A", 0, 0),
                         "n_samples must be >= 1, got 0", id="local-count"),
            pytest.param(lambda: estimate_correlation(0.1, Z_AXIS, Z_AXIS, -3, 0),
                         "n_samples must be >= 1, got -3", id="correlation-count"),
        ],
    )
    def test_error_text(self, call, message):
        # the single-estimate views name their own arguments in every error
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def _three_pass_reference(q, axis_a, axis_b, n_samples, seed):
    """The float computation the counting kernel replaced, kept here as its
    oracle: one pass over the seeded draws per estimate, each building the
    (n, 3) directions and +/-1 outcome arrays.  Returns (mean, std_error) of
    the correlation and of both marginals."""
    radius = math.sqrt(3.0 * q)

    def one_pass(combine):
        rng = np.random.default_rng([seed, 0])
        cos_t = rng.uniform(-1.0, 1.0, n_samples)
        phi = rng.uniform(0.0, 2.0 * math.pi, n_samples) % (2.0 * math.pi)
        lam_a = rng.random(n_samples)
        lam_b = rng.random(n_samples)
        sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
        f = np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t))
        out_a = np.where(lam_a <= 0.5 * (1.0 + radius * (f @ axis_a)), 1.0, -1.0)
        out_b = np.where(lam_b <= 0.5 * (1.0 + -radius * (f @ axis_b)), 1.0, -1.0)
        values = combine(out_a, out_b)
        mean = float(np.mean(values))
        return mean, float(np.std(values, ddof=1)) / math.sqrt(n_samples)

    return (
        one_pass(lambda a, b: a * b),
        one_pass(lambda a, b: a),
        one_pass(lambda a, b: b),
    )


def _assert_matches(est, reference):
    mean, std_error = reference
    assert est.mean == mean
    assert abs(est.std_error - std_error) <= 4.5e-16 * std_error


class TestCountingKernel:
    @pytest.mark.parametrize("n_samples", [2, 3, 1000, 100_003])
    def test_matches_three_pass_float_reference(self, n_samples):
        rng = np.random.default_rng(20_001 + 10 * n_samples)
        for q in (0.0, 1.0 / 3.0, float(rng.uniform(0.0, 1.0 / 3.0))):
            l, m = random_unit_axis(rng), random_unit_axis(rng)
            seed = int(rng.integers(0, 2**63))
            corr, marg_a, marg_b = _three_pass_reference(q, l, m, n_samples, seed)
            est = estimate_all(q, l, m, n_samples, seed)
            _assert_matches(est.correlation, corr)
            _assert_matches(est.marginal_a, marg_a)
            _assert_matches(est.marginal_b, marg_b)
            # the single-estimate views read the same counts
            assert estimate_correlation(q, l, m, n_samples, seed) == est.correlation
            assert estimate_local(q, l, "A", n_samples, seed) == est.marginal_a
            assert estimate_local(q, m, "B", n_samples, seed) == est.marginal_b

    def test_matches_scalar_outcome_functions(self):
        # the scalar outcome functions, applied draw by draw to the same
        # stream, give the counts the vectorized kernel gives
        rng = np.random.default_rng(31)
        n = 2000
        for q in (0.0, 0.15, 1.0 / 3.0):
            l, m = random_unit_axis(rng), random_unit_axis(rng)
            draws = _stream(5, n)
            samples = [
                HvSample(math.acos(c), p, a, b) for c, p, a, b in zip(*draws)
            ]
            a = np.array([outcome_a(s, q, l) for s in samples])
            b = np.array([outcome_b(s, q, m) for s in samples])
            est = estimate_all(q, l, m, n, seed=5)
            assert est.correlation.mean == float(np.mean(a * b))
            assert est.marginal_a.mean == float(np.mean(a))
            assert est.marginal_b.mean == float(np.mean(b))

    def test_phi_wraps_like_the_remainder(self):
        # the draw wraps phi = 2pi to 0 without dividing: same values as % 2pi
        rng = np.random.default_rng([77, 0])
        rng.uniform(-1.0, 1.0, 50_000)
        raw = rng.uniform(0.0, 2.0 * math.pi, 50_000)
        _, phi, _, _ = _draw_batch(np.random.default_rng([77, 0]), 50_000)
        assert np.array_equal(phi, raw % (2.0 * math.pi))

        class TopOfRange:
            # a generator whose uniform draws all round up to the high end
            def uniform(self, low, high, n):
                return np.full(n, high)

            def random(self, n):
                return np.zeros(n)

        _, phi, _, _ = _draw_batch(TopOfRange(), 3)
        assert np.array_equal(phi, np.full(3, 2.0 * math.pi) % (2.0 * math.pi))
        assert not np.signbit(phi).any()

    @staticmethod
    def _assert_count_estimate(k, n):
        # mean (2k - n)/n and std_error sqrt(4k(n - k)/(n(n - 1)))/sqrt(n),
        # against 50-digit arithmetic
        est = _estimate(k, n, seed=0)
        assert est.mean == (2 * k - n) / n
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(4 * k * (n - k)) / Decimal(n * n * (n - 1))).sqrt()
            assert abs(Decimal(est.std_error) - exact) <= Decimal(4.5e-16) * exact

    @pytest.mark.parametrize("n", [1000, 100_003, 10**6, 10**9])
    def test_std_error_from_counts_next_to_the_extremes(self, n):
        for k in (0, 1, 2, n // 3, n // 2, n - 2, n - 1, n):
            self._assert_count_estimate(k, n)

    def test_every_count_of_a_small_sample(self):
        for n in range(2, 40):
            for k in range(n + 1):
                self._assert_count_estimate(k, n)
                values = np.where(np.arange(n) < k, 1.0, -1.0)
                assert _estimate(k, n, seed=0).mean == float(np.mean(values))

    def test_one_draw_per_estimate(self, monkeypatch):
        calls = []
        draw_batch = hiddenvar._draw_batch

        def counting(rng, n):
            calls.append(n)
            return draw_batch(rng, n)

        monkeypatch.setattr(hiddenvar, "_draw_batch", counting)
        estimate_all(0.2, Z_AXIS, X_AXIS, 1003, seed=1)
        estimate_correlation(0.2, Z_AXIS, X_AXIS, 1003, seed=1)
        estimate_local(0.2, Z_AXIS, "B", 1003, seed=1)
        assert calls == [1003, 1003, 1003]

    def test_blocks_do_not_change_the_counts(self, monkeypatch):
        # the projection runs block by block over the draws; any block size
        # gives the same counts
        args = (0.3, Z_AXIS, random_unit_axis(np.random.default_rng(8)), 5000, 12)
        whole = estimate_all(*args)
        monkeypatch.setattr(hiddenvar, "_BLOCK", 7)
        assert estimate_all(*args) == whole
