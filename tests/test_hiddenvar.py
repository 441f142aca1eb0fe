import math
import threading
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import random_unit_axis, sphere_direction
from wernerkit import hiddenvar
from wernerkit.decomposition import DecompositionDomainError, local_bloch_norm
from wernerkit.hiddenvar import (
    _BLOCK,
    _SCREEN,
    HvSample,
    _angles,
    _buffers,
    _draw_block,
    _estimate,
    _plus,
    _screen,
    _screen_weights,
    _screened_signs,
    _streams,
    estimate_all,
    outcome_a,
    outcome_b,
)
from wernerkit.separability import correlation
from wernerkit.states import werner

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def _stream(seed, n):
    """The hidden draws estimate_all makes for (seed, n): cos theta, phi,
    lambda_a and lambda_b."""
    u_cos, u_phi, lam_a, lam_b = _draw_block(_streams(seed, n), np.empty((4, n)))
    return (*_angles(u_cos, u_phi), lam_a, lam_b)


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
        cos_t, phi, _, _ = _stream(2024, 1_000_000)
        f_z = cos_t
        f_x = np.sqrt(1.0 - cos_t**2) * np.cos(phi)
        assert abs(np.mean(f_z)) < 5e-3
        assert abs(np.mean(f_z**2) - 1.0 / 3.0) < 5e-3
        assert abs(np.mean(f_x)) < 5e-3
        assert abs(np.mean(f_x**2) - 1.0 / 3.0) < 5e-3


class TestOutcomes:
    def test_q_zero_threshold_is_half(self):
        s_low = HvSample(cos_theta=0.5, phi=2.0, lambda_a=0.49, lambda_b=0.51)
        assert outcome_a(s_low, 0.0, Z_AXIS) == 1
        assert outcome_b(s_low, 0.0, Z_AXIS) == -1

    def test_aligned_axis_at_boundary_always_plus_one(self):
        # q = 1/3 and l = f(theta, phi): threshold is (1 + 1)/2 = 1
        for cos_t, phi, _, lam_b in zip(*_stream(9, 25)):
            axis = sphere_direction(math.acos(cos_t), phi)
            forced = HvSample(cos_t, phi, lambda_a=0.999999, lambda_b=lam_b)
            assert outcome_a(forced, 1.0 / 3.0, axis) == 1

    def test_b_threshold_uses_opposite_vector(self):
        # with b = -a, B accepts below (1 - m.a)/2; at the north pole the
        # local vector is a = sqrt(3q) z
        q = 0.3
        thresh = 0.5 * (1.0 - math.sqrt(3 * q))
        just_below = HvSample(1.0, 0.0, 0.0, thresh - 1e-9)
        just_above = HvSample(1.0, 0.0, 0.0, thresh + 1e-9)
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
        s = HvSample(0.5, 1.0, 0.5, 0.5)
        with pytest.raises(DecompositionDomainError):
            outcome_a(s, 0.5, Z_AXIS)
        with pytest.raises(ValueError, match="unit"):
            outcome_a(s, 0.1, 2 * Z_AXIS)

    @pytest.mark.parametrize(
        "sample, message",
        [
            (HvSample(math.nan, 0.0, 0.5, 0.5), "cos_theta must be in [-1, 1], got nan"),
            (HvSample(math.inf, 0.0, 0.5, 0.5), "cos_theta must be in [-1, 1], got inf"),
            (HvSample(np.nextafter(-1.0, -2.0), 0.0, 0.5, 0.5),
             "cos_theta must be in [-1, 1], got -1.0000000000000002"),
            (HvSample(0.0, 2.0 * math.pi, 0.5, 0.5), "phi must be in [0, 2pi), got 6.283185307179586"),
            (HvSample(0.0, -5e-324, 0.5, 0.5), "phi must be in [0, 2pi), got -5e-324"),
            (HvSample(0.0, -math.inf, 0.5, 0.5), "phi must be in [0, 2pi), got -inf"),
            (HvSample(0.0, 0.0, 7.0, 0.5), "lambda_a must be in [0, 1], got 7.0"),
            (HvSample(0.0, 0.0, -7.0, 0.5), "lambda_a must be in [0, 1], got -7.0"),
            (HvSample(0.0, 0.0, 0.5, math.nan), "lambda_b must be in [0, 1], got nan"),
            (HvSample(0.0, 0.0, 0.5, np.nextafter(1.0, 2.0)),
             "lambda_b must be in [0, 1], got 1.0000000000000002"),
            (HvSample(np.array([0.1, 0.2]), 0.0, 0.5, 0.5),
             "cos_theta must be a real scalar, got ndarray"),
            (HvSample(np.array(0.5), 0.0, 0.5, 0.5),
             "cos_theta must be a real scalar, got ndarray"),
            (HvSample(True, 0.0, 0.5, 0.5), "cos_theta must be a real scalar, got bool"),
            (HvSample(0.0, False, 0.5, 0.5), "phi must be a real scalar, got bool"),
            (HvSample(0.0, np.bool_(True), 0.5, 0.5), "phi must be a real scalar, got bool"),
            (HvSample("0.5", 0.0, 0.5, 0.5), "cos_theta must be a real scalar, got str"),
            (HvSample(0.0, 0.0, None, 0.5), "lambda_a must be a real scalar, got NoneType"),
            (HvSample(0.0, 0.0, 0.5, 0.5 + 0j), "lambda_b must be a real scalar, got complex"),
            (HvSample(0.0, 0.0, 0.5, Decimal("0.5")),
             "lambda_b must be a real scalar, got Decimal"),
        ],
    )
    def test_a_draw_outside_the_model_is_refused_by_its_field(self, sample, message):
        # both parties refuse every field, before q, the axis or any
        # arithmetic is looked at, so no numpy warning comes first
        for outcome in (outcome_a, outcome_b):
            for q, axis in ((0.2, Z_AXIS), (0.5, 2 * Z_AXIS)):
                with pytest.raises(ValueError) as info:
                    outcome(sample, q, axis)
                assert str(info.value) == message

    def test_python_and_numpy_real_scalars_are_draws(self):
        s = HvSample(0.25, 1.0, 0.5, 0.75)
        for other in (HvSample(np.float32(0.25), 1, np.float64(0.5), 0.75),
                      HvSample(0.25, np.int64(1), 0.5, np.float16(0.75))):
            assert outcome_a(other, 0.2, X_AXIS) == outcome_a(s, 0.2, X_AXIS)
            assert outcome_b(other, 0.2, X_AXIS) == outcome_b(s, 0.2, X_AXIS)

    def test_the_ends_of_every_range_are_draws(self):
        for cos_t in (-1.0, 1.0):
            for phi in (0.0, np.nextafter(2.0 * math.pi, 0.0)):
                for lam in (0.0, 1.0):
                    s = HvSample(cos_t, phi, lam, lam)
                    assert outcome_a(s, 0.2, X_AXIS) in (-1, 1)
                    assert outcome_b(s, 0.2, X_AXIS) in (-1, 1)


class TestEstimateCorrelation:
    """The correlation estimate_all gives."""

    def test_determinism(self):
        kwargs = dict(n_samples=10_000, seed=314)
        first = estimate_all(0.2, X_AXIS, X_AXIS, **kwargs)
        second = estimate_all(0.2, X_AXIS, X_AXIS, **kwargs)
        assert first == second

    def test_q_zero_uncorrelated(self):
        est = estimate_all(0.0, Z_AXIS, Z_AXIS, 1_000_000, seed=5).correlation
        assert abs(est.mean) <= 5 * est.std_error

    def test_q_03_aligned(self):
        est = estimate_all(0.3, Z_AXIS, Z_AXIS, 1_000_000, seed=6).correlation
        assert abs(est.mean - (-0.3)) <= 5 * est.std_error

    def test_boundary_orthogonal(self):
        est = estimate_all(1.0 / 3.0, X_AXIS, Y_AXIS, 1_000_000, seed=7).correlation
        assert abs(est.mean) <= 5 * est.std_error

    def test_agreement_with_quantum_prediction(self):
        rng = np.random.default_rng(73)
        axis_pairs = [(X_AXIS, X_AXIS), (Z_AXIS, Z_AXIS), (X_AXIS, Y_AXIS)]
        axis_pairs += [(random_unit_axis(rng), random_unit_axis(rng)) for _ in range(3)]
        for qi, q in enumerate([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0]):
            rho = werner(q)
            for pi, (l, m) in enumerate(axis_pairs):
                est = estimate_all(q, l, m, 200_000, seed=1000 + 10 * qi + pi).correlation
                target = correlation(rho, l, m)
                band = 5 * max(est.std_error, 1e-12)
                assert abs(est.mean - target) <= band, (q, l, m)

    def test_std_error_scales_as_inverse_sqrt_n(self):
        ses = {
            n: estimate_all(0.2, Z_AXIS, Z_AXIS, n, seed=88).correlation.std_error
            for n in (10_000, 100_000, 1_000_000)
        }
        for n_small, n_big in [(10_000, 100_000), (100_000, 1_000_000)]:
            ratio = ses[n_small] / ses[n_big]
            assert math.sqrt(10) / 2 < ratio < 2 * math.sqrt(10)

    def test_mean_bounded_by_one(self):
        est = estimate_all(1.0 / 3.0, Z_AXIS, Z_AXIS, 1000, seed=1).correlation
        assert abs(est.mean) <= 1.0

    def test_single_sample(self):
        est = estimate_all(0.1, Z_AXIS, Z_AXIS, 1, seed=0).correlation
        assert est.std_error == 0.0
        assert est.mean in (-1.0, 1.0)

    def test_validation(self):
        with pytest.raises(DecompositionDomainError):
            estimate_all(0.5, Z_AXIS, Z_AXIS, 100, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_all(0.1, Z_AXIS, Z_AXIS, 0, seed=0)
        with pytest.raises(ValueError, match="unit"):
            estimate_all(0.1, 2 * Z_AXIS, Z_AXIS, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # a wider seed would otherwise alias the stream of another seed
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            estimate_all(0.1, Z_AXIS, Z_AXIS, 10, seed=seed)

    def test_64_bit_seed_range_ends_are_distinct_streams(self):
        low = estimate_all(0.1, Z_AXIS, X_AXIS, 1000, seed=0)
        high = estimate_all(0.1, Z_AXIS, X_AXIS, 1000, seed=2**64 - 1)
        assert low.correlation.mean != high.correlation.mean


class TestEstimateLocal:
    """The marginals estimate_all gives."""

    @pytest.mark.parametrize(
        "q,axis,side",
        [
            (0.2, X_AXIS, "A"),
            (0.0, Z_AXIS, "A"),
            (1.0 / 3.0, Z_AXIS, "B"),
        ],
    )
    def test_marginals_vanish(self, q, axis, side):
        est = estimate_all(q, axis, axis, 1_000_000, seed=11)
        marginal = est.marginal_a if side == "A" else est.marginal_b
        assert abs(marginal.mean) <= 5 * marginal.std_error

    def test_determinism(self):
        a = estimate_all(0.1, Y_AXIS, Y_AXIS, 20_000, seed=2).marginal_b
        b = estimate_all(0.1, Y_AXIS, Y_AXIS, 20_000, seed=2).marginal_b
        assert a == b

    def test_a_and_b_differ_for_same_seed(self):
        # same hidden draws, opposite local vectors
        est = estimate_all(0.3, Z_AXIS, Z_AXIS, 50_000, seed=3)
        assert est.marginal_a.mean != est.marginal_b.mean

    def test_validation(self):
        with pytest.raises(DecompositionDomainError):
            estimate_all(0.4, Z_AXIS, Z_AXIS, 100, seed=0)

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param((0.1, 2 * Z_AXIS, Z_AXIS, 10, 0),
                         "axis_a must be a finite unit vector, got norm 2.0", id="axis_a-norm"),
            pytest.param((0.1, Z_AXIS, 2 * Z_AXIS, 10, 0),
                         "axis_b must be a finite unit vector, got norm 2.0", id="axis_b-norm"),
            pytest.param((0.1, Z_AXIS, (0, 0), 10, 0),
                         "axis_b must be a real 3-vector, got shape (2,)", id="axis_b-shape"),
            pytest.param((0.1, Z_AXIS, Z_AXIS, 10, -1),
                         "seed must be in [0, 2**64), got -1", id="seed-negative"),
            pytest.param((0.1, Z_AXIS, Z_AXIS, 10, 2**64),
                         f"seed must be in [0, 2**64), got {2**64}", id="seed-wide"),
            pytest.param((0.1, Z_AXIS, Z_AXIS, 0, 0),
                         "n_samples must be >= 1, got 0", id="count-zero"),
            pytest.param((0.1, Z_AXIS, Z_AXIS, -3, 0),
                         "n_samples must be >= 1, got -3", id="count-negative"),
        ],
    )
    def test_error_text(self, args, message):
        # every error names the argument it refuses
        with pytest.raises(ValueError) as info:
            estimate_all(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("huge, norm", [([1e200, 0.0, 0.0], "1e+200"),
                                            ([0.0, 0.0, -1e300], "1e+300")])
    def test_a_huge_axis_is_refused_by_its_true_norm(self, huge, norm):
        # |v|^2 overflows, but the axis is finite: the error names its norm,
        # not inf, with no numpy warning first
        calls = [
            lambda: correlation(werner(0.2), huge, Z_AXIS),
            lambda: estimate_all(0.2, huge, Z_AXIS, 10, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"axis_a must be a finite unit vector, got norm {norm}"


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
    @pytest.mark.parametrize(
        "n_samples", [2, 3, 1000, 100_003, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
    )
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

    def test_outcome_functions_sum_to_the_counts_of_a_seeded_block(self):
        # outcome_a and outcome_b, applied draw by draw to one seeded block,
        # give the counts the sampler gives
        rng = np.random.default_rng(31)
        n = 2000
        for q in (0.0, 0.15, 1.0 / 3.0):
            l, m = random_unit_axis(rng), random_unit_axis(rng)
            samples = [HvSample(*draw) for draw in zip(*_stream(5, n))]
            a = np.array([outcome_a(s, q, l) for s in samples])
            b = np.array([outcome_b(s, q, m) for s in samples])
            est = estimate_all(q, l, m, n, seed=5)
            assert est.correlation.mean == float(np.mean(a * b))
            assert est.marginal_a.mean == float(np.mean(a))
            assert est.marginal_b.mean == float(np.mean(b))

    def test_the_largest_draw_gives_phi_below_2pi(self):
        # numpy's uniform(0, 2pi) is 0 + 2pi u with u <= 1 - 2^-53, and the
        # largest u rounds to the double below 2pi, so phi never wraps
        top = 1.0 - 2.0**-53
        assert _angles(np.array([top]), np.array([top]))[1][0] == np.nextafter(2.0 * math.pi, 0.0)
        u = 1.0 - np.arange(1, (1 << 20) + 1) * 2.0**-53
        assert np.all(_angles(u, u)[1] < 2.0 * math.pi)

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_buffer_filled_blocks_equal_the_uniform_draws(self, n):
        # blocks drawn in order into one reused buffer, their cos theta and
        # phi mapped from the raw draws, are the stream's uniform draws bit
        # for bit
        stream = np.random.default_rng([55, 0])
        expected = [
            stream.uniform(-1.0, 1.0, n),
            stream.uniform(0.0, 2.0 * math.pi, n),
            stream.random(n),
            stream.random(n),
        ]
        streams = _streams(55, n)
        buf = np.full((4, _BLOCK), np.nan)
        got = np.empty((4, n))
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            u_cos, u_phi, lam_a, lam_b = _draw_block(streams, buf[:, :m])
            got[:, start : start + m] = (*_angles(u_cos, u_phi), lam_a, lam_b)
        for row, want in zip(got, expected):
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))

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
        # each estimate draws every block of its stream once, in order
        sizes = []
        draw_block = hiddenvar._draw_block

        def counting(streams, out):
            sizes.append(out.shape[1])
            return draw_block(streams, out)

        monkeypatch.setattr(hiddenvar, "_draw_block", counting)
        monkeypatch.setattr(hiddenvar, "_BLOCK", 400)
        estimate_all(0.2, Z_AXIS, X_AXIS, 1003, seed=1)
        assert sizes == [400, 400, 203]

    def test_blocks_do_not_change_the_counts(self, monkeypatch):
        # the draws are streamed and counted block by block; any block size
        # gives the same counts
        args = (0.3, Z_AXIS, random_unit_axis(np.random.default_rng(8)), 5000, 12)
        whole = estimate_all(*args)
        monkeypatch.setattr(hiddenvar, "_BLOCK", 7)
        assert estimate_all(*args) == whole

    def test_one_count_on_the_callers_thread_in_stream_order(self, monkeypatch):
        # a many-block estimate counts once, on the thread that asked, and
        # its blocks, joined in the order they are drawn, are the stream
        count_outcomes, draw_block = hiddenvar._count_outcomes, hiddenvar._draw_block
        count_threads, draw_threads, blocks = [], [], []

        def recording_count(*args):
            count_threads.append(threading.get_ident())
            return count_outcomes(*args)

        def recording_draw(streams, out):
            draw_threads.append(threading.get_ident())
            blocks.append(draw_block(streams, out).copy())
            return out

        monkeypatch.setattr(hiddenvar, "_count_outcomes", recording_count)
        monkeypatch.setattr(hiddenvar, "_draw_block", recording_draw)
        monkeypatch.setattr(hiddenvar, "_BLOCK", 1000)
        rng = np.random.default_rng(12)
        estimate_all(0.25, random_unit_axis(rng), random_unit_axis(rng), 10_007, 3)
        caller = threading.get_ident()
        assert count_threads == [caller]
        assert draw_threads == [caller] * 11
        drawn = np.concatenate(blocks, axis=1)
        # the stream's uniforms: every cos theta's, then every phi's,
        # lambda_a and lambda_b
        expected = np.random.default_rng([3, 0]).random((4, 10_007))
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    def test_a_failing_block_ends_the_estimate(self, monkeypatch):
        # the error of the third block reaches the caller, and no later
        # block is drawn
        draw_block = hiddenvar._draw_block
        sizes = []

        def failing(streams, out):
            sizes.append(out.shape[1])
            if len(sizes) == 3:
                raise RuntimeError("block failed")
            return draw_block(streams, out)

        monkeypatch.setattr(hiddenvar, "_draw_block", failing)
        monkeypatch.setattr(hiddenvar, "_BLOCK", 100)
        with pytest.raises(RuntimeError, match="block failed"):
            estimate_all(0.2, Z_AXIS, X_AXIS, 1_000_000, 1)
        assert sizes == [100, 100, 100]

    def test_peak_memory_is_a_few_blocks(self):
        # an estimate holds its block buffers, about 2.1 MB, and a few
        # arrays as long as its near draws; 4 * 10^6 draws peak far below
        # the 128 MB of draws held whole
        tracemalloc.start()
        try:
            estimate_all(0.2, Z_AXIS, X_AXIS, 4_000_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_refuses_more_than_the_sample_cap(self):
        with pytest.raises(ValueError, match=f"at most {hiddenvar.MAX_SAMPLES}, got"):
            estimate_all(0.2, Z_AXIS, X_AXIS, hiddenvar.MAX_SAMPLES + 1, 1)


def _float64_thresholds(signed_radius, axis, sin_t, cos_t, phi):
    """The thresholds every draw is decided by: (1 + r axis.f)/2 in float64,
    in the sampler's order of operations, from float64 cos and sin of phi."""
    dot = (np.cos(phi) * axis[0] + np.sin(phi) * axis[1]) * sin_t + cos_t * axis[2]
    return (dot * signed_radius + 1.0) * 0.5


def _screened_outcomes(radius, axis_a, axis_b, draws):
    """Both parties' outcomes for the raw draws (4, n) as the sampler decides
    them: the screened signs, with the columns near a threshold decided
    again in float64."""
    _, features, screened, plus = _buffers(draws.shape[1])
    weights = _screen_weights(radius, axis_a, axis_b)
    plus, near = _screened_signs(weights, draws, features, screened, plus)
    cos_t, phi = _angles(draws[0, near], draws[1, near])
    plus[0, near] = _plus(radius, axis_a, cos_t, phi, draws[2, near])
    plus[1, near] = _plus(-radius, axis_b, cos_t, phi, draws[3, near])
    return plus


class TestThresholdScreen:
    """The sampler screens each party's threshold minus its lambda in float32
    and decides the draws within _SCREEN of a threshold again in float64;
    the decisions are those of float64 thresholds throughout."""

    def test_draws_on_and_next_to_a_threshold(self):
        rng = np.random.default_rng(140)
        n = 4000
        u_cos, u_phi = rng.random(n), rng.random(n)
        # both poles, and the largest and smallest phi: nextafter(2pi, 0), 0
        u_cos[:4] = [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52]
        u_phi[:2] = [1.0 - 2.0**-53, 0.0]
        cos_t, phi = _angles(u_cos, u_phi)
        assert phi[:2].tolist() == [np.nextafter(2.0 * math.pi, 0.0), 0.0]
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        axes = [X_AXIS, Y_AXIS, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)]
        axes += [random_unit_axis(rng) for _ in range(5)]
        radii = [local_bloch_norm(q) for q in (1.0 / 3.0, float(rng.uniform(0.0, 1.0 / 3.0)))]
        for axis in axes:
            for radius in radii:
                # A's threshold takes +radius and B's -radius
                exact = np.array([
                    _float64_thresholds(signed_radius, axis, sin_t, cos_t, phi)
                    for signed_radius in (radius, -radius)
                ])
                # lam on the threshold, its neighbouring doubles, the screen's
                # edges with theirs, and a point between
                lams = [exact, exact + 1e-7, exact + _SCREEN, exact - _SCREEN]
                lams += [np.nextafter(lam, side) for lam in lams for side in (-1.0, 2.0)]
                for lam in lams:
                    draws = np.vstack([u_cos, u_phi, lam])
                    plus = _screened_outcomes(radius, axis, axis, draws)
                    assert np.array_equal(plus, lam <= exact)

    def test_outcome_functions_decide_every_draw_as_the_sampler(self, monkeypatch):
        # lambda on each party's float64 threshold, one double to either
        # side and _SCREEN from it, at both poles and both ends of phi: the
        # per-draw functions and the sampler decide each draw alike, and
        # the sampler's own loop counts those decisions
        rng = np.random.default_rng(143)
        n = 300
        u_cos, u_phi = rng.random(n), rng.random(n)
        u_cos[:6] = [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0, 0.0, 1.0]
        u_phi[:6] = [0.0, 1.0 - 2.0**-53, 0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-53, 0.0]
        cos_t, phi = _angles(u_cos, u_phi)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)

        def placed_draws(streams, out):
            out[...] = draws
            return out

        monkeypatch.setattr(hiddenvar, "_draw_block", placed_draws)
        for q in (1.0 / 3.0, 0.2, 0.05):
            radius = local_bloch_norm(q)
            l, m = random_unit_axis(rng), random_unit_axis(rng)
            exact = np.array([
                _float64_thresholds(radius, l, sin_t, cos_t, phi),
                _float64_thresholds(-radius, m, sin_t, cos_t, phi),
            ])
            placed = [exact, exact + _SCREEN, exact - _SCREEN]
            placed += [np.nextafter(exact, side) for side in (-1.0, 2.0)]
            for lam in placed:
                lam = np.clip(lam, 0.0, 1.0)
                draws = np.vstack([u_cos, u_phi, lam])
                plus = _screened_outcomes(radius, l, m, draws)
                assert np.array_equal(plus, lam <= exact)
                samples = [HvSample(*draw) for draw in zip(cos_t, phi, *lam)]
                a = np.array([outcome_a(s, q, l) for s in samples])
                b = np.array([outcome_b(s, q, m) for s in samples])
                assert np.array_equal(a == 1, plus[0])
                assert np.array_equal(b == 1, plus[1])
                est = estimate_all(q, l, m, n, seed=0)
                assert est.marginal_a.mean == float(np.mean(a))
                assert est.marginal_b.mean == float(np.mean(b))
                assert est.correlation.mean == float(np.mean(a * b))

    def test_screened_differences_are_well_inside_the_screen(self):
        # measures the margin of the whole float32 screen, threshold minus
        # lambda, at the largest radius: over a dense sweep of phi, at
        # cos theta = -1 and 1 (u = 1, never drawn) and their neighbouring
        # draws, at both ends of phi, and with lambda's rounding near 0 and 1
        rng = np.random.default_rng(15)
        sweep = 1 << 17
        step = np.arange(8) * 2.0**-53
        poles = np.concatenate([step, 1.0 - step, [0.5]])
        ends = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
        u_cos = np.concatenate([np.repeat(poles, ends.size), rng.random(sweep)])
        phi_sweep = np.linspace(0.0, 1.0 - 2.0**-53, sweep)
        u_phi = np.concatenate([np.tile(ends, poles.size), phi_sweep])
        lam = rng.random((2, u_cos.size))
        lam[:, :4] = [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-25]
        draws = np.vstack([u_cos, u_phi, lam])
        cos_t, phi = _angles(u_cos, u_phi)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        _, features, screened, _ = _buffers(draws.shape[1])
        radius = local_bloch_norm(1.0 / 3.0)
        axes = [X_AXIS, Y_AXIS, Z_AXIS, np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)]
        axes += [random_unit_axis(rng) for _ in range(4)]
        worst = 0.0
        for axis_a, axis_b in zip(axes, axes[::-1]):
            diff = _screen(_screen_weights(radius, axis_a, axis_b), draws, features, screened)
            exact = [
                _float64_thresholds(radius, axis_a, sin_t, cos_t, phi) - lam[0],
                _float64_thresholds(-radius, axis_b, sin_t, cos_t, phi) - lam[1],
            ]
            worst = max(worst, float(np.max(np.abs(diff - np.array(exact)))))
        assert worst <= _SCREEN / 16

    @pytest.mark.parametrize("screen", [2.0, 0.01])
    def test_a_wider_screen_gives_the_same_counts(self, monkeypatch, screen):
        # every draw, or about 4% of them, decided again in float64: the
        # counts stay those of the float64 thresholds
        rng = np.random.default_rng(142)
        args = (1.0 / 3.0, random_unit_axis(rng), random_unit_axis(rng), 10_007, 142)
        expected = estimate_all(*args)
        monkeypatch.setattr(hiddenvar, "_SCREEN", screen)
        monkeypatch.setattr(hiddenvar, "_BLOCK", 1000)
        assert estimate_all(*args) == expected

    def test_float64_trig_of_a_subset_equals_the_block_at_its_indices(self):
        # the draws decided again get the cos and sin the whole block gives
        _, phi, _, _ = _stream(14, _BLOCK)
        rng = np.random.default_rng(14)
        subsets = [np.sort(rng.choice(_BLOCK, k, replace=False)) for k in (1, 2, 3, 7, 9, 63, 1000)]
        subsets += [np.arange(_BLOCK - k, _BLOCK) for k in (1, 5, 17)]
        for trig in (np.cos, np.sin):
            whole = trig(phi)
            for idx in subsets:
                assert np.array_equal(whole[idx].view(np.uint64), trig(phi[idx]).view(np.uint64))

    def test_a_million_draws_decide_some_again(self, monkeypatch):
        # the float64 fallback runs at this size, about 2 * _SCREEN of the
        # draws per party, and the counts still match the float64 reference
        plus = hiddenvar._plus
        again = []

        def recording(signed_radius, axis, cos_t, phi, lam):
            again.append(phi.size)
            return plus(signed_radius, axis, cos_t, phi, lam)

        monkeypatch.setattr(hiddenvar, "_plus", recording)
        rng = np.random.default_rng(141)
        l, m = random_unit_axis(rng), random_unit_axis(rng)
        n = 10**6
        est = estimate_all(1.0 / 3.0, l, m, n, 141)
        assert 1 <= sum(again) <= 20 * 2 * _SCREEN * n * 2
        corr, marg_a, marg_b = _three_pass_reference(1.0 / 3.0, l, m, n, 141)
        _assert_matches(est.correlation, corr)
        _assert_matches(est.marginal_a, marg_a)
        _assert_matches(est.marginal_b, marg_b)
