"""Closed forms against hand anchors, the oracle, and each other."""

import math
from fractions import Fraction

import numpy as np
import pytest

from immunochain import analytics, oracle
from immunochain.analytics import (
    ClosedFormReport,
    collection_time_laplace,
    coupon_done_by_draws,
    coupon_done_by_time,
    coupon_tail_bounds,
    hitting_time_mean_asymptotic,
    hitting_time_mean_exact,
    hitting_time_means_exact,
    hitting_time_variance_exact,
    identify_parameters,
    invariant_pmf,
    steady_allones_count,
    steady_allones_count_reports,
    steady_allones_probability,
    transition_time_prediction,
    zero_count_ratio,
    zero_count_ratio_asymptotic,
)
from immunochain.models import MatrixParams, SingleColumnParams

ALPHAS = (0.5, 1.0, 2.0)
PS = (0.1, 0.5, 0.9)


def exact_pmf(params):
    """The stationary law from pi_0 = p/(p + alpha*q) by the ratios
    pi_{k+1}/pi_k = (M-k)/(beta+M-1-k), in integer arithmetic; each entry
    is rounded to a float once."""
    M = params.M
    p, rate = Fraction(params.p), Fraction(params.alpha) * Fraction(params.q)
    beta = p * M / rate
    pi_0 = p / (p + rate)
    num, den = pi_0.numerator, pi_0.denominator
    out = [num / den]
    for k in range(M):
        num *= (M - k) * beta.denominator
        den *= beta.numerator + (M - 1 - k) * beta.denominator
        out.append(num / den)
    return np.array(out)


def assert_matches_exact_product(got, params):
    # Relative 1e-13 wherever the exact entry is above 1e-300; below it
    # an entry may underflow.
    ref = exact_pmf(params)
    live = ref > 1e-300
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref)[live] <= 1e-13 * ref[live]), params
    assert np.all((got[~live] >= 0) & (got[~live] < 1e-290)), params


class TestInvariantPmf:
    def test_two_state_split(self):
        pi = invariant_pmf(SingleColumnParams(M=1, alpha=1.0, p=0.5))
        assert pi == pytest.approx([0.5, 0.5], rel=1e-14)

    def test_three_state_hand_solution(self):
        pi = invariant_pmf(SingleColumnParams(M=2, alpha=1.0, p=0.5))
        assert pi == pytest.approx([1 / 2, 1 / 3, 1 / 6], rel=1e-13)

    def test_pi0_closed_form(self):
        for alpha in ALPHAS:
            for p in PS:
                params = SingleColumnParams(M=9, alpha=alpha, p=p)
                pi = invariant_pmf(params)
                assert pi[0] == pytest.approx(p / (p + alpha * params.q), rel=1e-13)

    @pytest.mark.parametrize("M", [10, 1000, 10_000])
    def test_sums_to_one_even_for_large_m(self, M):
        pi = invariant_pmf(SingleColumnParams(M=M, alpha=1.0, p=0.2))
        assert abs(pi.sum() - 1.0) < 1e-12
        assert (pi >= 0).all()

    @pytest.mark.parametrize("params", [
        SingleColumnParams(M=64, alpha=1e300, p=0.5),  # beta = 6.4e-299, far below M's last digit
        SingleColumnParams(M=64, alpha=1e-306, p=0.5),  # log-Gamma of beta = 6.4e307 overflows
        SingleColumnParams(M=512, alpha=1e-9, p=0.999999999),  # log-Gamma of 5.1e20 has ulp 4e6
    ])
    def test_extreme_beta_keeps_the_law(self, params):
        # Each point defeats a log-Gamma form of the law, which is still
        # well defined there.
        assert_matches_exact_product(invariant_pmf(params), params)

    @pytest.mark.parametrize("M", [1, 2, 7, 64, 200])
    def test_matches_exact_product(self, M):
        for alpha in (1e300, 1e150, 1e9, 2.0, 1.0, 0.5, 1e-9, 1e-150, 1e-300):
            for p in (1e-9, 0.1, 0.5, 0.999999999):
                params = SingleColumnParams(M=M, alpha=alpha, p=p)
                assert_matches_exact_product(invariant_pmf(params), params)

    def test_matches_oracle_on_grid(self):
        for M in range(1, 9):
            for alpha in ALPHAS:
                for p in PS:
                    params = SingleColumnParams(M=M, alpha=alpha, p=p)
                    pi = invariant_pmf(params)
                    ref = oracle.stationary_solve(oracle.single_column_generator(params))
                    assert pi == pytest.approx(ref, rel=1e-10)


class TestZeroCountRatio:
    def test_trivial_and_first_values(self):
        params = SingleColumnParams(M=5, alpha=1.3, p=0.4)
        assert zero_count_ratio(params, 0) == pytest.approx(1.0, rel=1e-14)
        assert zero_count_ratio(params, 1) == pytest.approx(params.a, rel=1e-13)

    def test_hand_value_m2(self):
        params = SingleColumnParams(M=2, alpha=1.0, p=0.5)
        assert zero_count_ratio(params, 1) == pytest.approx(2.0, rel=1e-13)

    def test_equals_pmf_ratio(self):
        params = SingleColumnParams(M=8, alpha=0.7, p=0.3)
        pi = invariant_pmf(params)
        for k in range(params.M + 1):
            assert zero_count_ratio(params, k) == pytest.approx(
                pi[params.M - k] / pi[params.M], rel=1e-10
            )

    def test_power_law_band(self):
        # ratio(k) / k^(a-1) stays inside a fixed band [1/C, C]; C = 2 is
        # recorded by this test and reused by the acceptance suite.
        C = 2.0
        M = 1000
        for a in (0.5, 1.0, 2.0):
            params = SingleColumnParams.with_a(M, a)
            lo = max(2, int(math.ceil(M**0.1)))
            for k in range(lo, M + 1):
                scaled = zero_count_ratio(params, k) / k ** (a - 1.0)
                assert 1.0 / C <= scaled <= C, (a, k, scaled)

    def test_asymptotic_form_converges(self):
        params = SingleColumnParams.with_a(1000, 1.5)
        exact = zero_count_ratio(params, 900)
        asym = zero_count_ratio_asymptotic(params, 900)
        assert exact / asym == pytest.approx(1.0, abs=2e-3)

    def test_out_of_range_rejected(self):
        params = SingleColumnParams(M=3, alpha=1.0, p=0.5)
        with pytest.raises(ValueError):
            zero_count_ratio(params, 4)

    @pytest.mark.parametrize("params, k", [
        # beta = 1e22: lgamma(beta + k) - lgamma(beta) loses every digit.
        (SingleColumnParams(M=10_000, alpha=1e-9, p=0.999999999), 10),
        (SingleColumnParams(M=10_000, alpha=0.5, p=0.9), 40),
    ])
    def test_matches_exact_product(self, params, k):
        beta = Fraction(params.a)
        exact = math.prod((beta + j) / (j + 1) for j in range(k))
        assert abs(Fraction(zero_count_ratio(params, k)) - exact) <= Fraction(1, 10**13) * exact

    def test_overflow_is_refused(self):
        with pytest.raises(OverflowError):
            zero_count_ratio(SingleColumnParams(M=10_000, alpha=1e-9, p=0.999999999), 40)


class TestHittingTimeMean:
    def test_anchor_m1(self):
        assert hitting_time_mean_exact(SingleColumnParams(M=1, alpha=1.0, p=0.5), 0) == 2.0

    def test_anchor_m2(self):
        assert hitting_time_mean_exact(SingleColumnParams(M=2, alpha=1.0, p=0.5), 0) == 10.0

    def test_absorbed_start(self):
        assert hitting_time_mean_exact(SingleColumnParams(M=4, alpha=1.0, p=0.5), 4) == 0.0

    def test_matches_float_oracle_where_well_conditioned(self):
        # The generic dense solve is trustworthy while the moments stay
        # moderate (its condition number scales with the mean itself);
        # the exact-rational oracle covers the astronomical corners.
        for M in (1, 2, 3, 5, 8, 13, 21):
            for alpha in ALPHAS:
                for p in (0.1, 0.5):
                    params = SingleColumnParams(M=M, alpha=alpha, p=p)
                    gen = oracle.single_column_generator(params)
                    ref_mean, _ = oracle.hitting_moments(gen, {M})
                    if ref_mean[0] > 1e7:
                        continue
                    means = hitting_time_means_exact(params)
                    assert means == pytest.approx(ref_mean, rel=1e-9)

    def test_matches_exact_oracle_up_to_m64(self):
        for M in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            for alpha in ALPHAS:
                for p in PS:
                    params = SingleColumnParams(M=M, alpha=alpha, p=p)
                    ref_mean, _ = oracle.single_column_hitting_moments_exact(params)
                    means = hitting_time_means_exact(params)
                    for start in range(M + 1):
                        assert means[start] == pytest.approx(float(ref_mean[start]), rel=1e-9)

    @pytest.mark.parametrize("p", [1e-6, 1e-12, 1e-300, 1e-320])
    def test_keeps_full_precision_as_p_vanishes(self, p):
        # f(0) is summed from positive terms; the old (prod - 1)/p' lost
        # every digit once 1 + a/k rounded to 1.
        params = SingleColumnParams(M=16, alpha=1.0, p=p)
        ref_mean, _ = oracle.single_column_hitting_moments_exact(params, with_second_moment=False)
        means = hitting_time_means_exact(params)
        assert means[:16] == pytest.approx([float(x) for x in ref_mean[:16]], rel=1e-12)

    @pytest.mark.parametrize("params", [
        SingleColumnParams(M=100_000, alpha=1.0, p=0.5),
        SingleColumnParams(M=512, alpha=1e-9, p=0.999999999),  # a = 5e20
    ])
    def test_overflow_raises_value_error(self, params):
        with pytest.raises(ValueError, match="overflows double precision"):
            hitting_time_mean_exact(params, 0)

    def test_exact_oracle_agrees_with_float_oracle(self):
        # the two oracle routes must themselves agree where floats suffice
        params = SingleColumnParams(M=6, alpha=1.0, p=0.3)
        gen = oracle.single_column_generator(params)
        float_mean, float_second = oracle.hitting_moments(gen, {6})
        frac_mean, frac_second = oracle.single_column_hitting_moments_exact(params)
        assert float_mean == pytest.approx([float(x) for x in frac_mean], rel=1e-11)
        assert float_second == pytest.approx([float(x) for x in frac_second], rel=1e-11)

    def test_monotone_decreasing_in_start(self):
        params = SingleColumnParams(M=32, alpha=1.0, p=0.2)
        means = hitting_time_means_exact(params)
        assert (np.diff(means) <= 1e-12).all()

    def test_ratio_band_near_top(self):
        # f(M-1)/f(0) >= 1/(1 + 1/a) - 0.05 once M is large.
        for a in (0.5, 1.0, 2.0):
            for M in (64, 128):
                params = SingleColumnParams.with_a(M, a)
                means = hitting_time_means_exact(params)
                assert means[M - 1] / means[0] >= 1.0 / (1.0 + 1.0 / a) - 0.05


class TestHittingTimeAsymptotic:
    def test_formula_values(self):
        params = SingleColumnParams.with_a(100, 1.0)
        assert hitting_time_mean_asymptotic(params) == pytest.approx(10_000.0, rel=1e-12)
        params = SingleColumnParams.with_a(10, 2.0)
        assert hitting_time_mean_asymptotic(params) == pytest.approx(250.0, rel=1e-12)

    def test_exact_over_asymptotic_monotone_to_one(self):
        ratios = []
        for M in (16, 32, 64, 128, 256, 512, 1024):
            params = SingleColumnParams.with_a(M, 1.0, alpha=1.0)
            ratios.append(
                hitting_time_mean_exact(params, 0) / hitting_time_mean_asymptotic(params)
            )
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.15


    def test_overflow_raises_value_error(self):
        with pytest.raises(ValueError, match="overflows double precision"):
            hitting_time_mean_asymptotic(SingleColumnParams(M=64, alpha=1.0, p=1e-320))


class TestHittingTimeVariance:
    def test_exponential_anchor(self):
        assert hitting_time_variance_exact(SingleColumnParams(M=1, alpha=1.0, p=0.5), 0) == pytest.approx(4.0, rel=1e-13)

    def test_absorbed_start(self):
        assert hitting_time_variance_exact(SingleColumnParams(M=5, alpha=1.0, p=0.5), 5) == 0.0

    def test_matches_exact_oracle_variance(self):
        for M in (1, 2, 4, 8, 16, 32):
            for alpha in (0.5, 1.0):
                for p in (0.1, 0.5, 0.9):
                    params = SingleColumnParams(M=M, alpha=alpha, p=p)
                    mean, second = oracle.single_column_hitting_moments_exact(params)
                    ref_var = float(second[0] - mean[0] ** 2)
                    var = hitting_time_variance_exact(params, 0)
                    assert var == pytest.approx(ref_var, rel=1e-9)

    def test_variance_ratio_growth_across_m(self):
        # The dispersion ratio Var/Mean is not bounded in M: at a = 1 the
        # mean is M(M+1) and the hitting time tends to an exponential, so
        # Var ~ Mean^2 (README, the single-column chain's closed forms).
        # Exactly, Var/Mean = 13.96 at M=4 and 217.9 at M=16, a factor of
        # 15.6, so no fixed factor bounds its growth.
        # What holds is Var/Mean^2 rising toward 1 and never above it:
        # from the reset state 0 the chain is stochastically farthest from
        # M, so the hitting time is NBUE and its squared coefficient of
        # variation is at most 1.
        params = {M: SingleColumnParams.with_a(M, 1.0) for M in (4, 16, 64, 256)}
        moments = {
            M: (hitting_time_mean_exact(pr, 0), hitting_time_variance_exact(pr, 0))
            for M, pr in params.items()
        }

        cv2 = [var / mean**2 for mean, var in moments.values()]
        assert all(x < y for x, y in zip(cv2, cv2[1:])), f"Var/Mean^2 not rising in M: {cv2}"
        assert all(x <= 1.0 for x in cv2), f"Var/Mean^2 above the NBUE bound 1: {cv2}"

        for M in (4, 16):
            mean, var = moments[M]
            ref_mean, ref_second = oracle.single_column_hitting_moments_exact(params[M])
            ref_ratio = float((ref_second[0] - ref_mean[0] ** 2) / ref_mean[0])
            assert var / mean == pytest.approx(ref_ratio, rel=1e-9)


class TestCouponFormulas:
    def test_done_by_draws_anchors(self):
        assert coupon_done_by_draws(1, 1) == 1.0
        assert coupon_done_by_draws(2, 2) == pytest.approx(0.5, rel=1e-14)
        assert coupon_done_by_draws(3, 3) == pytest.approx(2 / 9, rel=1e-12)

    def test_done_by_draws_matches_enumeration(self):
        for N in range(1, 6):
            for k in range(0, 13):
                exact = float(oracle.coupon_enumerate(N, k))
                assert abs(coupon_done_by_draws(N, k) - exact) < 1e-12

    def test_done_by_time_single_coupon(self):
        for t in (0.0, 0.3, 2.0):
            assert coupon_done_by_time(1, t, 1.0) == pytest.approx(-math.expm1(-t), rel=1e-14)

    def test_done_by_time_two_coupons(self):
        assert coupon_done_by_time(2, 2 * math.log(2), 1.0) == pytest.approx(0.25, rel=1e-13)

    def test_done_by_time_zero(self):
        for N in (1, 2, 7):
            assert coupon_done_by_time(N, 0.0, 1.0) == 0.0

    def test_tail_bounds_formula(self):
        lo, hi = coupon_tail_bounds(50, math.pi)
        assert lo == pytest.approx(math.exp(-3.0), rel=1e-14)
        lo, hi = coupon_tail_bounds(50, 5.0)
        assert hi == pytest.approx(math.exp(-5.0), rel=1e-14)

    def test_laplace_anchors(self):
        assert collection_time_laplace(3, 0.7, 0.0) == pytest.approx(1.0, rel=1e-13)
        for q, alpha in [(0.5, 0.3), (1.0, 1.0)]:
            assert collection_time_laplace(1, q, alpha) == pytest.approx(q / (q + alpha), rel=1e-13)
        assert collection_time_laplace(2, 1.0, 1.0) == pytest.approx(1 / 6, rel=1e-13)

    def test_laplace_equals_finite_product(self):
        for M in (1, 2, 5, 17, 50, 100):
            for q, alpha in [(0.9, 0.1), (0.4, 1.3), (1.0, 0.01)]:
                prod = 1.0
                for i in range(M):
                    p_i = q * (1 - i / M)
                    prod *= p_i / (p_i + alpha)
                assert abs(collection_time_laplace(M, q, alpha) - prod) < 1e-12


class TestSteadyAllOnes:
    def test_probability_anchors(self):
        assert steady_allones_probability(MatrixParams(M=1, N=1, p=0.5)) == pytest.approx(0.5, rel=1e-13)
        assert steady_allones_probability(MatrixParams(M=2, N=1, p=0.5)) == pytest.approx(1 / 6, rel=1e-13)
        assert steady_allones_probability(
            MatrixParams(M=1, N=1, p=0.5, lambda_m=0.5)
        ) == pytest.approx(2 / 3, rel=1e-13)

    def test_probability_matches_matrix_oracle(self):
        for M, N, p, lam in [(2, 1, 0.5, 0.0), (2, 1, 0.5, 0.3), (2, 2, 0.3, 0.2), (3, 2, 0.3, 0.1)]:
            params = MatrixParams(M=M, N=N, p=p, lambda_m=lam)
            pi = oracle.stationary_solve(oracle.matrix_generator(params))
            col0_bits = sum(1 << (i * N) for i in range(M))
            prob = sum(pi[s] for s in range(len(pi)) if s & col0_bits == col0_bits)
            assert steady_allones_probability(params) == pytest.approx(prob, rel=1e-9)

    @pytest.mark.parametrize("params", [
        MatrixParams(M=4, N=1, p=0.999999999),
        MatrixParams(M=20, N=1, p=0.99999),
        MatrixParams(M=200, N=100, p=0.1),
        MatrixParams(M=200, N=100, p=0.1, lambda_m=1.0),
    ])
    def test_probability_matches_exact_product(self, params):
        # prod_{i=1..M} i/(i+c) in exact rationals, at the c the library uses.
        c = Fraction(params.M * params.p / (params.N * params.q_tilde))
        exact = math.prod(Fraction(i) / (i + c) for i in range(1, params.M + 1))
        got = Fraction(steady_allones_probability(params))
        assert abs(got - exact) <= Fraction(1, 10**13) * exact

    def test_reduces_to_laplace_transform(self):
        for M, N, p in [(3, 2, 0.3), (5, 4, 0.6)]:
            params = MatrixParams(M=M, N=N, p=p, lambda_m=0.0)
            assert steady_allones_probability(params) == pytest.approx(
                collection_time_laplace(M, params.q, p / N), rel=1e-14
            )

    def test_monotone_in_lambda_and_p(self):
        probs = [
            steady_allones_probability(MatrixParams(M=6, N=3, p=0.3, lambda_m=lam))
            for lam in (0.0, 0.2, 0.5, 1.0, 3.0)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        probs = [
            steady_allones_probability(MatrixParams(M=6, N=3, p=p, lambda_m=0.4))
            for p in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_count_linearity(self):
        params = MatrixParams(M=1, N=1, p=0.5)
        assert steady_allones_count(params, "exact") == pytest.approx(0.5, rel=1e-13)
        params = MatrixParams(M=4, N=7, p=0.2, lambda_m=0.1)
        assert steady_allones_count(params, "exact") == pytest.approx(
            7 * steady_allones_probability(params), rel=1e-14
        )

    def test_exact_to_asymptotic_ratio_tends_to_one(self):
        # Fixed b and aspect ratio: p chosen so b = 2p/q = 0.25.
        p = 0.25 / 2.25
        ratios = []
        for M in (50, 100, 200, 400, 800, 1600):
            params = MatrixParams(M=M, N=M // 2, p=p, lambda_m=0.0)
            ratios.append(
                steady_allones_count(params, "exact") / steady_allones_count(params, "asymptotic")
            )
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[-1] == pytest.approx(1.0, abs=5e-3)

    def test_rate_scaled_variant_differs_by_constant(self):
        # The rate-scaled asymptotic converges to q_tilde^b times the
        # exact value, not to it; the plain power law is the right one.
        p = 0.25 / 2.25
        for M in (400, 1600):
            params = MatrixParams(M=M, N=M // 2, p=p, lambda_m=0.0)
            exact, plain, scaled = steady_allones_count_reports(params)
            assert plain.value / exact.value == pytest.approx(1.0, abs=2e-2)
            assert scaled.value / exact.value == pytest.approx(
                params.q_tilde**params.b_tilde, abs=2e-2
            )

    def test_reports_tagged(self):
        reports = steady_allones_count_reports(MatrixParams(M=3, N=2, p=0.4, lambda_m=0.2))
        ids = [r.formula_id for r in reports]
        assert ids == [
            "steady_count_gamma_ratio",
            "steady_count_power_law",
            "steady_count_power_law_rate_scaled",
        ]
        assert reports[0].method == "exact"
        assert all(r.method == "asymptotic" for r in reports[1:])

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            steady_allones_count(MatrixParams(M=2, N=2, p=0.5), "guess")

    def test_power_law_beyond_double_range_is_refused(self):
        # b_tilde = 6336: the power laws exceed double precision, the exact
        # count does not.
        params = MatrixParams(M=64, N=1, p=0.99)
        assert steady_allones_count(params, "exact") == pytest.approx(4.417e-155, rel=1e-3)
        with pytest.raises(ValueError, match="overflows double precision"):
            steady_allones_count(params, "asymptotic")
        with pytest.raises(ValueError, match="overflows double precision"):
            steady_allones_count_reports(params)


class TestTransitionTime:
    def test_fig_parameter_values(self):
        off = MatrixParams(M=200, N=100, p=0.1, lambda_m=0.0)
        on = MatrixParams(M=200, N=100, p=0.1, lambda_m=1.0)
        assert transition_time_prediction(off) == pytest.approx(1177.4, abs=0.05)
        assert transition_time_prediction(on) == pytest.approx(557.7, abs=0.05)

    def test_monotone_decreasing_in_lambda(self):
        values = [
            transition_time_prediction(MatrixParams(M=50, N=20, p=0.2, lambda_m=lam))
            for lam in np.linspace(0.0, 30.0, 40)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestIdentifyParameters:
    def test_deletion_probability_thinning(self):
        single, matrix = identify_parameters(0.1, 100, 0.0, 200)
        assert single.p == pytest.approx(0.001, rel=1e-14)
        assert single.alpha == 1.0
        assert matrix.p == 0.1
        assert matrix.lambda_m == 0.0

    def test_entry_rate_scaling(self):
        single, matrix = identify_parameters(0.1, 100, 0.005, 200)
        assert matrix.lambda_m == pytest.approx(1.0, rel=1e-14)
        assert single.alpha == pytest.approx(2.0, rel=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            identify_parameters(0.0, 10, 0.0, 5)
        with pytest.raises(ValueError):
            identify_parameters(1.0, 10, 0.0, 5)
        with pytest.raises(ValueError):
            identify_parameters(0.5, 10, -0.1, 5)


class TestClosedFormReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedFormReport(1.0, "guessed", "x")
        with pytest.raises(ValueError):
            ClosedFormReport(float("nan"), "exact", "x")
