"""Tests of the brute-force ground-truth module itself."""

import time
from fractions import Fraction

import numpy as np
import pytest

from immunochain import analytics
from immunochain.cli import main
from immunochain.models import MatrixParams, SingleColumnParams
from immunochain.oracle import (
    DenseGenerator,
    _surjection_count_brute,
    _surjection_count_dp,
    coupon_enumerate,
    hitting_moments,
    matrix_generator,
    single_column_generator,
    single_column_hitting_means,
    single_column_hitting_moments_exact,
    stationary_solve,
)


def two_state_symmetric():
    return DenseGenerator(states=[0, 1], rate_matrix=np.array([[-0.5, 0.5], [0.5, -0.5]]))


class TestGeneratorValidation:
    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ValueError):
            DenseGenerator(states=[0, 1], rate_matrix=np.array([[0.5, -0.5], [0.0, 0.0]]))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            DenseGenerator(states=[0, 1], rate_matrix=np.array([[-0.5, 0.6], [0.5, -0.5]]))

    def test_generator_rows_sum_to_zero(self):
        for params in (
            SingleColumnParams(M=5, alpha=1.5, p=0.3),
            SingleColumnParams(M=1, alpha=0.5, p=0.9),
        ):
            gen = single_column_generator(params)
            assert np.abs(gen.rate_matrix.sum(axis=1)).max() < 1e-12


class TestStationarySolve:
    def test_two_state_symmetric(self):
        pi = stationary_solve(two_state_symmetric())
        assert pi == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_single_column_m2_hand_solution(self):
        # Balance equations solved by hand for M=2, alpha=1, p=1/2.
        gen = single_column_generator(SingleColumnParams(M=2, alpha=1.0, p=0.5))
        pi = stationary_solve(gen)
        assert pi == pytest.approx([1 / 2, 1 / 3, 1 / 6], rel=1e-12)

    def test_matrix_m2_n1_all_ones_sixth(self):
        gen = matrix_generator(MatrixParams(M=2, N=1, p=0.5, lambda_m=0.0))
        pi = stationary_solve(gen)
        assert pi[-1] == pytest.approx(1 / 6, rel=1e-12)

    def test_residuals_small_on_grid(self):
        for M in (1, 3, 6):
            for p in (0.1, 0.5, 0.9):
                gen = single_column_generator(SingleColumnParams(M=M, alpha=1.2, p=p))
                pi = stationary_solve(gen)
                assert np.abs(pi @ gen.rate_matrix).max() < 1e-10
                assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_closed_classes_rejected(self):
        Q = np.zeros((2, 2))  # two absorbing states, no unique law
        with pytest.raises(ValueError, match="closed communicating classes"):
            stationary_solve(DenseGenerator(states=[0, 1], rate_matrix=Q))

    def test_unichain_with_transient_states_accepted(self):
        # 0 -> 1 -> 2 <-> 1 with 0 unreachable: state 0 is transient.
        Q = np.array([
            [-1.0, 1.0, 0.0],
            [0.0, -1.0, 1.0],
            [0.0, 1.0, -1.0],
        ])
        pi = stationary_solve(DenseGenerator(states=[0, 1, 2], rate_matrix=Q))
        assert pi[0] == 0.0
        assert pi[1:] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matrix_chain_without_entry_channel_is_unichain(self):
        # Ordering constraints make some patterns unreachable (transient),
        # but the stationary law stays unique; those states carry no mass.
        gen = matrix_generator(MatrixParams(M=2, N=2, p=0.4, lambda_m=0.0))
        pi = stationary_solve(gen)
        # the two checkerboard patterns are unreachable
        assert pi[0b0110] == 0.0
        assert pi[0b1001] == 0.0
        assert pi.sum() == pytest.approx(1.0)


class TestHittingMoments:
    def test_single_exponential_clock(self):
        gen = single_column_generator(SingleColumnParams(M=1, alpha=1.0, p=0.5))
        mean, second = hitting_moments(gen, {1})
        assert mean[0] == pytest.approx(2.0, rel=1e-12)
        assert second[0] == pytest.approx(8.0, rel=1e-12)

    def test_start_inside_target(self):
        gen = single_column_generator(SingleColumnParams(M=3, alpha=1.0, p=0.5))
        mean, second = hitting_moments(gen, {3})
        assert mean[3] == 0.0 and second[3] == 0.0

    def test_m2_hand_first_step_analysis(self):
        gen = single_column_generator(SingleColumnParams(M=2, alpha=1.0, p=0.5))
        mean, _ = hitting_moments(gen, {2})
        assert mean[0] == pytest.approx(10.0, rel=1e-12)

    def test_second_moment_dominates_mean_squared(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = int(rng.integers(1, 9))
            params = SingleColumnParams(M=M, alpha=float(rng.uniform(0.5, 2)), p=float(rng.uniform(0.1, 0.9)))
            gen = single_column_generator(params)
            mean, second = hitting_moments(gen, {M})
            assert (second >= mean**2 - 1e-9).all()

    def test_unreachable_target_rejected(self):
        Q = np.array([
            [-1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [0.0, 1.0, -1.0],
        ])  # state 2 unreachable from {0, 1}
        gen = DenseGenerator(states=[0, 1, 2], rate_matrix=Q)
        with pytest.raises(ValueError, match="not reachable"):
            hitting_moments(gen, {2})

    def test_empty_target_rejected(self):
        gen = single_column_generator(SingleColumnParams(M=2, alpha=1.0, p=0.5))
        with pytest.raises(ValueError):
            hitting_moments(gen, set())


def fraction_hitting_moments(params: SingleColumnParams):
    """The exact first passage by plain Fraction elimination.

    The reference for the integer solve: eliminate from M-1 downward to
    ``x_i = c_i + d_i * x_0``, close at 0, every step a reduced Fraction.
    """
    M = params.M
    alpha = Fraction(params.alpha)
    q = Fraction(1) - Fraction(params.p)
    p = Fraction(params.p)
    up = [alpha * q * (M - k) / M for k in range(M)]

    def solve(rhs):
        c = [Fraction(0)] * (M + 1)
        d = [Fraction(0)] * (M + 1)
        for i in range(M - 1, 0, -1):
            denom = up[i] + p
            c[i] = (rhs[i] + up[i] * c[i + 1]) / denom
            d[i] = (up[i] * d[i + 1] + p) / denom
        if M == 1:
            x0 = rhs[0] / up[0]
        else:
            x0 = (rhs[0] / up[0] + c[1]) / (1 - d[1])
        return [x0] + [c[i] + d[i] * x0 for i in range(1, M)] + [Fraction(0)]

    means = solve([Fraction(1)] * M)
    return means, solve([2 * means[i] for i in range(M)])


REF_ALPHAS = (1e-9, 0.5, 1.0, 7.3, 1e9)
REF_PS = (1e-320, 1e-12, 0.1, 0.5, 0.9, 1 - 1e-9)
# Every (alpha, p) pair at small M. With p = 1e-320 the integers run to
# ~70k bits at M=64, and the reference, which takes a gcd after every
# step, needs ~11 s a point there and ~110 s at M=128; so that p runs at
# M <= 16 only. M=128 pairs each alpha with one other p.
REF_POINTS = [
    *((M, alpha, p) for M in (1, 2, 3, 5) for alpha in REF_ALPHAS for p in REF_PS),
    *((16, alpha, 1e-320) for alpha in REF_ALPHAS),
    *((64, alpha, p) for alpha in REF_ALPHAS for p in REF_PS[1:]),
    *((128, alpha, p) for alpha, p in zip(REF_ALPHAS, REF_PS[1:])),
]

# verify's hitting-mean grid (cli._cmd_verify without --small).
VERIFY_POINTS = [
    (M, alpha, p) for M in (1, 2, 4, 8, 16, 32, 64) for alpha in (0.5, 1.0, 2.0) for p in (0.1, 0.5, 0.9)
]


class TestExactHittingMoments:
    @pytest.mark.parametrize("M", sorted({M for M, _, _ in REF_POINTS}))
    def test_equals_fraction_elimination(self, M):
        for _, alpha, p in (pt for pt in REF_POINTS if pt[0] == M):
            params = SingleColumnParams(M=M, alpha=alpha, p=p)
            ref_mean, ref_second = fraction_hitting_moments(params)
            means, seconds = single_column_hitting_moments_exact(params)
            assert means == ref_mean, (alpha, p)
            assert seconds == ref_second, (alpha, p)
            assert single_column_hitting_moments_exact(params, with_second_moment=False) == (means, None)

    def test_verify_reads_correctly_rounded_means(self):
        for M, alpha, p in VERIFY_POINTS:
            params = SingleColumnParams(M=M, alpha=alpha, p=p)
            exact, _ = single_column_hitting_moments_exact(params, with_second_moment=False)
            read = single_column_hitting_means(params)
            assert read.tolist() == [float(x) for x in exact[:M]], (M, alpha, p)

    def test_verify_reports_the_fraction_error(self, capsys):
        worst = 0.0
        for M, alpha, p in VERIFY_POINTS:
            params = SingleColumnParams(M=M, alpha=alpha, p=p)
            means = analytics.hitting_time_means_exact(params)[:M]
            exact, _ = single_column_hitting_moments_exact(params, with_second_moment=False)
            ref = np.array([float(x) for x in exact[:M]])
            worst = max(worst, float(np.max(np.abs(means - ref) / ref)))
        assert main(["verify", "--seed", "3"]) == 0
        line = f"verify hitting-mean-vs-oracle: max_err={worst:.3e} tol=1e-09 ok"
        assert line in capsys.readouterr().out.splitlines()

    def test_large_m_refused_at_once(self):
        params = SingleColumnParams(M=10_000, alpha=1.0, p=0.5)
        for call in (
            lambda: single_column_hitting_moments_exact(params),
            lambda: single_column_hitting_means(params),
        ):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="exceeds 512"):
                call()
            assert time.perf_counter() - t0 < 0.05
        means, _ = single_column_hitting_moments_exact(SingleColumnParams(M=512, alpha=1.0, p=0.5), False)
        assert len(means) == 513 and means[0] > means[511] > 0


class TestCouponEnumerate:
    def test_hand_counted_cases(self):
        assert coupon_enumerate(2, 2) == Fraction(1, 2)
        assert coupon_enumerate(3, 3) == Fraction(2, 9)
        assert coupon_enumerate(1, 1) == Fraction(1)

    def test_pigeonhole_zero(self):
        for N in range(1, 6):
            for k in range(0, N):
                assert coupon_enumerate(N, k) == 0

    def test_brute_force_and_recurrence_agree(self):
        for N in range(1, 5):
            for k in range(N, 9):
                assert _surjection_count_brute(N, k) == _surjection_count_dp(N, k)

    def test_public_count_matches_brute_force(self):
        for N in range(1, 5):
            for k in range(0, 9):
                assert coupon_enumerate(N, k) == Fraction(_surjection_count_brute(N, k), N**k)

    def test_large_k_uses_exact_arithmetic(self):
        # Past the grid the brute-force tests enumerate, the recurrence must
        # still be exact. Reference surjection count from inclusion-exclusion:
        # 5^12 - 5*4^12 + 10*3^12 - 10*2^12 + 5 = 165528000.
        assert coupon_enumerate(5, 12) == Fraction(165528000, 5**12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            coupon_enumerate(0, 3)
        with pytest.raises(ValueError):
            coupon_enumerate(3, -1)
