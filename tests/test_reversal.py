"""Perfect sampler: anchors, oracle agreement, exchangeability, coupling."""

import math
import time
import warnings

import numpy as np
import pytest

from immunochain import analytics, oracle
from immunochain.models import MatrixParams, MatrixState
from immunochain.reversal import (
    sample_invariant,
    sample_invariant_count,
    sample_invariant_coupled,
    sample_invariant_histogram,
)
from immunochain.rng import replicate_rng
from immunochain.stats import chi_square_gof, empirical_tv


class TestAnchors:
    def test_single_cell_half(self):
        # M = N = 1, p = 1/2: the first decisive pick is row vs column.
        params = MatrixParams(M=1, N=1, p=0.5)
        n = 200_000
        counts = sample_invariant_histogram(params, n, master_seed=42)
        p_one = counts[1] / n
        se = math.sqrt(0.25 / n)
        assert abs(p_one - 0.5) < 4 * se

    def test_single_cell_pai_on_two_thirds(self):
        # Row-or-entry beats column with odds (q + lambda) : p = 1.0 : 0.5.
        params = MatrixParams(M=1, N=1, p=0.5, lambda_m=0.5)
        n = 200_000
        counts = sample_invariant_histogram(params, n, master_seed=43)
        p_one = counts[1] / n
        exact = 2 / 3
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(p_one - exact) < 3 * se

    def test_two_by_one_all_ones_sixth(self):
        params = MatrixParams(M=2, N=1, p=0.5)
        n = 150_000
        counts = sample_invariant_histogram(params, n, master_seed=44)
        exact = 1 / 6
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(counts[3] / n - exact) < 3.5 * se


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "M,N,p,lam",
        [(2, 1, 0.5, 0.0), (2, 2, 0.4, 0.0), (2, 2, 0.3, 0.2), (3, 2, 0.3, 0.1)],
    )
    def test_tv_small_against_stationary_solve(self, M, N, p, lam):
        params = MatrixParams(M=M, N=N, p=p, lambda_m=lam)
        n = 120_000
        counts = sample_invariant_histogram(params, n, master_seed=7)
        pi = oracle.stationary_solve(oracle.matrix_generator(params))
        tv = empirical_tv(counts / n, pi)
        assert tv < 0.02, f"tv={tv}"

    def test_unreachable_states_never_sampled(self):
        # lambda = 0 leaves the checkerboards outside the support.
        params = MatrixParams(M=2, N=2, p=0.4, lambda_m=0.0)
        counts = sample_invariant_histogram(params, 50_000, master_seed=3)
        assert counts[0b0110] == 0
        assert counts[0b1001] == 0


class TestSamplerInterface:
    def test_single_draw_distribution_matches_oracle(self):
        # The per-draw API itself (not just the batch histogram) must
        # produce the stationary law.
        params = MatrixParams(M=2, N=1, p=0.5)
        n = 30_000
        counts = np.zeros(4)
        for r in range(n):
            counts[sample_invariant(params, replicate_rng(17, r)).to_index()] += 1
        pi = oracle.stationary_solve(oracle.matrix_generator(params))
        assert empirical_tv(counts / n, pi) < 0.02

    def test_deterministic_in_seed(self):
        params = MatrixParams(M=3, N=3, p=0.4, lambda_m=0.3)
        assert sample_invariant(params, 123) == sample_invariant(params, 123)

    def test_single_draw_is_the_coupled_draw_at_its_own_rate(self):
        params = MatrixParams(M=3, N=2, p=0.3, lambda_m=0.1)
        for seed in range(20):
            (coupled,) = sample_invariant_coupled(params, [params.lambda_m], seed)
            assert sample_invariant(params, seed) == coupled

    @pytest.mark.parametrize("N,draw", [
        (10**8, lambda params: sample_invariant(params, 1)),
        (10**8, lambda params: sample_invariant_coupled(params, [0.0, 0.5], 1)),
        (2 * 10**7, lambda params: sample_invariant_coupled(params, [0.0, 0.5], 1)),  # 6e7 cells a rate, two rates
    ], ids=["single", "coupled", "coupled-two-rates"])
    def test_oversized_draw_is_refused_at_once(self, N, draw):
        # Three rows by 10^8 columns: at about 18 bytes a cell the draw
        # would ask for 5 GB before its first comparison.
        began = time.perf_counter()
        with pytest.raises(ValueError, match="shrink M or N"):
            draw(MatrixParams(M=3, N=N, p=0.3))
        assert time.perf_counter() - began < 0.1

    def test_oversized_histogram_is_refused_at_once(self):
        # 10^12 draws at two cells each would run about 1.2e8 blocks.
        began = time.perf_counter()
        with pytest.raises(ValueError, match="histogram.s draws"):
            sample_invariant_histogram(MatrixParams(M=2, N=1, p=0.5), 10**12, master_seed=1)
        assert time.perf_counter() - began < 0.1

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_large_matrix_count_matches_steady_formula(self, lam):
        params = MatrixParams(M=200, N=100, p=0.1, lambda_m=lam)
        rng = replicate_rng(2024, 0)
        n = 2000
        counts = np.array([sample_invariant(params, rng).all_ones_count for _ in range(n)])
        se = counts.std(ddof=1) / math.sqrt(n)
        exact = analytics.steady_allones_count(params, "exact")
        assert abs(counts.mean() - exact) < 4.5 * se


class TestCountDraws:
    """Counts with the entry clocks integrated out; chi-square p > 0.001, z < 4."""

    @pytest.mark.parametrize("M,N,p,lam", [(2, 3, 0.4, 0.0), (3, 2, 0.3, 0.0), (2, 3, 0.4, 0.3), (3, 2, 0.3, 0.5)])
    def test_count_law_matches_oracle(self, M, N, p, lam):
        params = MatrixParams(M=M, N=N, p=p, lambda_m=lam)
        pi = oracle.stationary_solve(oracle.matrix_generator(params))
        full = [MatrixState.from_index(M, N, s).all_ones_count for s in range(1 << (M * N))]
        law = np.bincount(full, weights=pi, minlength=N + 1)
        n = 8000
        counts = [sample_invariant_count(params, replicate_rng(31, r)) for r in range(n)]
        _, _, p_value = chi_square_gof(np.bincount(counts, minlength=N + 1), law)
        assert p_value > 0.001

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_large_matrix_count_matches_steady_formula(self, lam):
        params = MatrixParams(M=200, N=100, p=0.1, lambda_m=lam)
        n = 4000
        counts = np.array([sample_invariant_count(params, replicate_rng(32, r)) for r in range(n)])
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - analytics.steady_allones_count(params, "exact")) < 4 * se

    @pytest.mark.parametrize("params", [
        MatrixParams(M=4, N=2, p=1e-320),  # N/p overflows: no column was ever reset
        MatrixParams(M=4, N=2, p=0.5, lambda_m=1e308),  # every entry rang just now
    ])
    def test_extreme_clocks_fill_every_column_without_warnings(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_invariant_count(params, 1) == params.N

    def test_deterministic_in_seed(self):
        params = MatrixParams(M=5, N=4, p=0.3, lambda_m=0.4)
        assert [sample_invariant_count(params, s) for s in range(20)] == [
            sample_invariant_count(params, s) for s in range(20)
        ]


class TestendogenousProperties:
    def test_column_exchangeability(self):
        # Any two columns have the same marginal pattern law.
        params = MatrixParams(M=2, N=2, p=0.4, lambda_m=0.2)
        n = 120_000
        counts = sample_invariant_histogram(params, n, master_seed=5)
        col0 = np.zeros(4)
        col1 = np.zeros(4)
        for s in range(16):
            # bit i*N+j: column 0 pattern bits (0,2); column 1 bits (1,3)
            pat0 = ((s >> 0) & 1) | (((s >> 2) & 1) << 1)
            pat1 = ((s >> 1) & 1) | (((s >> 3) & 1) << 1)
            col0[pat0] += counts[s]
            col1[pat1] += counts[s]
        tv = empirical_tv(col0 / n, col1 / n)
        assert tv < 0.01


class TestCoupledDraws:
    def test_monotone_in_lambda(self):
        params = MatrixParams(M=4, N=3, p=0.3, lambda_m=0.0)
        lams = [0.0, 0.2, 0.7, 2.0]
        for seed in range(50):
            draws = sample_invariant_coupled(params, lams, seed)
            for lo, hi in zip(draws, draws[1:]):
                assert (hi.entries >= lo.entries).all()

    def test_coupled_marginals_match_oracle(self):
        params = MatrixParams(M=2, N=2, p=0.4)
        rng = replicate_rng(99, 0)
        n = 60_000
        counts = np.zeros(16)
        for _ in range(n):
            (state,) = sample_invariant_coupled(params, [0.2], rng)
            counts[state.to_index()] += 1
        pi = oracle.stationary_solve(
            oracle.matrix_generator(MatrixParams(M=2, N=2, p=0.4, lambda_m=0.2))
        )
        assert empirical_tv(counts / n, pi) < 0.02

    def test_decreasing_lambdas_rejected(self):
        with pytest.raises(ValueError):
            sample_invariant_coupled(MatrixParams(M=2, N=2, p=0.5), [0.5, 0.1], 1)

    def test_empirical_count_matches_steady_formula(self):
        params = MatrixParams(M=2, N=2, p=0.3, lambda_m=0.2)
        n = 100_000
        counts = sample_invariant_histogram(params, n, master_seed=11)
        col_bits = [0b0101, 0b1010]
        total = 0.0
        for s in range(16):
            full = sum(1 for cb in col_bits if s & cb == cb)
            total += counts[s] * full
        mean_count = total / n
        exact = analytics.steady_allones_count(params, "exact")
        # binomial-style bound on the SE of the summed indicator
        se = math.sqrt(2 * 0.25 / n) * 2
        assert abs(mean_count - exact) < 4 * se
