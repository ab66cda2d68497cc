"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Tolerances are pinned here, not calibrated later.

Two sub-criteria are known to be unattainable at the stated finite
parameters and are asserted faithfully anyway (they fail red, with the
measured numbers printed): the steady-count match at t = 1.5*M*log(M)/q
with the entry channel at lambda_m = 1 (criterion 7), and the 15% match
of the median first-full-column time with the entry channel on
(criterion 8). The decisions ledger carries the quantitative analysis.
"""

import math
import time

import numpy as np
import pytest

from immunochain import analytics, oracle, reversal
from immunochain.cli import main as cli_main
from immunochain.models import MatrixParams, SingleColumnParams
from immunochain.rng import replicate_rng
from immunochain.simulate import (
    STOP_TIME_HORIZON,
    SimulationConfig,
    Trajectory,
    hitting_time_batch,
    simulate_matrix,
)
from immunochain.stats import detect_transition, empirical_tv

ALPHAS = (0.5, 1.0, 2.0)
PS = (0.1, 0.5, 0.9)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def test_criterion_01_invariant_pmf_matches_oracle():
    t0 = time.time()
    worst = 0.0
    for M in range(1, 9):
        for alpha in ALPHAS:
            for p in PS:
                params = SingleColumnParams(M=M, alpha=alpha, p=p)
                pi = analytics.invariant_pmf(params)
                ref = oracle.stationary_solve(oracle.single_column_generator(params))
                worst = max(worst, float(np.max(np.abs(pi - ref) / ref)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report("criterion 1 (invariant law vs oracle)",
           ok, f"max rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_hitting_time_exactness():
    t0 = time.time()
    worst = 0.0
    for M in range(1, 65):
        for alpha in ALPHAS:
            for p in PS:
                params = SingleColumnParams(M=M, alpha=alpha, p=p)
                means, _ = oracle.single_column_hitting_moments_exact(
                    params, with_second_moment=False
                )
                val = analytics.hitting_time_mean_exact(params, 0)
                worst = max(worst, abs(val - float(means[0])) / float(means[0]))
    anchor1 = analytics.hitting_time_mean_exact(SingleColumnParams(M=1, alpha=1.0, p=0.5), 0)
    anchor2 = analytics.hitting_time_mean_exact(SingleColumnParams(M=2, alpha=1.0, p=0.5), 0)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and anchor1 == 2.0 and anchor2 == 10.0 and elapsed < 5.0
    report("criterion 2 (hitting-time exactness)",
           ok, f"max rel err {worst:.2e} (tol 1e-9), anchors {anchor1}/{anchor2}, "
               f"{elapsed:.2f}s (< 5s)")
    assert worst <= 1e-9
    assert anchor1 == 2.0 and anchor2 == 10.0
    assert elapsed < 5.0


def test_criterion_03_asymptotic_ratio_monotone():
    ratios = []
    for M in (16, 32, 64, 128, 256, 512, 1024):
        params = SingleColumnParams.with_a(M, 1.0, alpha=1.0)
        ratios.append(
            analytics.hitting_time_mean_exact(params, 0)
            / analytics.hitting_time_mean_asymptotic(params)
        )
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    final_ok = abs(ratios[-1] - 1.0) <= 0.15
    report("criterion 3 (leading-order ratio)",
           monotone and final_ok,
           f"ratios {['%.4f' % r for r in ratios]}, final within 15%: {final_ok}")
    assert monotone
    assert final_ok


def test_criterion_04_concentration_of_hitting_times():
    t0 = time.time()
    lines = []
    ok = True
    for M in (16, 32, 64):
        params = SingleColumnParams.with_a(M, 1.0, alpha=1.0)
        mean = analytics.hitting_time_mean_exact(params, 0)
        var = analytics.hitting_time_variance_exact(params, 0)
        c_ratio = var / mean
        taus = hitting_time_batch(params, 10_000, master_seed=4040 + M)
        sd_emp = float(taus.std(ddof=1))
        bound = 3.0 * math.sqrt(c_ratio * mean)
        ok = ok and sd_emp <= bound
        lines.append(f"M={M}: sd={sd_emp:.1f} <= 3*sqrt(C*mean)={bound:.1f} (C={c_ratio:.1f})")
    elapsed = time.time() - t0
    report("criterion 4 (dispersion vs exact variance solve)",
           ok and elapsed < 120, "; ".join(lines) + f"; {elapsed:.0f}s (< 120s)")
    assert ok
    assert elapsed < 120


def test_criterion_05_zero_ratio_power_law_band():
    C = 2.0  # recorded band constant
    M = 1000
    worst_lo, worst_hi = math.inf, 0.0
    for a in (0.5, 1.0, 2.0):
        params = SingleColumnParams.with_a(M, a)
        for k in range(max(2, math.ceil(M**0.1)), M + 1):
            scaled = analytics.zero_count_ratio(params, k) / k ** (a - 1.0)
            worst_lo = min(worst_lo, scaled)
            worst_hi = max(worst_hi, scaled)
    ok = worst_lo >= 1 / C and worst_hi <= C
    report("criterion 5 (zero-count ratio band)",
           ok, f"scaled ratio range [{worst_lo:.4f}, {worst_hi:.4f}] inside [{1/C}, {C}]")
    assert ok


def test_criterion_06_perfect_sampler():
    t0 = time.time()
    n = 1_000_000
    results = []
    for params in (
        MatrixParams(M=2, N=2, p=0.4, lambda_m=0.2),
        MatrixParams(M=2, N=1, p=0.5, lambda_m=0.0),
    ):
        counts = reversal.sample_invariant_histogram(params, n, master_seed=606)
        pi = oracle.stationary_solve(oracle.matrix_generator(params))
        tv = empirical_tv(counts / n, pi)
        results.append((params.M, params.N, params.lambda_m, tv))

    anchor_params = MatrixParams(M=1, N=1, p=0.5, lambda_m=0.5)
    n_anchor = 200_000
    counts = reversal.sample_invariant_histogram(anchor_params, n_anchor, master_seed=607)
    p_one = counts[1] / n_anchor
    exact = 2 / 3
    se = math.sqrt(exact * (1 - exact) / n_anchor)
    anchor_ok = abs(p_one - exact) <= 3 * se

    elapsed = time.time() - t0
    tv_ok = all(tv < 0.005 for *_, tv in results)
    detail = "; ".join(f"TV(M={m},N={nn},lam={lam})={tv:.4f}" for m, nn, lam, tv in results)
    detail += f"; anchor P([1])={p_one:.4f} vs 2/3 (3se={3*se:.4f}); {elapsed:.0f}s (< 120s)"
    report("criterion 6 (perfect sampler)", tv_ok and anchor_ok and elapsed < 120, detail)
    assert tv_ok
    assert anchor_ok
    assert elapsed < 120


def test_criterion_07_steady_state_count():
    t0 = time.time()
    R = 200
    failures = []
    lines = []
    for lam in (0.0, 1.0):
        params = MatrixParams(M=200, N=100, p=0.1, lambda_m=lam)
        t_end = 1.5 * params.M * math.log(params.M) / params.q_tilde
        finals = np.empty(R)
        for r in range(R):
            cfg = SimulationConfig(
                master_seed=12345, replicate_index=r,
                stop_condition=STOP_TIME_HORIZON, horizon=t_end,
            )
            finals[r] = simulate_matrix(params, cfg).end_value
        mean = float(finals.mean())
        se = float(finals.std(ddof=1) / math.sqrt(R))
        exact = analytics.steady_allones_count(params, "exact")
        scaled = analytics._steady_allones_count_asymptotic_rate_scaled(params)
        z = (mean - exact) / se
        # record which steady-count variant the simulation supports
        pick = "gamma-ratio/M^b" if abs(mean - exact) < abs(mean - scaled) else "(M/q)^b variant"
        lines.append(
            f"lam={lam}: mean={mean:.2f} exact={exact:.2f} rate-scaled={scaled:.2f} "
            f"3se={3 * se:.2f} z={z:+.1f} closer to {pick}"
        )
        if abs(mean - exact) > 3 * se:
            failures.append(f"lam={lam} off by {abs(mean - exact):.2f} > 3se={3 * se:.2f}")
    elapsed = time.time() - t0
    report("criterion 7 (steady-state count at 1.5x transition time)",
           not failures and elapsed < 600, "; ".join(lines) + f"; {elapsed:.0f}s (< 600s)")
    assert elapsed < 600
    assert not failures, "; ".join(failures)


def test_criterion_08_transition_location_and_sharpness():
    t0 = time.time()
    R = 200
    failures = []
    lines = []

    # Location at the Fig-1 parameter point, entry channel off and on.
    for lam in (0.0, 1.0):
        params = MatrixParams(M=200, N=100, p=0.1, lambda_m=lam)
        taus = hitting_time_batch(params, R, master_seed=808)
        median = float(np.median(taus))
        pred = analytics.transition_time_prediction(params)
        rel = abs(median - pred) / pred
        lines.append(f"lam={lam}: median tau={median:.1f} vs {pred:.1f} (off by {rel:.1%})")
        if rel > 0.15:
            failures.append(f"lam={lam} median off by {rel:.1%} > 15%")

    # Sharpness: the relative [5%, 95%] window shrinks from M=100 to
    # M=400 at fixed b (p fixed, N = M/2). Quantile estimates need more
    # replicates than the medians to resolve the shrinkage.
    widths = {}
    for M in (100, 400):
        params = MatrixParams(M=M, N=M // 2, p=0.1, lambda_m=0.0)
        taus = hitting_time_batch(params, 1000, master_seed=809)
        trajs = [
            Trajectory(tau=float(t), end_time=float(t), end_value=1, n_events=0)
            for t in taus
        ]
        window = detect_transition(trajs)
        widths[M] = window.relative_width
    lines.append(f"relative widths: M=100 {widths[100]:.3f} -> M=400 {widths[400]:.3f}")
    if not widths[400] < widths[100]:
        failures.append("window did not shrink")

    elapsed = time.time() - t0
    report("criterion 8 (transition location and sharpness)",
           not failures and elapsed < 900, "; ".join(lines) + f"; {elapsed:.0f}s (< 900s)")
    assert elapsed < 900
    assert not failures, "; ".join(failures)


def test_criterion_09_coupon_collector():
    # inclusion-exclusion vs exact enumeration
    worst_draws = 0.0
    for N in range(1, 6):
        for k in range(0, 13):
            worst_draws = max(worst_draws, abs(
                analytics.coupon_done_by_draws(N, k) - float(oracle.coupon_enumerate(N, k))
            ))

    # Laplace transform vs the finite product
    worst_laplace = 0.0
    for M in range(1, 101):
        for q, alpha in ((0.9, 0.1), (0.5, 0.7), (1.0, 0.05)):
            prod = 1.0
            for i in range(M):
                p_i = q * (1 - i / M)
                prod *= p_i / (p_i + alpha)
            worst_laplace = max(worst_laplace, abs(
                analytics.collection_time_laplace(M, q, alpha) - prod
            ))

    # simulated tails vs the exponential-Chebyshev bounds
    n, reps = 50, 100_000
    rng = replicate_rng(909, 0)
    sigma = np.zeros(reps, dtype=np.int64)
    for i in range(n):
        sigma += rng.geometric((n - i) / n, size=reps)
    tail_lines = []
    tails_ok = True
    for c in (1.5, 4.0):
        lo_bound, hi_bound = analytics.coupon_tail_bounds(n, c)
        lo_emp = float(np.mean(sigma < n * math.log(n) - c * n))
        hi_emp = float(np.mean(sigma > n * math.log(n) + c * n))
        tails_ok = tails_ok and lo_emp <= lo_bound and hi_emp <= hi_bound
        tail_lines.append(
            f"c={c}: lower {lo_emp:.4f}<={lo_bound:.4f}, upper {hi_emp:.4f}<={hi_bound:.4f}"
        )

    ok = worst_draws <= 1e-12 and worst_laplace <= 1e-12 and tails_ok
    report("criterion 9 (coupon collector formulas)",
           ok, f"draws err {worst_draws:.1e}, laplace err {worst_laplace:.1e}; "
               + "; ".join(tail_lines))
    assert worst_draws <= 1e-12
    assert worst_laplace <= 1e-12
    assert tails_ok


def test_criterion_10_determinism(tmp_path):
    args = ["simulate", "--model", "matrix", "--M", "6", "--N", "4", "--p", "0.3",
            "--lambda-m", "0.2", "--replicates", "8", "--horizon", "50", "--seed", "31"]
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append((out / "series.csv").read_bytes())
    identical = outs[0] == outs[1] == outs[2]

    params = SingleColumnParams(M=4, alpha=1.0, p=0.4)
    batch_seq = hitting_time_batch(params, 32, master_seed=11)
    batch_par = hitting_time_batch(params, 32, master_seed=11)
    batches_equal = bool(np.array_equal(batch_seq, batch_par))

    report("criterion 10 (byte-identical determinism)",
           identical and batches_equal,
           f"csv reruns identical: {identical}; batch reruns identical: {batches_equal}")
    assert identical
    assert batches_equal
