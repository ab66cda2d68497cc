"""Tests of the benchmark's own reference values, tracing and workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from immunochain import analytics, cli, simulate
from immunochain.models import MatrixParams, SingleColumnParams
from immunochain.simulate import SimulationConfig, simulate_matrix

import checks
import run
import tracing
from checks import column_full_probability


def test_finite_time_reference_matches_gillespie_at_a_tiny_point():
    # M=6, N=4, p=0.3, lambda_m=0.2, t=15: the point at which a 30k-replicate
    # Gillespie estimate of 0.967 +- 0.006 was recorded for the mean count.
    M, N, p, lam, t = 6, 4, 0.3, 0.2, 15.0
    exact = N * column_full_probability(M, N, p, lam, t)
    assert exact == pytest.approx(0.96558, abs=5e-5)
    var = checks.count_variance(M, N, p, lam, t)
    params = MatrixParams(M=M, N=N, p=p, lambda_m=lam)
    reps = 20_000
    ends = np.array([
        simulate_matrix(params, SimulationConfig(master_seed=2024, replicate_index=r, horizon=t)).end_value
        for r in range(reps)
    ], dtype=float)
    assert abs(ends.mean() - exact) <= checks.Z_BOUND * math.sqrt(var / reps)
    centred = ends - ends.mean()
    se_var = math.sqrt((np.mean(centred**4) - np.mean(centred**2) ** 2) / reps)
    assert abs(ends.var(ddof=1) - var) <= checks.Z_BOUND * se_var


def test_pair_probability_matches_adaptive_quadrature():
    from scipy.integrate import dblquad, quad

    M, N, p, lam, t = 6, 4, 0.3, 0.2, 15.0
    r, e, c = (1 - p) / M, lam / M, p / N

    def both(a, b):
        hi = max(a, b)
        return (1 - math.exp(-(r + e) * a) - math.exp(-(r + e) * b) + math.exp(-r * hi - e * (a + b))) ** M

    inner, _ = dblquad(lambda u, s: c * c * math.exp(-c * (s + u)) * both(s, u), 0, t, 0, t, epsabs=1e-13)
    edge, _ = quad(lambda s: c * math.exp(-c * s) * both(s, t), 0, t, epsabs=1e-13)
    ref = inner + 2 * math.exp(-c * t) * edge + math.exp(-2 * c * t) * both(t, t)
    assert checks.column_pair_full_probability(M, N, p, lam, t) == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("lam, expected", [(0.0, 27.1433), (1.0, 51.6587)])
def test_finite_time_reference_at_the_criterion_7_horizon(lam, expected):
    # Below the stationary counts 28.10 and 54.33: the horizon is inside the transient.
    horizon = run._matrix_horizon(lam)
    count = 100 * column_full_probability(200, 100, 0.1, lam, horizon)
    assert count == pytest.approx(expected, abs=1e-4)
    assert count < analytics.steady_allones_count(MatrixParams(200, 100, 0.1, lam))


@pytest.mark.parametrize("M, N, p, lam", [(200, 100, 0.1, 0.0), (200, 100, 0.1, 1.0), (6, 4, 0.3, 0.2)])
def test_finite_time_reference_tends_to_the_stationary_probability(M, N, p, lam):
    stationary = analytics.steady_allones_probability(MatrixParams(M=M, N=N, p=p, lambda_m=lam))
    late = 200.0 * N / p
    assert column_full_probability(M, N, p, lam, late) == pytest.approx(stationary, rel=1e-9)
    assert checks.column_pair_full_probability(M, N, p, lam, late) == pytest.approx(
        checks.column_pair_full_probability(M, N, p, lam, math.inf), rel=1e-9)
    # Shared rows correlate columns positively.
    assert checks.count_variance(M, N, p, lam, math.inf) > N * stationary * (1 - stationary)


def test_tracer_wraps_every_binding_and_restores_them():
    original = simulate.simulate_single_column
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = simulate.simulate_single_column
        assert wrapped is not original
        assert cli.simulate_single_column is wrapped
        assert cli.replicate_rng is simulate.replicate_rng is sys.modules["immunochain.rng"].replicate_rng
        tracer.active = True
        simulate.hitting_time_batch(SingleColumnParams.with_a(4, 1.0), n_replicates=3, master_seed=5)
        tracer.active = False
        # The benchmark's own calls while inactive leave no spans.
        simulate.hitting_time_batch(SingleColumnParams.with_a(4, 1.0), n_replicates=3, master_seed=5)
    finally:
        tracer.uninstall()
    assert simulate.simulate_single_column is original
    assert cli.simulate_single_column is original
    names = [s[0] for s in tracer.spans]
    assert names.count("simulate.hitting_time_batch") == 1
    assert names.count("simulate.simulate_single_column") == 3
    assert names.count("rng.replicate_rng") == 3
    batch = names.index("simulate.hitting_time_batch")
    for span in tracer.spans:
        if span[0] == "simulate.simulate_single_column":
            assert span[1] == batch
    counts, times = tracing.layer_metrics(tracer.spans)
    assert counts["rng.replicate_rng.calls"] == 3
    assert counts["simulate.column.events"] > 0
    assert times["simulate.hitting_batch.M16.reps_per_s"] == 0.0


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["simulate.simulate_matrix", 0, 1.0, 5.0, {"lam": 0.0, "series": False, "events": 8}],
        ["rng.replicate_rng", 1, 1.0, 2.0, None],
        ["stats.estimate_mean", 0, 6.0, 7.0, None],
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]
    counts, times = tracing.layer_metrics(spans)
    assert times["cli.self_s"] == 5.0
    assert times["simulate.matrix.self_s"] == 3.0
    assert times["simulate.matrix.lam0.events_per_s"] == 2.0
    assert counts["simulate.matrix.events"] == 8
    assert counts["stats.calls"] == 1


def test_workloads_are_a_function_of_the_seed():
    for name in ("matrix-endstate", "column-hitting", "paper-figures"):
        assert run.workload_ops(name, 3) == run.workload_ops(name, 3)
        assert run.workload_ops(name, 3) != run.workload_ops(name, 4)
    with pytest.raises(ValueError):
        run.workload_ops("no-such-workload", 1)


def test_verify_check_requires_every_check_ok():
    lines = [f"verify {name}: max_err=1.0e-13 tol=1e-10 ok" for name in checks.VERIFY_CHECKS]
    good = "\n".join(lines + ["verify: all checks passed"])
    assert checks.check_verify(0, good) is None
    assert checks.check_verify(3, good) == "verify exited 3"
    assert "not ok" in checks.check_verify(0, good.replace(" ok\n", " FAIL\n", 1))
    assert checks.check_verify(0, "\n".join(lines[1:] + ["verify: all checks passed"])) is not None
