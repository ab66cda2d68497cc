"""Simulation: determinism, exact-law checks, cross-module agreement."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ks_2samp

import immunochain
from immunochain import analytics, oracle
from immunochain import rng as rng_module
from immunochain import simulate as simulate_module
from immunochain.models import MatrixParams, MatrixState, SingleColumnParams
from immunochain.reference import (
    COLUMN_ZERO,
    ENTRY_SET,
    ROW_SET,
    apply_event,
    column_gillespie,
    enumerate_rates,
    matrix_gillespie,
)
from immunochain.simulate import (
    SimulationConfig,
    Trajectory,
    hitting_time_batch,
    simulate_matrix,
    simulate_single_column,
)
from immunochain.stats import chi_square_gof, empirical_tv, occupation_fractions


def hit_config(seed, r=0, **kw):
    return SimulationConfig(master_seed=seed, replicate_index=r, **kw)


def test_the_horizon_decides_the_run():
    # No option picks a run's kind. Without a horizon each chain and its
    # reference stop at the first hit; with one they run to the horizon,
    # here about the mean hitting time, and report the first hit on the way.
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
        "master_seed", "replicate_index", "horizon", "record_series"
    ]
    assert [name for name in dir(immunochain) if name.startswith("STOP_")] == []
    column, matrix = SingleColumnParams(M=3, alpha=1.0, p=0.3), MatrixParams(M=2, N=2, p=0.4, lambda_m=0.2)
    chains = (
        (column, 15.0, lambda values: values == column.M, (simulate_single_column, column_gillespie)),
        (matrix, 3.0, lambda values: values > 0, (simulate_matrix, lambda *a: matrix_gillespie(*a)[0])),
    )
    for params, horizon, reached, runners in chains:
        for run in runners:
            outcomes = set()
            for r in range(20):
                hit = run(params, SimulationConfig(master_seed=70, replicate_index=r, record_series=True))
                assert hit.tau is not None and hit.tau == hit.end_time == hit.series_times[-1]
                assert reached(hit.series_values[-1:]).all()
                traj = run(params, SimulationConfig(
                    master_seed=71, replicate_index=r, horizon=horizon, record_series=True))
                assert traj.end_time == horizon
                first = np.flatnonzero(reached(traj.series_values))
                assert traj.tau == (traj.series_times[first[0]] if first.size else None)
                outcomes.add(traj.tau is None)
            assert outcomes == {True, False}


class TestConfigValidation:
    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(master_seed=1, horizon=-1.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="positive and finite"):
            SimulationConfig(master_seed=1, horizon=horizon)

    def test_matrix_horizon_beyond_event_cap_rejected(self):
        # Total rate q + p + lambda_m*N = 0.5 + 0.5 + 100 = 101, so 2e6 time
        # units are ~2e8 events; without the entry channel it would be 2e6.
        params = MatrixParams(M=200, N=100, p=0.5, lambda_m=1.0)
        cfg = SimulationConfig(master_seed=1, horizon=2e6)
        with pytest.raises(ValueError, match="expected events"):
            simulate_matrix(params, cfg)

    def test_single_column_horizon_beyond_event_cap_rejected(self):
        # Total rate alpha*q + p = 3*0.5 + 0.5 = 2, so 6e7 time units are
        # 1.2e8 events; at q + p it would be 6e7.
        params = SingleColumnParams(M=64, alpha=3.0, p=0.5)
        cfg = SimulationConfig(master_seed=1, horizon=6e7)
        with pytest.raises(ValueError, match="expected events"):
            simulate_single_column(params, cfg)

    def test_matrix_horizon_beyond_cell_cap_rejected(self):
        # With entry clocks the epochs cost q + p*M = 0.1 + 0.9*2000 = 1800.1
        # cells per time unit against a total event rate of 1.01, so 9e7
        # time units are 1.6e11 cells though only 9.1e7 events.
        params = MatrixParams(M=2000, N=10, p=0.9, lambda_m=1e-3)
        cfg = SimulationConfig(master_seed=1, horizon=9e7)
        with pytest.raises(ValueError, match="expected events"):
            simulate_matrix(params, cfg)

    def test_matrix_state_beyond_cell_cap_rejected(self):
        # About 5 expected events to the horizon, but the 3 x 10^8 state
        # alone is 3e8 cells; refused before any of it is allocated.
        params = MatrixParams(M=3, N=10**8, p=0.3)
        for kw in (dict(horizon=5.0), dict()):
            with pytest.raises(ValueError, match="state alone"):
                simulate_matrix(params, SimulationConfig(master_seed=1, **kw))

    def test_entry_clock_state_beyond_cell_cap_rejected(self):
        # With entry clocks the state is N x M: 2 x 10^8 cells here, though
        # M + N is 3 x 10^4; refused before any of it is allocated.
        params = MatrixParams(M=20000, N=10000, p=0.3, lambda_m=1.0)
        for kw in (dict(horizon=5.0), dict()):
            with pytest.raises(ValueError, match="state alone"):
                simulate_matrix(params, SimulationConfig(master_seed=1, **kw))

    def test_lambda_zero_state_is_one_cell_per_row_and_column(self):
        # At lambda_m = 0 from the empty matrix the state is each row's last
        # ring and each column's last reset, M + N = 2 x 10^5 cells where N*M
        # would be 10^10. A run to a horizon of 2000 (about 2000 rings and
        # resets, one window) takes under a second and 64 MB.
        params = MatrixParams(M=10**5, N=10**5, p=0.5)
        cfg = SimulationConfig(master_seed=1, horizon=2000.0)
        began = time.perf_counter()
        traj = simulate_matrix(params, cfg)
        assert time.perf_counter() - began < 1.0
        assert traj.end_time == 2000.0 and traj.tau is None and traj.end_value == 0
        tracemalloc.start()
        try:
            simulate_matrix(params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_matrix_horizon_without_entry_clocks_costs_its_events(self):
        # At lambda_m = 0 a window costs its q + p = 1 rings and resets per
        # time unit, so 2e5 time units are 2e5 events; charged q + p*M cells
        # they would be 2e8. No column fills between two of its resets, so
        # the end count stays at N*P = 0 and the event count is Poisson.
        params = MatrixParams(M=2000, N=2, p=0.5)
        horizon, n = 2e5, 20
        runs = _runs(params, 5050, n, horizon=horizon)
        ends = np.array([t.end_value for t in runs], dtype=float)
        p_full = analytics.steady_allones_probability(params)
        se = math.sqrt(params.N * p_full * (1 - p_full) / n)
        assert abs(ends.mean() - params.N * p_full) <= 4 * se
        mu = params.total_rate * horizon
        events = np.array([t.n_events for t in runs], dtype=float)
        assert abs(events.mean() - mu) < 4 * math.sqrt(mu / n)

    def test_single_column_climb_hit_run_beyond_event_cap_rejected(self):
        # A climb reaches M with probability 8.3e-9, above
        # MIN_REACH_PROBABILITY, but the mean hitting time is 1.5e9 at one
        # event per time unit: laid out climb by climb, a hit run would
        # take ~1.5e9 events, and a run to a horizon of 1e12 about 1e12.
        # Counting climbs stays O(M).
        params = SingleColumnParams.with_a(64, 6.0)
        for cfg, remedy in ((hit_config(1, record_series=True), "drop the series or give a horizon"),
                            (hit_config(1, horizon=1e12), "shorten the run")):
            with pytest.raises(ValueError, match=f"expected events .*; {remedy}"):
                simulate_single_column(params, cfg)
        assert simulate_single_column(params, hit_config(1)).tau > 0

    def test_rare_matrix_hit_run_beyond_cell_cap_rejected(self):
        # One epoch fills the column with probability P_fill = 1.66e-9, above
        # MIN_REACH_PROBABILITY. P(tau <= t) <= (N + p*t)*P_fill puts the
        # median of tau above (1/(2*P_fill) - N)/p = 6.0e8 time units, at
        # q + p = 1 cell per time unit. A run with a horizon is charged its
        # horizon instead.
        params = MatrixParams(M=16, N=1, p=0.5)
        for horizon, remedy in ((None, "give a horizon"), (1e12, "shorten the run")):
            cfg = SimulationConfig(master_seed=1, horizon=horizon)
            with pytest.raises(ValueError, match=f"expected events .*; {remedy}"):
                simulate_matrix(params, cfg)
        cfg = SimulationConfig(master_seed=1, horizon=1e3)
        assert simulate_matrix(params, cfg).end_time == 1e3

    def test_rare_matrix_hit_run_within_cell_cap_runs(self):
        # P_fill = 7.8e-5: the median bound is 1.3e4 cells, and a run ends
        # at its first full column.
        params = MatrixParams(M=8, N=1, p=0.5)
        cfg = SimulationConfig(master_seed=1)
        traj = simulate_matrix(params, cfg)
        assert traj.tau is not None and traj.end_value == 1


class TestSingleColumn:
    def test_absorbed_start_is_instant(self):
        params = SingleColumnParams(M=3, alpha=1.0, p=0.5)
        traj = simulate_single_column(params, hit_config(42), start=3)
        assert traj.tau == 0.0
        assert traj.n_events == 0

    def test_deterministic_given_seed_and_replicate(self):
        params = SingleColumnParams(M=4, alpha=1.2, p=0.4)
        a = simulate_single_column(params, hit_config(99, 3, record_series=True))
        b = simulate_single_column(params, hit_config(99, 3, record_series=True))
        assert a.tau == b.tau
        assert np.array_equal(a.series_times, b.series_times)
        c = simulate_single_column(params, hit_config(99, 4))
        assert c.tau != a.tau

    def test_series_times_strictly_increase(self):
        params = SingleColumnParams(M=4, alpha=1.0, p=0.3)
        traj = simulate_single_column(params, hit_config(7, record_series=True))
        assert (np.diff(traj.series_times) > 0).all()
        assert traj.series_values[-1] == 4
        assert traj.tau == traj.series_times[-1]

    def test_horizon_caps_run(self):
        params = SingleColumnParams(M=50, alpha=1.0, p=0.9)
        cfg = SimulationConfig(master_seed=5, horizon=10.0)
        traj = simulate_single_column(params, cfg)
        assert traj.tau is None
        assert traj.end_time == 10.0

    def test_mean_hitting_time_m1(self):
        # tau ~ Exp(1/2): mean 2.0, checked within 3 sigma of the mean.
        params = SingleColumnParams(M=1, alpha=1.0, p=0.5)
        taus = hitting_time_batch(params, 100_000, master_seed=2024)
        assert 1.94 <= taus.mean() <= 2.06

    def test_mean_hitting_time_m2(self):
        params = SingleColumnParams(M=2, alpha=1.0, p=0.5)
        taus = hitting_time_batch(params, 40_000, master_seed=77)
        exact = 10.0
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() - exact) < 3 * se

    def test_embedded_chain_frequencies(self):
        # Conditional on leaving state k, the uniformized step law gives
        # P(up | move) = q'(1-k/M) / (q'(1-k/M) + p'); empirical
        # frequencies must match within 4 sigma per state.
        params = SingleColumnParams(M=4, alpha=1.3, p=0.35)
        cfg = SimulationConfig(master_seed=31, horizon=40_000.0, record_series=True)
        traj = simulate_single_column(params, cfg)
        states = traj.series_values
        lam = params.uniformization_rate
        p_d = params.p / lam
        q_d = params.alpha * params.q / lam
        for k in range(1, params.M):
            from_k = states[:-1] == k
            n_k = int(from_k.sum())
            ups = int((states[1:][from_k] == k + 1).sum())
            expected = (q_d * (1 - k / params.M)) / (q_d * (1 - k / params.M) + p_d)
            se = math.sqrt(expected * (1 - expected) / n_k)
            assert abs(ups / n_k - expected) < 4 * se, f"state {k}"

    def test_occupation_fractions_match_invariant_law(self):
        for M in (1, 4, 8):
            params = SingleColumnParams(M=M, alpha=1.0, p=0.3)
            horizon = 1_000_000.0 / params.uniformization_rate
            cfg = SimulationConfig(master_seed=M, horizon=horizon, record_series=True)
            traj = simulate_single_column(params, cfg)
            occ = occupation_fractions(traj, M + 1)
            tv = empirical_tv(occ, analytics.invariant_pmf(params))
            assert tv < 0.02, f"M={M}: tv={tv}"

    def test_occupation_chi_square_at_99_level(self):
        # States sampled at widely spaced times are near-independent; the
        # pooled chi-square must not reject at the 99% level.
        params = SingleColumnParams(M=8, alpha=1.0, p=0.3)
        spacing, n_samples = 25.0, 4000
        cfg = SimulationConfig(master_seed=88, horizon=spacing * (n_samples + 1), record_series=True)
        traj = simulate_single_column(params, cfg)
        sample_times = spacing * np.arange(1, n_samples + 1)
        idx = np.searchsorted(traj.series_times, sample_times, side="right") - 1
        sampled = traj.series_values[idx]
        counts = np.bincount(sampled, minlength=9)
        _, _, p_value = chi_square_gof(counts, analytics.invariant_pmf(params))
        assert p_value > 0.01


class TestBatch:
    def test_batch_of_one_equals_single_run(self):
        params = SingleColumnParams(M=3, alpha=1.0, p=0.5)
        taus = hitting_time_batch(params, 1, master_seed=11)
        traj = simulate_single_column(params, hit_config(11, 0))
        assert taus[0] == traj.tau
        # Batches spanning two blocks of replicate keys equal single runs
        # made in the opposite order.
        n = rng_module._BLOCK + 3
        taus = hitting_time_batch(params, n, master_seed=12)
        single = [simulate_single_column(params, hit_config(12, r)).tau for r in reversed(range(n))]
        assert np.array_equal(taus, single[::-1])
        params = MatrixParams(M=2, N=2, p=0.4)
        taus = hitting_time_batch(params, n, master_seed=13)
        single = [
            simulate_matrix(params, SimulationConfig(master_seed=13, replicate_index=r)).tau
            for r in reversed(range(n))
        ]
        assert np.array_equal(taus, single[::-1])

    def test_batch_reproducible(self):
        params = SingleColumnParams(M=3, alpha=1.0, p=0.5)
        a = hitting_time_batch(params, 50, master_seed=5)
        b = hitting_time_batch(params, 50, master_seed=5)
        assert np.array_equal(a, b)

    def test_matrix_batch(self):
        params = MatrixParams(M=2, N=2, p=0.4)
        taus = hitting_time_batch(params, 30, master_seed=8)
        assert (taus > 0).all()

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            hitting_time_batch(SingleColumnParams(M=2, alpha=1.0, p=0.5), 0, master_seed=1)

    def test_rejects_batch_beyond_the_event_cap(self):
        # Every replicate costs at least one event: refused before a run.
        params = MatrixParams(M=3, N=2, p=0.45, lambda_m=0.3)
        with pytest.raises(ValueError, match="replicates exceed"):
            hitting_time_batch(params, simulate_module.MAX_EXPECTED_EVENTS + 1, master_seed=1)


class TestRegenerativeHit:
    """Hit-only single-column runs count their climbs instead of laying them out.

    The Gillespie simulator in ``immunochain.reference`` is the reference;
    every tolerance is fixed in advance.
    """

    PARAMS = SingleColumnParams(M=8, alpha=1.3, p=0.2)

    def test_law_matches_event_loop(self):
        n_fast, n_slow = 20_000, 3000
        fast = [simulate_single_column(self.PARAMS, hit_config(606, r)) for r in range(n_fast)]
        slow = [column_gillespie(self.PARAMS, hit_config(607, r)) for r in range(n_slow)]
        assert fast[0].series_times is None and fast[0].end_value == self.PARAMS.M
        assert all(t.end_time == t.tau for t in fast)
        tau_fast = np.array([t.tau for t in fast])
        _, p_value = ks_2samp(tau_fast, [t.tau for t in slow])
        assert p_value > 0.001
        exact = analytics.hitting_time_mean_exact(self.PARAMS, 0)
        se = math.sqrt(analytics.hitting_time_variance_exact(self.PARAMS, 0) / n_fast)
        assert abs(tau_fast.mean() - exact) < 4 * se
        ev_fast = np.array([t.n_events for t in fast], dtype=float)
        ev_slow = np.array([t.n_events for t in slow], dtype=float)
        se = math.sqrt(ev_fast.var(ddof=1) / n_fast + ev_slow.var(ddof=1) / n_slow)
        assert abs(ev_fast.mean() - ev_slow.mean()) < 4 * se

    def test_visit_bookkeeping_with_scripted_draws(self):
        # Scripted draws: the first climb from level 2 resets from level 4,
        # then two climbs from 0 reset from levels 1 and 6, then one climb
        # succeeds. Gamma variates return their shape, so tau is the sum
        # of visits times mean holding times.
        params, start = self.PARAMS, 2
        M = params.M
        up = [1.0] + [
            params.alpha * params.q * (1 - k / M) / (params.alpha * params.q * (1 - k / M) + params.p)
            for k in range(1, M)
        ]
        reach = np.concatenate([[1.0], np.cumprod(up)])

        class Scripted:
            def random(self):
                return 0.5 * (reach[4] + reach[5]) / reach[start]

            def geometric(self, p):
                assert p == pytest.approx(reach[M], rel=1e-12)
                return 3

            def multinomial(self, n, pvals):
                assert n == 2 and len(pvals) == M - 1
                return np.array([1, 0, 0, 0, 0, 1, 0])

            def standard_gamma(self, shape):
                return np.asarray(shape, dtype=float)

        visits = np.array([3, 3, 3, 3, 3, 2, 2, 1])
        traj = simulate_module._regenerative_hit(
            simulate_module._column_tables(params), M, start, Scripted()
        )
        rates = [params.alpha * params.q * (1 - k / M) + (params.p if k else 0.0) for k in range(M)]
        assert traj.n_events == visits.sum() == 20
        assert traj.tau == pytest.approx(float(np.sum(visits / np.array(rates))), rel=1e-12)
        assert traj.end_value == M

    @pytest.mark.parametrize("start", range(1, 8))
    def test_mean_from_every_start(self, start):
        n = 4000
        taus = [
            simulate_single_column(self.PARAMS, hit_config(700 + start, r), start=start).tau
            for r in range(n)
        ]
        exact = analytics.hitting_time_mean_exact(self.PARAMS, start)
        se = math.sqrt(analytics.hitting_time_variance_exact(self.PARAMS, start) / n)
        assert abs(np.mean(taus) - exact) < 4 * se

    def test_mean_and_variance_at_m64(self):
        params = SingleColumnParams.with_a(64, 1.0)
        n = 20_000
        taus = hitting_time_batch(params, n, master_seed=6464)
        mean = analytics.hitting_time_mean_exact(params, 0)
        var = analytics.hitting_time_variance_exact(params, 0)
        assert abs(taus.mean() - mean) < 4 * math.sqrt(var / n)
        # Standard error of the sample variance from the sample's own
        # fourth central moment: Var(s^2) ~ (m4 - s^4) / n.
        dev = taus - taus.mean()
        s2 = float(np.mean(dev**2))
        se_var = math.sqrt((float(np.mean(dev**4)) - s2 * s2) / n)
        assert abs(taus.var(ddof=1) - var) < 4 * se_var

    def test_unreachable_target_fails_loudly(self):
        # A climb from 0 reaches M=64 with probability 8.7e-24 here; the
        # exact mean hitting time is 5.4e23.
        params = SingleColumnParams(M=64, alpha=1.0, p=0.3)
        with pytest.raises(ValueError, match=r"5\.447e\+23"):
            hitting_time_batch(params, 1, master_seed=1)
        with pytest.raises(ValueError, match="beyond simulation"):
            simulate_single_column(params, hit_config(1, record_series=True))


def _column_runs(params, seed, n, start=0, **kw):
    return [
        simulate_single_column(params, SimulationConfig(master_seed=seed, replicate_index=r, **kw), start=start)
        for r in range(n)
    ]


def _column_reference_runs(params, seed, n, start=0, **kw):
    return [
        column_gillespie(params, SimulationConfig(master_seed=seed, replicate_index=r, **kw), start=start)
        for r in range(n)
    ]


class TestClimbPath:
    """Single-column runs that are not hit-only lay their climbs out.

    The Gillespie simulator in ``immunochain.reference`` and ``expm(Q*t)``
    of the oracle's generator are the references; every tolerance is
    fixed in advance: z < 4, KS p > 0.001, chi-square p > 0.001.
    """

    PARAMS = SingleColumnParams(M=5, alpha=1.2, p=0.25)

    @pytest.mark.parametrize("start", [0, 2, 5])
    def test_series_invariants(self, start):
        M = self.PARAMS.M
        for kw in (dict(horizon=60.0), dict(), dict(horizon=4.0)):
            for traj in _column_runs(self.PARAMS, 9100 + start, 30, start, record_series=True, **kw):
                times, values = traj.series_times, traj.series_values
                assert times[0] == 0.0 and values[0] == start
                assert (np.diff(times) > 0).all()
                before, after = values[:-1], values[1:]
                assert ((after == before + 1) | ((after == 0) & (before > 0))).all()
                assert traj.n_events == times.size - 1
                assert traj.value_at(traj.end_time) == traj.end_value
                reached = np.flatnonzero(values == M)
                assert traj.tau == (times[reached[0]] if reached.size else None)
                if "horizon" not in kw:
                    assert traj.tau == times[-1] == traj.end_time and traj.end_value == M
                else:
                    assert traj.end_time == kw["horizon"] >= times[-1]

    def test_count_law_from_nonzero_start(self):
        params, start, n = SingleColumnParams(M=4, alpha=1.0, p=0.3), 2, 4000
        rates = oracle.single_column_generator(params).rate_matrix
        runs = _column_runs(params, 9200, n, start, horizon=4.0, record_series=True)
        for t in (0.5, 1.5, 3.0, 4.0):
            counts = np.bincount([r.value_at(t) for r in runs], minlength=params.M + 1)
            _, _, p_value = chi_square_gof(counts, expm(rates * t)[start])
            assert p_value > 0.001, t

    def test_horizon_spanning_many_windows(self):
        # Windows hold 2^10, 2^11, ... up to 2^14 levels, so a horizon of
        # 3 * 2^14 expected events spans seven of them. A window that did
        # not start from where the last one ended would show in the end law
        # or the event count; the end is stationary by then.
        params = SingleColumnParams(M=4, alpha=1.0, p=0.3)
        pmf = analytics.invariant_pmf(params)
        event_rate = sum(pmf[k] * sum(r for _, r in enumerate_rates(k, params)) for k in range(params.M + 1))
        horizon = 3 * simulate_module._WINDOW_CELLS / event_rate
        n = 200
        runs = _column_runs(params, 9300, n, horizon=horizon)
        counts = np.bincount([t.end_value for t in runs], minlength=params.M + 1)
        _, _, p_value = chi_square_gof(counts, pmf)
        assert p_value > 0.001
        events = np.array([t.n_events for t in runs], dtype=float)
        assert abs(events.mean() - event_rate * horizon) < 4 * events.std(ddof=1) / math.sqrt(n)

    def test_start_where_reach_underflows(self):
        # reach[k] underflows to 0 near k = 1075 here; the climb from 1500
        # must still go up with probability (1 - k/M) / (2 - k/M) per level.
        params, start = SingleColumnParams(M=2000, alpha=1.0, p=0.5), 1500
        assert simulate_module._column_tables(params).reach[start] == 0.0
        fast = _column_runs(params, 9700, 3000, start, horizon=2.0, record_series=True)
        slow = _column_reference_runs(params, 9701, 2000, start, horizon=2.0)
        for traj in fast:
            before, after = traj.series_values[:-1], traj.series_values[1:]
            assert ((after == before + 1) | ((after == 0) & (before > 0))).all()
        for field in ("end_value", "n_events"):
            a, b = [getattr(t, field) for t in fast], [getattr(t, field) for t in slow]
            assert _z_means(a, b) < 4, field

    @pytest.mark.parametrize("start", [0, 3])
    def test_hit_law_matches_reference(self, start):
        fast = _column_runs(self.PARAMS, 9400 + start, 4000, start, record_series=True)
        slow = _column_reference_runs(self.PARAMS, 9410 + start, 2000, start)
        assert all(t.end_value == self.PARAMS.M and t.end_time == t.tau for t in fast)
        _, p_value = ks_2samp([t.tau for t in fast], [t.tau for t in slow])
        assert p_value > 0.001
        assert _z_means([t.n_events for t in fast], [t.n_events for t in slow]) < 4

    def test_horizon_law_matches_reference(self):
        fast = _column_runs(self.PARAMS, 9500, 4000, 2, horizon=6.0)
        slow = _column_reference_runs(self.PARAMS, 9501, 2000, 2, horizon=6.0)
        for field in ("end_value", "n_events"):
            a, b = [getattr(t, field) for t in fast], [getattr(t, field) for t in slow]
            assert _z_means(a, b) < 4, field
            assert _z_vars(a, b) < 4, field
        reached = [[t.tau is not None for t in runs] for runs in (fast, slow)]
        assert _z_means(*reached) < 4

    def test_horizon_law_at_the_mean_hitting_time(self):
        # A horizon at about the mean hitting time, so runs that hit by it
        # and runs that do not are both common.
        horizon = analytics.hitting_time_mean_exact(self.PARAMS, 0)
        fast = _column_runs(self.PARAMS, 9600, 4000, horizon=horizon)
        slow = _column_reference_runs(self.PARAMS, 9601, 2000, horizon=horizon)
        assert all(t.end_time == horizon for t in fast)
        for field in ("end_value", "n_events"):
            assert _z_means([getattr(t, field) for t in fast], [getattr(t, field) for t in slow]) < 4, field
        assert _z_means([t.tau is None for t in fast], [t.tau is None for t in slow]) < 4


class TestMatrix:
    def test_lambda_zero_never_sets_entries(self):
        params = MatrixParams(M=3, N=2, p=0.4, lambda_m=0.0)
        cfg = SimulationConfig(master_seed=13, horizon=200.0)
        traj, events, _ = matrix_gillespie(params, cfg)
        assert traj.n_events == len(events) > 50
        assert all(ev.kind != ENTRY_SET for ev in events)

    def test_entry_events_present_with_lambda(self):
        params = MatrixParams(M=3, N=2, p=0.4, lambda_m=0.5)
        cfg = SimulationConfig(master_seed=13, horizon=100.0)
        _, events, _ = matrix_gillespie(params, cfg)
        assert any(ev.kind == ENTRY_SET for ev in events)

    def test_two_state_occupancy(self):
        # M = N = 1, p = 1/2: symmetric two-state chain, half time in [1].
        params = MatrixParams(M=1, N=1, p=0.5)
        cfg = SimulationConfig(master_seed=3, horizon=200_000.0, record_series=True)
        traj = simulate_matrix(params, cfg)
        occ = occupation_fractions(traj, 2)
        assert occ[1] == pytest.approx(0.5, abs=0.02)

    def test_event_replay_reproduces_final_state(self):
        # The reference's final matrix and end count are those of its events.
        for seed in (1, 2, 3):
            params = MatrixParams(M=3, N=3, p=0.3, lambda_m=0.2)
            cfg = SimulationConfig(master_seed=seed, horizon=60.0)
            traj, events, final = matrix_gillespie(params, cfg)
            state = MatrixState.zeros(3, 3)
            for ev in events:
                state = apply_event(state, ev)
            assert state == final
            assert traj.end_value == final.all_ones_count

    def test_event_times_strictly_increase(self):
        params = MatrixParams(M=2, N=2, p=0.5, lambda_m=0.1)
        cfg = SimulationConfig(master_seed=21, horizon=100.0)
        _, events, _ = matrix_gillespie(params, cfg)
        times = [ev.time for ev in events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_full_column_needs_fresh_rows_after_reset(self):
        # lambda = 0, empty start: at tau the full column must have every
        # row set after that column's last reset.
        params = MatrixParams(M=3, N=2, p=0.45, lambda_m=0.0)
        for seed in range(6):
            cfg = SimulationConfig(master_seed=seed)
            traj, events, final = matrix_gillespie(params, cfg)
            assert traj.tau is not None
            full_cols = [j for j in range(2) if final.column_counts[j] == params.M]
            assert full_cols
            for j in full_cols:
                last_reset = max(
                    (ev.time for ev in events if ev.kind == COLUMN_ZERO and ev.col == j),
                    default=0.0,
                )
                for i in range(params.M):
                    row_times = [
                        ev.time for ev in events
                        if ev.kind == ROW_SET and ev.row == i and ev.time > last_reset
                    ]
                    assert row_times, f"row {i} never set after reset of column {j}"

    def test_start_with_full_column_tau_zero(self):
        params = MatrixParams(M=2, N=2, p=0.4)
        start = MatrixState.from_entries([[1, 0], [1, 0]])
        cfg = SimulationConfig(master_seed=1)
        traj = simulate_matrix(params, cfg, start=start)
        assert traj.tau == 0.0

    def test_empirical_allones_probability_matches_analytics(self):
        # Long-run column-full frequency against the Gamma-ratio law,
        # within 3 standard errors over independent endpoint replicates.
        params = MatrixParams(M=3, N=2, p=0.3, lambda_m=0.1)
        exact = analytics.steady_allones_probability(params)
        horizon = 80.0
        hits = []
        for r in range(1500):
            cfg = SimulationConfig(master_seed=909, replicate_index=r, horizon=horizon)
            traj = simulate_matrix(params, cfg)
            hits.append(traj.end_value / params.N)
        hits = np.array(hits)
        se = hits.std(ddof=1) / math.sqrt(hits.size)
        assert abs(hits.mean() - exact) < 3 * se

    def test_trajectory_value_at(self):
        traj = Trajectory(
            tau=None, end_time=10.0, end_value=2, n_events=2,
            series_times=np.array([0.0, 4.0]), series_values=np.array([0, 2]),
        )
        assert traj.value_at(3.9) == 0
        assert traj.value_at(4.0) == 2
        with pytest.raises(ValueError):
            traj.value_at(-1.0)


def _z_means(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return abs(a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)


def _var_se2(x):
    # Squared standard error of the sample variance, from the sample's own
    # fourth central moment: Var(s^2) ~ (m4 - s^4) / n.
    dev = x - x.mean()
    s2 = float(np.mean(dev**2))
    return (float(np.mean(dev**4)) - s2 * s2) / x.size


def _z_vars(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return abs(a.var(ddof=1) - b.var(ddof=1)) / math.sqrt(_var_se2(a) + _var_se2(b))


def _runs(params, seed, n, start=None, **kw):
    return [
        simulate_matrix(params, SimulationConfig(master_seed=seed, replicate_index=r, **kw), start=start)
        for r in range(n)
    ]


def _reference_runs(params, seed, n, start=None, **kw):
    return [
        matrix_gillespie(params, SimulationConfig(master_seed=seed, replicate_index=r, **kw), start=start)[0]
        for r in range(n)
    ]


def _assert_hit_law_matches_reference(params, seed, past, start=None):
    """1500 hit runs from ``start``, most of them past time ``past``, against
    600 reference runs: KS on ``tau``, z < 4 on ``n_events`` and ``end_value``."""
    fast = _runs(params, seed, 1500, start=start)
    slow = _reference_runs(params, seed + 1, 600, start=start)
    taus = np.array([t.tau for t in fast])
    assert np.mean(taus > past) > 0.5
    _, p_value = ks_2samp(taus, [t.tau for t in slow])
    assert p_value > 0.001
    assert _z_means([t.n_events for t in fast], [t.n_events for t in slow]) < 4
    assert _z_means([t.end_value for t in fast], [t.end_value for t in slow]) < 4


def _window_calls(monkeypatch) -> list:
    """The ``(t0, t1)`` of every epoch window run after this call."""
    calls = []
    epoch_window = simulate_module._epoch_window

    def counted(*args, **kwargs):
        calls.append(args[3:5])
        return epoch_window(*args, **kwargs)

    monkeypatch.setattr(simulate_module, "_epoch_window", counted)
    return calls


class TestEpochPath:
    """Matrix runs are drawn from per-column reset epochs.

    The Gillespie simulator in ``immunochain.reference`` is the reference;
    every tolerance is fixed in advance: z < 4, KS p > 0.001.
    """

    T = 15.0

    @staticmethod
    def point(lam):
        return MatrixParams(M=6, N=4, p=0.3, lambda_m=lam)

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_end_count_matches_event_loop(self, lam):
        params = self.point(lam)
        fast = _runs(params, 5100, 6000, horizon=self.T)
        slow = _reference_runs(params, 5101, 2000, horizon=self.T)
        assert all(t.end_time == self.T for t in fast)
        ends_fast = [t.end_value for t in fast]
        ends_slow = [t.end_value for t in slow]
        assert _z_means(ends_fast, ends_slow) < 4
        assert _z_vars(ends_fast, ends_slow) < 4

    @pytest.mark.parametrize(
        "lam, start",
        [
            pytest.param(0.0, None, id="0.0"),
            pytest.param(0.2, None, id="0.2"),
            pytest.param(
                0.2,
                MatrixState.from_entries(
                    [[1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0]]
                ),
                id="0.2-start",
            ),
        ],
    )
    def test_event_count_is_poisson(self, lam, start):
        # Every clock rings whatever the state, so a horizon run's event
        # count is exactly Poisson(total_rate * T) from any start. From a
        # start with half its entries set (one column full), the set
        # entries' clocks count their rings from a drawn first ring, as
        # unset ones do.
        params = self.point(lam)
        n = 6000
        events = np.array([t.n_events for t in _runs(params, 5200, n, start=start, horizon=self.T)], dtype=float)
        mu = params.total_rate * self.T
        assert abs(events.mean() - mu) < 4 * math.sqrt(mu / n)
        assert abs(events.var(ddof=1) - mu) < 4 * math.sqrt((mu + 2 * mu * mu) / n)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_first_full_column_law(self, lam):
        params = MatrixParams(M=3, N=2, p=0.45, lambda_m=lam)
        fast = _runs(params, 5300, 4000)
        slow = _reference_runs(params, 5301, 2000)
        assert all(t.end_time == t.tau and t.end_value >= 1 for t in fast)
        _, p_value = ks_2samp([t.tau for t in fast], [t.tau for t in slow])
        assert p_value > 0.001
        assert _z_means([t.n_events for t in fast], [t.n_events for t in slow]) < 4
        assert _z_means([t.end_value for t in fast], [t.end_value for t in slow]) < 4

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_count_at_grid_times(self, lam):
        params = self.point(lam)
        fast = _runs(params, 5400, 4000, horizon=self.T, record_series=True)
        slow = _reference_runs(params, 5401, 2000, horizon=self.T, record_series=True)
        for t in (2.5, 5.0, 7.5, 10.0, 12.5, self.T):
            assert _z_means([r.value_at(t) for r in fast], [r.value_at(t) for r in slow]) < 4, t

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_nonzero_start(self, lam):
        params = MatrixParams(M=3, N=2, p=0.3, lambda_m=lam)
        start = MatrixState.from_entries([[1, 1], [1, 0], [0, 1]])
        fast = _runs(params, 5500, 4000, start=start, horizon=2.0)
        slow = _reference_runs(params, 5501, 2000, start=start, horizon=2.0)
        assert _z_means([t.end_value for t in fast], [t.end_value for t in slow]) < 4
        fast = _runs(params, 5502, 4000, start=start)
        slow = _reference_runs(params, 5503, 2000, start=start)
        _, p_value = ks_2samp([t.tau for t in fast], [t.tau for t in slow])
        assert p_value > 0.001

    def test_ring_fill_matches_a_row_by_row_scan(self):
        # At lambda_m = 0 the prefix-maximum search must give every epoch the
        # fill time, and every column the entries at the window's end, that a
        # scan of each row's first ring after the epoch's start gives. The
        # state carried in is each row's last ring before t0, each column's
        # last reset before t0 (-inf for none) and a start's entries, held
        # in the columns not reset since; entry (i, j) is one iff row i rang
        # after column j's last reset, or it is held.
        rng = np.random.default_rng(5)
        t0, t1 = 0.0, 10.0
        for _ in range(300):
            M, N = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            ring_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 40))))
            ring_row = rng.integers(0, M, ring_t.size).astype(np.uint16)
            reset_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 6))))
            starts = np.concatenate((np.full(N, t0), reset_t))
            cols = np.concatenate((np.arange(N), rng.integers(0, N, reset_t.size)))
            last = np.array([not np.any((cols == c) & (starts > s)) for s, c in zip(starts, cols)])
            past_row = rng.permutation(M)[: int(rng.integers(0, M + 1))].astype(np.uint16)
            past_t = np.sort(rng.uniform(t0 - 5.0, t0, past_row.size))
            reset_at = np.where(rng.random(N) < 0.5, rng.uniform(t0 - 5.0, t0, N), -np.inf)
            held = None if rng.random() < 0.5 else rng.random((N, M)) < rng.choice([0.0, 0.5, 1.0])
            state = (past_t, past_row, reset_at, held)
            fill, (end_t, end_row, end_reset, end_held) = simulate_module._ring_fill(
                M, state, ring_t, ring_row, starts, cols, last
            )
            all_t, all_row = np.concatenate((past_t, ring_t)), np.concatenate((past_row, ring_row))
            for b, (s, c) in enumerate(zip(starts, cols)):
                if b < N:
                    s = reset_at[b]
                set_at = [
                    -math.inf if b < N and s == -math.inf and held is not None and held[b, i]
                    else min(all_t[(all_row == i) & (all_t > s)], default=math.inf)
                    for i in range(M)
                ]
                assert fill[b] == max(set_at)
                if last[b]:
                    assert end_reset[c] == s
                    rang = [max(end_t[end_row == i], default=-math.inf) > s for i in range(M)]
                    kept = [end_held is not None and s == -math.inf and end_held[c, i] for i in range(M)]
                    assert [r or k for r, k in zip(rang, kept)] == [x < t1 for x in set_at]
            assert (np.diff(end_t) >= 0).all() and sorted(end_row.tolist()) == sorted(set(all_row.tolist()))
            assert all(end_t[end_row == i].item() == all_t[all_row == i].max() for i in end_row)

    def test_empty_start_state_is_dropped_once_every_row_has_rung(self, monkeypatch):
        # At lambda_m = 0 a start's entries matter only in columns not reset
        # since, and only for rows that have not rung since the start. Here
        # every row has rung in the first of five 64-unit windows (each rings
        # about 7.5 times there), so later windows carry no entries, and the
        # empty matrix as a start gives the run from no start.
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 64)
        held_in = []
        ring_fill = simulate_module._ring_fill

        def recorded(M, state, *args):
            held_in.append(state[3] is not None)
            return ring_fill(M, state, *args)

        monkeypatch.setattr(simulate_module, "_ring_fill", recorded)
        params = MatrixParams(M=6, N=4, p=0.3)
        config = SimulationConfig(master_seed=9, horizon=4.5 * 64, record_series=True)
        plain = simulate_matrix(params, config)
        assert not any(held_in)
        held_in.clear()
        started = simulate_matrix(params, config, start=MatrixState.zeros(6, 4))
        assert held_in == [True, False, False, False, False]
        for field in dataclasses.fields(Trajectory):
            assert np.array_equal(getattr(started, field.name), getattr(plain, field.name)), field.name

    def test_first_full_column_law_across_windows(self, monkeypatch):
        # Hit windows of 16, 32, 64, 64, ... cells, each about one time unit
        # here, against a median hit near 120: the columns' states carry
        # through several lambda_m = 0 windows before one fills.
        monkeypatch.setattr(simulate_module, "_FIRST_WINDOW_CELLS", 16)
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 64)
        _assert_hit_law_matches_reference(MatrixParams(M=6, N=3, p=0.6), 5350, past=16 + 32)

    def test_first_full_column_law_from_a_start_across_windows(self, monkeypatch):
        # Every column starts full but for row 0, which rings at q/M = 1/16
        # while each column resets at p/N = 1/16: a run mostly ends at row
        # 0's first ring, median near 11, when every column not reset by then
        # fills at once. Hit windows of 2, 4, 4, ... time units, so most runs
        # carry the start's entries into a third window or later.
        monkeypatch.setattr(simulate_module, "_FIRST_WINDOW_CELLS", 2)
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 4)
        entries = np.ones((8, 8), dtype=np.uint8)
        entries[0] = 0
        start = MatrixState.from_entries(entries)
        _assert_hit_law_matches_reference(MatrixParams(M=8, N=8, p=0.5), 5390, past=2 + 4, start=start)

    def test_first_full_column_law_across_entry_clock_windows(self, monkeypatch):
        # As above with entry clocks: hit windows of 4.5, 9 and 16 time
        # units against a median hit near 27, so most runs carry set
        # entries into a third window or later.
        monkeypatch.setattr(simulate_module, "_FIRST_WINDOW_CELLS", 16)
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 64)
        _assert_hit_law_matches_reference(MatrixParams(M=6, N=3, p=0.6, lambda_m=0.3), 5360, past=4.5 + 9)

    def test_first_full_column_law_when_the_state_outgrows_a_window(self, monkeypatch):
        # As above with N*M = 30 cells over a window of 16: every hit window
        # spans the 30 cells it carries, 7.5 time units here, against a
        # median hit near 16, so most runs carry set entries into a window
        # as wide as their state.
        monkeypatch.setattr(simulate_module, "_FIRST_WINDOW_CELLS", 4)
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 16)
        _assert_hit_law_matches_reference(MatrixParams(M=6, N=5, p=0.6, lambda_m=0.3), 5380, past=7.5)

    def test_horizon_law_across_entry_clock_windows(self, monkeypatch):
        # Windows of 8 cells, 8 time units here, to a horizon of 40: the
        # count at grid times on both sides of the window bounds, and the
        # event count, which is exactly Poisson(total_rate * T) and so pins
        # the rings of entries already set when a window begins.
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 8)
        params = MatrixParams(M=4, N=3, p=0.3, lambda_m=0.3)
        horizon = 40.0
        assert horizon > 4 * 8 / (params.q + params.p)
        fast = _runs(params, 5370, 1500, horizon=horizon, record_series=True)
        slow = _reference_runs(params, 5371, 750, horizon=horizon, record_series=True)
        for t in (4.0, 8.0, 9.0, 17.5, 25.0, 33.0, horizon):
            assert _z_means([r.value_at(t) for r in fast], [r.value_at(t) for r in slow]) < 4, t
        n = len(fast)
        events = np.array([t.n_events for t in fast], dtype=float)
        mu = params.total_rate * horizon
        assert abs(events.mean() - mu) < 4 * math.sqrt(mu / n)
        assert abs(events.var(ddof=1) - mu) < 4 * math.sqrt((mu + 2 * mu * mu) / n)

    def test_entry_fill_matches_a_row_by_row_scan(self, monkeypatch):
        # Scripted entry clocks: the stub hands out exponentials and keeps
        # them in order. Every epoch has M cells, the carried epochs first,
        # then the reset epochs; an entry set at t0 has set time t0 and still
        # draws a first ring. Every epoch's fill time, and every column's
        # state at the window's end, must be those of a scan of each row's
        # first ring after the epoch's start. Small windows split the epochs
        # into blocks, one epoch at least, that never mix carried and reset
        # epochs, so reset epochs fall into several blocks, each seeded with
        # the rings after its last reset. Given the epochs' ends (a window
        # that runs to t1), each block's entry-ring terms must be those of the
        # scan: every first ring before its epoch's end, set entries' too,
        # and the time after them.
        class Script:
            def __init__(self, seed):
                self.gen, self.drawn = np.random.default_rng(seed), []

            def exponential(self, scale, size):
                draws = scale * self.gen.standard_exponential(size)
                self.drawn.append(draws.ravel())
                return draws

        rng = np.random.default_rng(6)
        t0, t1 = 2.0, 12.0
        for trial in range(300):
            window = int(rng.choice([4, 10, 1 << 14]))
            monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", window)
            M, N = int(rng.integers(1, 8)), int(rng.integers(1, 7))
            params = MatrixParams(M=M, N=N, p=0.3, lambda_m=float(rng.uniform(0.2, 3.0)))
            ring_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 40))))
            ring_row = rng.integers(0, M, ring_t.size)
            reset_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 6))))
            starts = np.concatenate((np.full(N, t0), reset_t))
            cols = np.concatenate((np.arange(N), rng.integers(0, N, reset_t.size)))
            last = np.array([not np.any((cols == c) & (starts > s)) for s, c in zip(starts, cols)])
            ends = np.array([min(starts[(cols == c) & (starts > s)], default=t1) for s, c in zip(starts, cols)])
            filled = rng.random((N, M)) < rng.choice([0.0, 0.5, 1.0])
            args = (filled, ring_t, ring_row, starts, cols, last, t0, t1)
            script = Script(trial)
            fill, carried, blocks = simulate_module._entry_fill(params, script, *args, True)
            spans = [(lo, hi) for lo, hi, _ in blocks]
            assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
            assert spans[-1][1] == starts.size and all(hi <= N or lo >= N for lo, hi in spans)
            assert all(first.shape == (hi - lo, M) for lo, hi, first in blocks)
            assert all(hi - lo == 1 or first.size <= window for lo, hi, first in blocks)
            draws = iter(np.concatenate([np.empty(0), *script.drawn]).tolist())
            scanned = []  # scanned[b][i]: entry (i, b)'s first ring in epoch b
            for b, (s, c) in enumerate(zip(starts, cols)):
                scanned.append([s + next(draws) for _ in range(M)])
                set_at = [
                    t0 if b < N and filled[b, i]
                    else min(min(ring_t[(ring_row == i) & (ring_t > s)], default=math.inf), scanned[b][i])
                    for i in range(M)
                ]
                assert fill[b] == max(set_at)
                if last[b]:
                    assert list(carried[c]) == [x < t1 for x in set_at]
            assert next(draws, None) is None
            assert np.concatenate([np.empty((0, M))] + [first for *_, first in blocks]).tolist() == scanned
            no_carry = simulate_module._entry_fill(params, Script(trial), *args, False)
            assert no_carry[1] is None and np.array_equal(no_carry[0], fill)
            to_end = simulate_module._entry_fill(params, Script(trial), *args, True, ends)
            assert np.array_equal(to_end[0], fill) and np.array_equal(to_end[1], carried)
            assert [(lo, hi) for lo, hi, *_ in to_end[2]] == spans
            for lo, hi, rings, spare in to_end[2]:
                gaps = [ends[b] - first for b in range(lo, hi) for first in scanned[b]]
                assert rings == sum(g >= 0 for g in gaps)
                assert spare == pytest.approx(math.fsum(max(g, 0.0) for g in gaps), rel=1e-12, abs=1e-12)

    def test_full_start_column_is_carried(self):
        params = MatrixParams(M=2, N=3, p=0.4, lambda_m=0.1)
        start = MatrixState.from_entries([[1, 0, 1], [1, 1, 1]])
        traj = simulate_matrix(
            params, SimulationConfig(master_seed=3, horizon=50.0, record_series=True), start=start
        )
        assert traj.tau == 0.0
        assert traj.series_times[0] == 0.0 and traj.series_values[0] == 2
        assert (np.diff(traj.series_times) > 0).all()

    def test_horizon_spanning_many_windows(self, monkeypatch):
        # Four windows, the last one time unit long: a window that did not
        # start from the state the previous one ended in would show in the
        # count at the horizon, which is stationary by then. Windows of
        # 2^13 cells keep the horizon near 2.5e4 time units.
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 1 << 13)
        params = MatrixParams(M=3, N=2, p=0.3, lambda_m=0.2)
        width = simulate_module._WINDOW_CELLS / (params.q + params.p)
        horizon = 3 * width + 1.0
        n = 300
        runs = _runs(params, 5600, n, horizon=horizon)
        ends = np.array([t.end_value for t in runs], dtype=float)
        exact = params.N * analytics.steady_allones_probability(params)
        assert abs(ends.mean() - exact) < 4 * ends.std(ddof=1) / math.sqrt(n)
        mu = params.total_rate * horizon
        events = np.array([t.n_events for t in runs], dtype=float)
        assert abs(events.mean() - mu) < 4 * math.sqrt(mu / n)

    @pytest.mark.parametrize(
        "horizon, series", [(1.5 * 200 * math.log(200) / 1.9, False), (2500.0, True)],
        ids=["criterion-7", "figure-data"],
    )
    def test_lambda_horizon_run_is_one_window(self, monkeypatch, horizon, series):
        # Rings and resets bound a horizon window at every lambda_m, so the
        # criterion-7 lambda_m = 1 run and a figure-data run, at (200, 100,
        # 0.1, 1), each fit one window.
        calls = _window_calls(monkeypatch)
        params = MatrixParams(M=200, N=100, p=0.1, lambda_m=1.0)
        traj = simulate_matrix(params, SimulationConfig(master_seed=7, horizon=horizon, record_series=series))
        assert calls == [(0.0, horizon)] and traj.end_time == horizon

    def test_lambda_hit_run_is_one_window(self, monkeypatch):
        # A lambda_m > 0 hit window holds its N*M carried cells whatever its
        # span, so it spans as many reset cells: a lambda_m = 1 hit run at
        # (400, 200, 0.1), whose first full column comes near 900, fits one
        # window of about 1960 time units.
        calls = _window_calls(monkeypatch)
        params = MatrixParams(M=400, N=200, p=0.1, lambda_m=1.0)
        traj = simulate_matrix(params, SimulationConfig(master_seed=7))
        assert len(calls) == 1 and calls[0][0] == 0.0
        assert traj.end_time == traj.tau < calls[0][1]

    def test_lambda_hit_window_holds_the_state_cells_it_spans(self):
        # A hit window keeps every epoch's first rings until the hit: about
        # N*M carried and as many reset cells, 8 bytes each, at (1000, 400,
        # 0.1, 1); 32 bytes per entry bound them with room for one block's
        # arrays.
        params = MatrixParams(M=1000, N=400, p=0.1, lambda_m=1.0)
        simulate_matrix(params, SimulationConfig(master_seed=1, horizon=10.0))
        tracemalloc.start()
        try:
            traj = simulate_matrix(params, SimulationConfig(master_seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.tau is not None
        assert peak < 32 * params.M * params.N

    def test_long_lambda_horizon_window_streams_its_cells(self):
        # One window of about 1000 resets at M = 2000: its next rings alone
        # would take 16 MB as one matrix, and every per-cell array must stay
        # within a block of _WINDOW_CELLS cells instead.
        params = MatrixParams(M=2000, N=20, p=0.5, lambda_m=1.0)
        assert 2000.0 < simulate_module._WINDOW_CELLS / (params.q + params.p)
        simulate_matrix(params, SimulationConfig(master_seed=1, horizon=10.0))
        tracemalloc.start()
        try:
            traj = simulate_matrix(params, SimulationConfig(master_seed=1, horizon=2000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.end_time == 2000.0
        assert peak < 4e6

    def test_series_invariants(self, monkeypatch):
        full_start = MatrixState.from_entries([[1, 1, 0, 0, 1], [1, 0, 1, 0, 1]])  # columns 0 and 4 full
        cases = [  # (params, config keys, start, window cells)
            (MatrixParams(M=1, N=1, p=0.5), dict(horizon=300.0), None, None),
            (MatrixParams(M=4, N=3, p=0.2, lambda_m=0.3), dict(horizon=200.0), None, None),
            (MatrixParams(M=2, N=5, p=0.6), dict(horizon=100.0), full_start, None),
            (MatrixParams(M=3, N=2, p=0.45, lambda_m=0.3), dict(), None, None),
            (MatrixParams(M=8, N=2, p=0.9), dict(horizon=5.0), None, None),
            # Small windows: each run crosses several, carrying full
            # columns from one to the next.
            (MatrixParams(M=4, N=3, p=0.2, lambda_m=0.3), dict(horizon=400.0), None, 64),
            (MatrixParams(M=2, N=5, p=0.6), dict(horizon=300.0), full_start, 64),
            (MatrixParams(M=2, N=5, p=0.6, lambda_m=0.4), dict(horizon=300.0), full_start, 64),
        ]
        for params, kw, start, cells in cases:
            if cells is not None:
                monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", cells)
            for traj in _runs(params, 5700, 30, start=start, record_series=True, **kw):
                times, values = traj.series_times, traj.series_values
                assert times[0] == 0.0
                assert values[0] == (0 if start is None else start.all_ones_count)
                assert (np.diff(times) > 0).all()
                assert (np.diff(values) != 0).all()
                assert 0 <= values.min() and values.max() <= params.N
                assert traj.value_at(traj.end_time) == traj.end_value
                if "horizon" not in kw:
                    assert traj.tau == times[-1] == traj.end_time
                else:
                    assert traj.end_time == kw["horizon"] >= times[-1]

    def test_unreachable_target_fails_loudly(self):
        # One reset epoch of a column fills it with probability 4.42e-155.
        params = MatrixParams(M=64, N=1, p=0.99)
        with pytest.raises(ValueError, match=r"4\.42e-155"):
            hitting_time_batch(params, 1, master_seed=1)
        assert simulate_matrix(params, SimulationConfig(master_seed=1, horizon=10.0)).tau is None


class TestTransientLaw:
    """End laws at a fixed time against ``expm(Q*T)`` of the oracle's generator.

    4000 replicates per check, started from zero; chi-square p > 0.001.
    """

    T = 3.0
    N_REPS = 4000
    MATRIX = MatrixParams(M=2, N=2, p=0.4, lambda_m=0.3)

    def matrix_law(self, params=MATRIX):
        return expm(oracle.matrix_generator(params).rate_matrix * self.T)[0]

    def test_reference_final_state_histogram(self):
        config = dict(horizon=self.T)
        finals = [
            matrix_gillespie(self.MATRIX, SimulationConfig(master_seed=8100, replicate_index=r, **config))[2]
            for r in range(self.N_REPS)
        ]
        counts = np.bincount([s.to_index() for s in finals], minlength=16)
        _, _, p_value = chi_square_gof(counts, self.matrix_law())
        assert p_value > 0.001

    @pytest.mark.parametrize("lam", [0.0, MATRIX.lambda_m])
    def test_epoch_path_end_count(self, lam):
        params = MatrixParams(M=self.MATRIX.M, N=self.MATRIX.N, p=self.MATRIX.p, lambda_m=lam)
        M, N = params.M, params.N
        full = [MatrixState.from_index(M, N, s).all_ones_count for s in range(1 << (M * N))]
        law = np.bincount(full, weights=self.matrix_law(params), minlength=N + 1)
        ends = [t.end_value for t in _runs(params, 8200, self.N_REPS, horizon=self.T)]
        _, _, p_value = chi_square_gof(np.bincount(ends, minlength=N + 1), law)
        assert p_value > 0.001

    def test_single_column_count(self):
        params = SingleColumnParams(M=4, alpha=1.0, p=0.3)
        law = expm(oracle.single_column_generator(params).rate_matrix * self.T)[0]
        ends = [
            simulate_single_column(params, SimulationConfig(master_seed=8300, replicate_index=r, horizon=self.T))
            .end_value
            for r in range(self.N_REPS)
        ]
        _, _, p_value = chi_square_gof(np.bincount(ends, minlength=params.M + 1), law)
        assert p_value > 0.001

    def test_reference_single_column_count(self):
        params = SingleColumnParams(M=4, alpha=1.0, p=0.3)
        law = expm(oracle.single_column_generator(params).rate_matrix * self.T)[0]
        ends = [
            column_gillespie(params, SimulationConfig(master_seed=8400, replicate_index=r, horizon=self.T)).end_value
            for r in range(self.N_REPS)
        ]
        _, _, p_value = chi_square_gof(np.bincount(ends, minlength=params.M + 1), law)
        assert p_value > 0.001


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter with the package on its path."""
    src = str(Path(immunochain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _after_package_import(expression: str) -> str:
    """``expression`` printed after importing the package and its CLI."""
    return _run_fresh(f"import sys, immunochain, immunochain.cli; print({expression})")


def test_package_import_leaves_the_reference_out():
    # The Gillespie reference must never become a production path.
    assert _after_package_import("'immunochain.reference' in sys.modules") == "False"


def test_package_import_leaves_scipy_out():
    # scipy is the tests' reference only; importing it costs ~1 s of start-up.
    assert _after_package_import("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"


def _minor_faults_of_20_runs(params: str, horizon: float | None = None) -> int:
    """Minor page faults of 20 warm matrix runs to ``horizon``, or to their
    first full column without one, in a fresh interpreter."""
    code = (
        "import resource\n"
        "from immunochain.models import MatrixParams\n"
        "from immunochain.simulate import SimulationConfig, simulate_matrix\n"
        f"params = {params}\n"
        f"simulate_matrix(params, SimulationConfig(master_seed=1, horizon={horizon!r}))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for r in range(20):\n"
        f"    simulate_matrix(params, SimulationConfig(master_seed=1, replicate_index=r, horizon={horizon!r}))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    return int(_run_fresh(code))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap trims")
def test_matrix_windows_do_not_fault_their_heap_in_again():
    # 20 runs here take about 10 minor page faults with or without the
    # threshold hint in simulate; the hit-run test below is the one that
    # fails without it.
    assert _minor_faults_of_20_runs("MatrixParams(M=200, N=100, p=0.1)", 1766.0) < 200


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap trims")
def test_entry_clock_windows_do_not_fault_their_heap_in_again():
    # The same at the criterion-7 lambda_m = 1 point, whose one window
    # streams its entry cells through blocks.
    horizon = 1.5 * 200 * math.log(200) / 1.9
    assert _minor_faults_of_20_runs("MatrixParams(M=200, N=100, p=0.1, lambda_m=1.0)", horizon) < 200


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap trims")
def test_entry_clock_hit_windows_do_not_fault_their_heap_in_again():
    # Where the hint pays: a lambda_m = 1 hit window keeps the N*M first
    # rings of its carried epochs, and without the hint glibc trims the
    # heap after every window, so 20 runs here take about 7000 minor page
    # faults instead of under 10.
    assert _minor_faults_of_20_runs("MatrixParams(M=400, N=200, p=0.1, lambda_m=1.0)") < 200


def test_package_import_loads_numpy_random():
    # numpy loads numpy.random lazily; rng imports it so that the first
    # replicate of a run does not pay for it.
    assert _after_package_import("'numpy.random' in sys.modules") == "True"
