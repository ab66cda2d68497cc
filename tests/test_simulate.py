"""Simulation: determinism, exact-law checks, cross-module agreement."""

import dataclasses
import math
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
    replicate_runs,
    simulate_matrix,
    simulate_single_column,
)
from immunochain.stats import chi_square_gof, empirical_tv, occupation_fractions


def _reach(params):
    """reach[k], k = 0..M: the probability that a climb from 0 gets to level k."""
    M = params.M
    up = [params.alpha * params.q * (1 - k / M) for k in range(1, M)]
    return np.concatenate([[1.0, 1.0], np.cumprod([u / (u + params.p) for u in up])])


def hit_config(seed, r=0, **kw):
    return SimulationConfig(master_seed=seed, replicate_index=r, **kw)


# The two ways a counted hit whose first climb fails draws its time.
KERNELS = ("exponential", "gamma")


def _use_kernel(monkeypatch, kernel):
    """Move the crossover above every event count ("exponential": one
    exponential per event) or to 0 ("gamma": one gamma variate per level)."""
    monkeypatch.setattr(simulate_module, "_EXPONENTIAL_EVENTS", sys.maxsize if kernel == "exponential" else 0)
    monkeypatch.setattr(simulate_module, "_EXPONENTIAL_EVENTS_PER_LEVEL", 0)


def _reference_regenerative_hit(tables, M, start, rng):
    """A plain copy of ``simulate._regenerative_hit``, the reference its
    trimmed bookkeeping is checked against: the same draws in the same order,
    under the module's crossover read at call time."""
    reach = tables.reach
    x = rng.random() * reach[start]
    if x < reach[M]:
        n, held = M - start, tables.inv_total[start:M]
    else:
        tops = rng.multinomial(int(rng.geometric(reach[M])) - 1, tables.fail_law)
        tops[bisect_left(tables.neg_reach, -x) - 1] += 1
        tops[M - 1] += 1
        if start:
            tops[start - 1] -= 1
        visits = tops[::-1].cumsum()[::-1]
        n = int(visits.sum())
        if n > simulate_module._EXPONENTIAL_EVENTS + simulate_module._EXPONENTIAL_EVENTS_PER_LEVEL * M:
            tau = float(rng.standard_gamma(visits).dot(tables.inv_total[:M])) * tables.unit
            return Trajectory(tau=tau, end_time=tau, end_value=M, n_events=n)
        held = tables.inv_total[:M].repeat(visits)
    tau = float(rng.standard_exponential(n).dot(held)) * tables.unit
    return Trajectory(tau=tau, end_time=tau, end_value=M, n_events=n)


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

    def test_laid_out_hit_run_from_a_start_is_charged_in_o1(self):
        # About 2.25e9 events are expected from level 1 to M = 10^6. The mean
        # from a start above 0 is one Gamma-ratio kernel call, so the charge
        # refuses the run without an O(M) sweep, which took 0.9 s.
        params = SingleColumnParams.with_a(10**6, 0.5)
        tracemalloc.start()
        try:
            began = time.perf_counter()
            with pytest.raises(ValueError, match="expected events .*; drop the series or give a horizon"):
                simulate_single_column(params, hit_config(1, record_series=True), start=1)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 2**20

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

    @pytest.mark.parametrize("start", [2.0, 0.0, 2.5, "2", None, np.float64(2.0), -1, 5, np.int64(-1)])
    def test_a_start_that_is_no_level_is_refused(self, start):
        # Every kind of run, and a batch, refuses a start that is not an
        # integer in [0, M] with one message, before any draw.
        params = SingleColumnParams(M=4, alpha=1.0, p=0.3)
        message = re.escape(f"start must lie in [0, 4], got {start!r}")
        for kw in ({}, {"horizon": 5.0}, {"record_series": True}):
            with pytest.raises(ValueError, match=message):
                simulate_single_column(params, hit_config(1, **kw), start=start)
        if start is not None:  # None starts a batch at level 0
            with pytest.raises(ValueError, match=message):
                hitting_time_batch(params, 3, 1, start=start)

    @pytest.mark.parametrize("start, level", [(True, 1), (False, 0), (np.int64(2), 2), (np.uint8(3), 3)])
    def test_a_bool_or_numpy_integer_start_is_its_level(self, start, level):
        params = SingleColumnParams(M=4, alpha=1.0, p=0.3)
        for kw in ({}, {"horizon": 5.0}, {"record_series": True}):
            got, want = (simulate_single_column(params, hit_config(1, **kw), start=s) for s in (start, level))
            assert (got.tau, got.end_time, got.end_value, got.n_events) == (
                want.tau, want.end_time, want.end_value, want.n_events)
            for a, b in ((got.series_times, want.series_times), (got.series_values, want.series_values)):
                assert (a is None and b is None) or np.array_equal(a, b)
        assert hitting_time_batch(params, 3, 1, start=start).tolist() == hitting_time_batch(params, 3, 1, level).tolist()

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

    @pytest.mark.parametrize("params, start", [
        (SingleColumnParams.with_a(6, 1.0), None),
        (SingleColumnParams.with_a(6, 1.0), 3),
        (MatrixParams(M=3, N=2, p=0.3), None),
        (MatrixParams(M=3, N=2, p=0.3, lambda_m=0.5), None),
        (MatrixParams(M=3, N=2, p=0.3, lambda_m=0.5), MatrixState.from_entries([[1, 0], [1, 1], [0, 1]])),
    ], ids=["column", "column-start", "matrix", "matrix-entry-clocks", "matrix-start"])
    @pytest.mark.parametrize("horizon, series", [(None, False), (None, True), (20.0, False), (20.0, True)])
    def test_replicate_runs_equal_single_runs(self, params, start, horizon, series):
        # Run r of a batch is the public run function under its own config,
        # every field alike, series arrays included.
        run = simulate_single_column if isinstance(params, SingleColumnParams) else simulate_matrix
        kw = {} if start is None else {"start": start}
        batch = list(replicate_runs(params, 6, 21, horizon, series, start))
        assert len(batch) == 6
        for r, traj in enumerate(batch):
            single = run(params, SimulationConfig(21, r, horizon, series), **kw)
            for field in dataclasses.fields(Trajectory):
                got, want = getattr(traj, field.name), getattr(single, field.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), field.name
                else:
                    assert got == want, field.name
            assert (traj.series_times is None) == (not series)

    @pytest.mark.parametrize("n", [0, simulate_module.MAX_EXPECTED_EVENTS + 1])
    def test_replicate_runs_refuses_a_batch_at_the_call(self, monkeypatch, n):
        # The batch is charged when replicate_runs is called, not when its
        # first run is drawn, and no run starts.
        def run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(simulate_module, "simulate_single_column", run)
        monkeypatch.setattr(simulate_module, "simulate_matrix", run)
        for params in (SingleColumnParams.with_a(4, 1.0), MatrixParams(M=3, N=2, p=0.3)):
            with pytest.raises(ValueError, match="at least one replicate" if n == 0 else "replicates exceed"):
                replicate_runs(params, n, 1)


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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_visit_bookkeeping_with_scripted_draws(self, monkeypatch, kernel):
        # Scripted draws: the first climb from level 2 resets from level 4,
        # then two climbs from 0 reset from levels 1 and 6, then one climb
        # succeeds. Gamma variates return their shape and exponentials 1, so
        # under either kernel tau is the sum of visits times mean holding
        # times.
        _use_kernel(monkeypatch, kernel)
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
                assert n == 2 and len(pvals) == M and pvals[0] == 0.0
                return np.array([0, 1, 0, 0, 0, 0, 1, 0])

            def standard_gamma(self, shape):
                drawn.append("gamma")
                assert shape.tolist() == visits.tolist()
                return np.asarray(shape, dtype=float)

            def standard_exponential(self, n):
                drawn.append("exponential")
                assert n == visits.sum()
                return np.ones(n)

        drawn = []
        visits = np.array([3, 3, 3, 3, 3, 2, 2, 1])
        traj = simulate_module._regenerative_hit(
            simulate_module._column_tables(params), M, start, Scripted()
        )
        rates = [params.alpha * params.q * (1 - k / M) + (params.p if k else 0.0) for k in range(M)]
        assert drawn == [kernel]
        assert traj.n_events == visits.sum() == 20
        assert traj.tau == pytest.approx(float(np.sum(visits / np.array(rates))), rel=1e-12)
        assert traj.end_value == M

    @pytest.mark.parametrize("start, exact", [(0, 88.697), (3, 84.375)])
    def test_event_count_mean_is_exact(self, start, exact):
        # A climb from 0 gets to level k with probability reach[k]: the first
        # climb visits start..M-1 as far as it gets, and if it fails, the
        # climbs from 0 visit level k reach[k] / reach[M] times in all.
        M = self.PARAMS.M
        reach = _reach(self.PARAMS)
        mean = sum(reach[start:M]) / reach[start] + (1 - reach[M] / reach[start]) * sum(reach[:M]) / reach[M]
        assert mean == pytest.approx(exact, abs=5e-4)
        n = 20_000
        events = np.array([t.n_events for t in _column_runs(self.PARAMS, 1300 + start, n, start)], dtype=float)
        assert abs(events.mean() - mean) < 4 * events.std(ddof=1) / math.sqrt(n)

    def test_draws_are_pinned(self):
        # Recorded at 6aadfd6 (seed 2025), and the taus of runs whose first
        # climb fails re-recorded when counted hits of few events began to
        # draw one exponential per event; no event count moved. Replicate 0
        # fails 10 climbs from 0 after the first, replicate 5 none, 12
        # succeeds at once and 41 fails one. A change to the hit draws must
        # change these on purpose.
        pinned = {
            0: [(81.70703374176377, 70), (14.914457513497332, 10), (19.734181554116375, 8), (26.824012700940138, 20)],
            3: [(79.41240405447508, 69), (12.146947781475165, 9), (13.450655600825364, 5), (21.546285592974787, 18)],
        }
        for start, runs in pinned.items():
            got = [simulate_single_column(self.PARAMS, hit_config(2025, r), start=start) for r in (0, 5, 12, 41)]
            assert [(t.tau, t.n_events) for t in got] == runs
        assert hitting_time_batch(SingleColumnParams.with_a(16, 1.0), 8, master_seed=2025).tolist() == [
            226.4814762727533, 96.60119440840624, 201.87487064706016, 454.0723396260427,
            572.488181211357, 35.42820633857747, 263.025077995328, 237.38768715721056,
        ]

    @pytest.mark.parametrize("kernel", [None, *KERNELS])
    @pytest.mark.parametrize("M", [1, 2, 16, 64])
    def test_counted_hits_equal_the_reference_kernel(self, monkeypatch, kernel, M):
        # Replicate r of the production path and of the reference kernel draw
        # on the same stream, so every field agrees exactly: under the default
        # crossover and under each kernel alone, from 0, 1 and M - 1, with
        # runs whose first climb succeeds (n_events == M - start) and fails.
        if kernel:
            _use_kernel(monkeypatch, kernel)
        params = SingleColumnParams.with_a(M, 1.0)
        tables = simulate_module._column_tables(params)
        first = set()
        for start in sorted({0, 1, M - 1} - {M}):
            runs = [simulate_single_column(params, hit_config(35, r), start=start) for r in range(300)]
            for r, run in enumerate(runs):
                ref = _reference_regenerative_hit(tables, M, start, rng_module.replicate_rng(35, r))
                got = (run.tau, run.end_time, run.end_value, run.n_events)
                assert got == (ref.tau, ref.end_time, ref.end_value, ref.n_events)
                assert type(run.n_events) is int and type(run.tau) is float
                first.add(run.n_events == M - start)
            batch = hitting_time_batch(params, 300, 35, start=start)
            assert batch.dtype == np.float64 and batch.shape == (300,)
            assert batch.tolist() == [run.tau for run in runs]
        # At M = 1 every first climb succeeds; above, some fail.
        assert first == ({True} if M == 1 else {True, False})

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        M=st.integers(1, 10**4),
        alpha=st.one_of(st.floats(0, 1e-9, exclude_min=True), st.floats(1 - 1e-9, 1 + 1e-9)),
        p=st.one_of(st.floats(0, 1e-9, exclude_min=True), st.floats(1 - 1e-9, 1, exclude_max=True)),
        start_at=st.floats(0, 1, exclude_max=True),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_hit_runs_at_the_edges(self, M, alpha, p, start_at, seed):
        # Rates within 1e-9 of 0 or 1: reach[M] in closed form agrees with
        # the tables' running product (subnormals aside, which carry fewer
        # digits), and a hit run is refused or ends at M after a finite time.
        assume(alpha * (1 - p) > 0)
        params, start = SingleColumnParams(M, alpha, p), int(start_at * M)
        closed = math.exp(simulate_module._log_hit_reach(params))
        try:
            table = simulate_module._column_tables(params).reach[M]
        except ValueError as err:  # a level's mean holding time overflows
            table = math.nan
            assert "beyond simulation" in str(err)
        if table >= sys.float_info.min:
            assert closed == pytest.approx(table, rel=1e-9, abs=0)
        elif table >= 0:
            assert closed < sys.float_info.min * (1 + 1e-9)
        try:
            traj = simulate_single_column(params, hit_config(seed), start=start)
        except ValueError as err:
            assert "beyond simulation" in str(err)
        else:
            assert math.isfinite(traj.tau) and traj.tau > 0
            assert traj.end_value == M and traj.n_events >= M - start

    def test_times_beyond_double_precision_are_refused(self):
        # At alpha*q = 5e-324 level 0's mean holding time overflows, so no
        # run builds its tables. At (64, 4e-307, 1e-320) every level's is
        # finite, but their sum over a hit is not.
        with pytest.raises(ValueError, match="holding time overflows"):
            simulate_single_column(SingleColumnParams(1, 5e-324, 1e-9), hit_config(1, horizon=1.0))
        with pytest.raises(ValueError, match="time to hit M from 0 overflows"):
            simulate_single_column(SingleColumnParams(64, 4e-307, 1e-320), hit_config(1))

    @pytest.mark.parametrize("p", [1e-320, 6.25e-309])
    def test_times_near_double_precision_never_warn(self, p):
        # At alpha*q = 4e-307 every level's mean holding time is finite but a
        # hit's time is not; at p = 1e-320 a climb from 0 nearly always gets
        # to M, and at 6.25e-309 (a = 1) hits mostly count failed climbs.
        # The suite turns warnings into errors: a counted hit raises the
        # refusal, and a horizon run's holding times beyond double precision
        # outlast its horizon.
        params = SingleColumnParams(64, 4e-307, p)
        with pytest.raises(ValueError, match="time to hit M from 0 overflows.*beyond simulation"):
            simulate_single_column(params, hit_config(1))
        run = simulate_single_column(params, hit_config(1, horizon=1e300))
        assert run.tau is None and run.end_time == 1e300

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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_law_matches_event_loop_under_each_kernel(self, monkeypatch, kernel):
        _use_kernel(monkeypatch, kernel)
        fast = [simulate_single_column(self.PARAMS, hit_config(616, r)).tau for r in range(20_000)]
        slow = [column_gillespie(self.PARAMS, hit_config(617, r)).tau for r in range(3000)]
        _, p_value = ks_2samp(fast, slow)
        assert p_value > 0.001

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "params, start",
        [(PARAMS, 0), (PARAMS, 3), (SingleColumnParams.with_a(32, 1.0), 0)],
        ids=["M8-from0", "M8-from3", "M32-from0"],
    )
    def test_mean_and_variance_under_each_kernel(self, monkeypatch, kernel, params, start):
        _use_kernel(monkeypatch, kernel)
        n = 20_000
        taus = hitting_time_batch(params, n, master_seed=3232 + start, start=start)
        mean = analytics.hitting_time_mean_exact(params, start)
        var = analytics.hitting_time_variance_exact(params, start)
        assert abs(taus.mean() - mean) < 4 * math.sqrt(var / n)
        # Var(s^2) ~ (m4 - s^4) / n, as in test_mean_and_variance_at_m64.
        dev = taus - taus.mean()
        s2 = float(np.mean(dev**2))
        se_var = math.sqrt((float(np.mean(dev**4)) - s2 * s2) / n)
        assert abs(taus.var(ddof=1) - var) < 4 * se_var

    @pytest.mark.parametrize(
        "params, start, beyond",
        [(PARAMS, 0, False), (PARAMS, 3, False), (SingleColumnParams.with_a(64, 1.0), 0, True)],
        ids=["M8-from0", "M8-from3", "M64-from0"],
    )
    def test_kernels_share_every_draw_before_the_time(self, monkeypatch, params, start, beyond):
        # Per seed both kernels count the same climbs; the time draw is the
        # last, so n_events and end_value agree, and tau too where the
        # first climb succeeds (n_events == M - start), which draws one
        # exponential per level under either kernel. Under the default
        # crossover a run takes the exponential kernel's tau while its
        # event count is at most the crossover, and the gamma kernel's above.
        runs = {}
        for kernel in KERNELS:
            _use_kernel(monkeypatch, kernel)
            runs[kernel] = [simulate_single_column(params, hit_config(99, r), start=start) for r in range(1000)]
        monkeypatch.undo()
        default = [simulate_single_column(params, hit_config(99, r), start=start) for r in range(1000)]
        crossover = simulate_module._EXPONENTIAL_EVENTS + simulate_module._EXPONENTIAL_EVENTS_PER_LEVEL * params.M
        sides = set()
        for run, exp_run, gamma_run in zip(default, runs["exponential"], runs["gamma"]):
            assert (run.n_events, run.end_value) == (exp_run.n_events, exp_run.end_value)
            assert (run.n_events, run.end_value) == (gamma_run.n_events, gamma_run.end_value)
            first = run.n_events == params.M - start
            assert (exp_run.tau == gamma_run.tau) == first
            assert run.tau == (exp_run.tau if run.n_events <= crossover else gamma_run.tau)
            sides.add((first, run.n_events <= crossover))
        assert sides == {(True, True), (False, True)} | ({(False, False)} if beyond else set())

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1e-320, 6.25e-309])
    def test_times_near_double_precision_never_warn_under_each_kernel(self, monkeypatch, kernel, p):
        _use_kernel(monkeypatch, kernel)
        self.test_times_near_double_precision_never_warn(p)

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
    """The ``(t0, t1)`` of every epoch window run after this call: a window
    with entry clocks, or one of a block of lambda_m = 0 runs."""
    calls = []
    for name in ("_epoch_window", "_race_window"):
        window = getattr(simulate_module, name)

        def counted(*args, window=window, **kwargs):
            calls.append(args[3:5])
            return window(*args, **kwargs)

        monkeypatch.setattr(simulate_module, name, counted)
    return calls


def _one_race(params, rng, t0, t1):
    """One run's lambda_m = 0 race on ``[t0, t1)``, drawn as a block of one:
    ``(first, last, rows' uniforms, columns' uniforms)``."""
    first, last, placing = simulate_module._race(params, [rng], t0, t1)
    return first[0], last[0], *placing[0]


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

    def test_ring_fill_matches_a_row_by_row_scan(self, monkeypatch):
        # At lambda_m = 0 every epoch of a laid-out window must fill when a
        # scan of each row's first ring after the epoch's start says, and
        # the state at the window's end must give the entries that the scan
        # does. The state carried in is each row's last ring before t0 and
        # each column's last reset before t0 (-inf for none), plus a start's
        # entries, held in the columns not reset since; entry (i, j) is one
        # iff row i rang after column j's last reset, or it is held. The
        # window is a series run's in a block of one, its clocks the case's
        # rings; the fills are those the window's end reads, one full as the
        # window begins at -inf and one that some row does not ring in at t1
        # or later. The state at t1 is each clock's last ring, and held
        # entries are dropped once it shows every row rung or every column
        # reset, which must leave the entries as they are.
        rng = np.random.default_rng(5)
        t0, t1 = 0.0, 10.0
        window_end = simulate_module._window_end
        fills = []

        def recorded(fill, *args):
            fills.append(fill)
            return window_end(fill, *args)

        monkeypatch.setattr(simulate_module, "_window_end", recorded)
        for _ in range(300):
            M, N = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            ring_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 40))))
            ring_row = rng.integers(0, M, ring_t.size).astype(np.uint16)
            reset_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 6))))
            reset_col = rng.integers(0, N, reset_t.size)
            starts = np.concatenate((np.full(N, t0), reset_t))
            cols = np.concatenate((np.arange(N), reset_col))
            last = np.array([not np.any((cols == c) & (starts > s)) for s, c in zip(starts, cols)])
            past_row = rng.permutation(M)[: int(rng.integers(0, M + 1))]
            past_t = np.sort(rng.uniform(t0 - 5.0, t0, past_row.size))
            reset_at = np.where(rng.random(N) < 0.5, rng.uniform(t0 - 5.0, t0, N), -np.inf)
            held = None if rng.random() < 0.5 else rng.random((N, M)) < rng.choice([0.0, 0.5, 1.0])
            last_at = np.concatenate((np.full(M, -np.inf), reset_at))
            last_at[past_row] = past_t
            first, last_ring = np.full(M + N, t1), np.full(M + N, t1)  # each clock's in the window
            clocks = [(ring_t, ring_row, i) for i in range(M)] + [(reset_t, reset_col, j) for j in range(N)]
            for clock, (times, labels, i) in enumerate(clocks):
                own = times[labels == i]
                if own.size:
                    first[clock], last_ring[clock] = own[0], own[-1]
            race = (first[None], last_ring[None], [(np.empty(0), np.empty(0))])
            rings = [(ring_t, ring_row), (reset_t, reset_col)]
            monkeypatch.setattr(simulate_module, "_race", lambda *args, race=race: race)
            monkeypatch.setattr(simulate_module, "_race_rings", lambda *args, rings=rings: rings)
            books = simulate_module._RaceBooks(1, M, N, held, 0, True)
            books.last_at = last_at[None].copy()
            fills.clear()
            simulate_module._race_window(MatrixParams(M=M, N=N, p=0.5), [None], books, t0, t1, False, True)
            (fill,), end, kept = fills, books.last_at[0], books.held[0]
            assert (kept is None) == (held is None or end[:M].min() > -np.inf or end[M:].min() > -np.inf)
            all_t, all_row = np.concatenate((past_t, ring_t)), np.concatenate((past_row, ring_row))
            assert all(end[i] == max(all_t[all_row == i], default=-math.inf) for i in range(M))
            for b, (s, c) in enumerate(zip(starts, cols)):
                if b < N:
                    s = reset_at[b]
                set_at = [
                    -math.inf if b < N and s == -math.inf and held is not None and held[b, i]
                    else min(all_t[(all_row == i) & (all_t > s)], default=math.inf)
                    for i in range(M)
                ]
                assert min(fill[b], t1) == min(max(set_at), t1) or fill[b] == -math.inf and max(set_at) < t0
                if last[b]:
                    assert end[M + c] == s
                    entries = [end[i] > s or kept is not None and s == -math.inf and kept[c, i] for i in range(M)]
                    assert entries == [x < t1 for x in set_at]

    def test_held_fill_matches_a_scan(self):
        # A run from a start holds its entries in the columns not reset
        # since the start, so such a column's carried epoch fills at the
        # latest first ring in the window of the rows neither held in it
        # nor rung since the start (-inf if there are none); every other
        # column fills at its _carried_fill. Columns are often never reset,
        # rows have often rung before the window, a column holds all, some
        # or none of its entries, and blocks hold 1-6 runs.
        rng = np.random.default_rng(34)
        t1 = 10.0
        for _ in range(300):
            B, M, N = (int(x) for x in rng.integers(1, 7, 3))
            last_at = rng.choice([-np.inf, -3.0, -2.0, -1.5, -1.0], size=(B, M + N))
            first = np.minimum(rng.choice([0.5, 2.0, 4.0, 9.0, 11.0], size=(B, M + N)), t1)
            held = rng.random((N, M)) < rng.choice([0.0, 0.5, 1.0], size=(N, 1))
            carried = simulate_module._carried_fill(M, last_at, first)
            for k in range(B):
                fill = simulate_module._held_fill(M, (last_at[k], held), first[k], carried[k])
                rows = last_at[k, :M]
                for j, c in enumerate(last_at[k, M:]):
                    waiting = (rows <= c) & ~(held[j] & (c == -math.inf))
                    assert fill[j] == max(first[k, :M][waiting], default=-math.inf)

    def test_empty_start_state_is_dropped_once_every_row_has_rung(self, monkeypatch):
        # At lambda_m = 0 a start's entries matter only in columns not reset
        # since, and only for rows that have not rung since the start. Here
        # every row has rung in the first of five 64-unit windows (each rings
        # about 7.5 times there), so later windows carry no entries, and the
        # empty matrix as a start gives the run from no start.
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 64)
        held_in = []
        laid_window = simulate_module._laid_window

        def recorded(M, state, *args):
            held_in.append(state[1] is not None)
            return laid_window(M, state, *args)

        monkeypatch.setattr(simulate_module, "_laid_window", recorded)
        params = MatrixParams(M=6, N=4, p=0.3)
        config = SimulationConfig(master_seed=9, horizon=4.5 * 64, record_series=True)
        plain = simulate_matrix(params, config)
        assert not any(held_in)
        held_in.clear()
        started = simulate_matrix(params, config, start=MatrixState.zeros(6, 4))
        assert held_in == [True, False, False, False, False]
        for field in dataclasses.fields(Trajectory):
            assert np.array_equal(getattr(started, field.name), getattr(plain, field.name)), field.name

    def test_no_epoch_search_after_the_first_fill(self, monkeypatch):
        # At lambda_m = 0 a run without a series reads its first fill only,
        # so no window after the one that holds it searches the epochs.
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 64)
        params = MatrixParams(M=6, N=4, p=0.3)
        ring_fill = simulate_module._ring_fill
        windows = _window_calls(monkeypatch)
        searched = []  # the window of every search

        def counted(*args):
            searched.append(len(windows))
            return ring_fill(*args)

        monkeypatch.setattr(simulate_module, "_ring_fill", counted)
        searches = 0
        for seed in range(40):
            windows.clear()
            searched.clear()
            traj = simulate_matrix(params, SimulationConfig(master_seed=seed, horizon=4.5 * 64))
            hit = 1 + next(w for w, (t0, t1) in enumerate(windows) if t0 <= traj.tau < t1)
            assert len(windows) == 5 and all(w <= hit for w in searched)
            searches += len(searched)
        assert searches  # some first fills took a search

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
        # fills at once. Hit windows of 2, 4, 8 and 16 time units (a full
        # window spans the M + N = 16 clocks it draws), so most runs carry
        # the start's entries into a third window or later.
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
        # them in order, and k, the candidate rows, is forced to 1..M. In
        # epoch b, R_i is row i's first ring after the epoch's start, or t0
        # for an entry set at t0 in a carried epoch. Block by block, every
        # epoch draws the first rings of its k rows with the latest R, in
        # order of R, then every epoch that falls back draws its other
        # rows: one whose last candidate set time comes before both T, the
        # (k+1)-th latest R, and its end. No other cell draws. Every fill
        # time must be the scan's last drawn set time, and a row that drew
        # none must be set by then or the epoch end first. Carried out to
        # t1, every column's state must be the scan's; in its last epoch
        # the rows unrung by t1 that drew nothing draw their first rings
        # then, epoch by epoch in row order. Small windows split the epochs
        # into blocks, one epoch at least, that never mix carried and reset
        # epochs, each reset block seeded with the rings after its first
        # reset. A window that runs to t1 sums every drawn first ring before
        # its epoch's end and the time after it; one that may stop at a hit
        # keeps the drawn rings themselves.
        class Script:
            def __init__(self, seed):
                self.gen, self.drawn = np.random.default_rng(seed), []

            def exponential(self, scale, size):
                draws = scale * self.gen.standard_exponential(size)
                self.drawn.append(draws.ravel())
                return draws

        rng = np.random.default_rng(6)
        t0, t1 = 2.0, 12.0
        fell_back = waited = 0
        for trial in range(300):
            window = int(rng.choice([4, 10, 1 << 14]))
            monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", window)
            M, N = int(rng.integers(1, 8)), int(rng.integers(1, 7))
            k = int(rng.integers(1, M + 1))
            monkeypatch.setattr(simulate_module, "_candidate_rows", lambda params, k=k: k)
            params = MatrixParams(M=M, N=N, p=0.3, lambda_m=float(rng.uniform(0.2, 3.0)))
            ring_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 40))))
            ring_row = rng.integers(0, M, ring_t.size)
            reset_t = np.sort(rng.uniform(t0, t1, int(rng.integers(0, 6))))
            starts = np.concatenate((np.full(N, t0), reset_t))
            cols = np.concatenate((np.arange(N), rng.integers(0, N, reset_t.size)))
            last = np.array([not np.any((cols == c) & (starts > s)) for s, c in zip(starts, cols)])
            ends = np.array([min(starts[(cols == c) & (starts > s)], default=t1) for s, c in zip(starts, cols)])
            filled = rng.random((N, M)) < rng.choice([0.0, 0.5, 1.0])
            R = [
                [t0 if b < N and filled[b, i] else min(ring_t[(ring_row == i) & (ring_t > s)], default=math.inf)
                 for i in range(M)]
                for b, s in enumerate(starts)
            ]
            by_R = [sorted(range(M), key=row.__getitem__) for row in R]  # ties in row order
            step = max(1, window // M)
            blocks = [range(lo, min(lo + step, N)) for lo in range(0, N, step)]
            blocks += [range(lo, min(lo + step, starts.size)) for lo in range(N, starts.size, step)]
            script = Script(trial)
            args = (filled, ring_t, ring_row, starts, ends, last, t0)
            fill, drawn, undrawn, kept = simulate_module._entry_fill(params, script, *args, True)
            carried, waits, late = simulate_module._carried_out(
                params, script, filled, ring_t, ring_row, starts, cols, last, t0, t1, *kept
            )
            draws = iter(np.concatenate([np.empty(0), *script.drawn]).tolist())
            E = [{} for _ in starts]  # E[b][i]: entry (i, b)'s first ring, where drawn
            for block in blocks:
                for b in block:
                    E[b].update((i, starts[b] + next(draws)) for i in by_R[b][M - k :])
                for b in block:
                    T = R[b][by_R[b][M - k - 1]] if k < M else -math.inf
                    L = max(min(R[b][i], e) for i, e in E[b].items())
                    if L < min(T, ends[b]):
                        E[b].update((i, starts[b] + next(draws)) for i in by_R[b][: M - k])
                        fell_back += k < M
            cells = sorted((b, e) for b in range(starts.size) for e in E[b].values())
            for b, c in enumerate(cols):
                assert fill[b] == max(min(R[b][i], e) for i, e in E[b].items())
                assert all(R[b][i] <= fill[b] or fill[b] >= ends[b] for i in range(M) if i not in E[b])
                assert undrawn[b] == M - len(E[b])
            assert sorted((b, e) for epochs, first in drawn for b, row in zip(epochs, first) for e in row) == cells
            to_end = simulate_module._entry_fill(params, Script(trial), *args, False)
            assert np.array_equal(to_end[0], fill) and np.array_equal(to_end[2], undrawn)
            assert all(np.array_equal(x, y) for x, y in zip(to_end[3], kept))
            assert sum(rings for rings, _ in to_end[1]) == sum(ends[b] >= e for b, e in cells)
            spare = sum(s for _, s in to_end[1])
            assert spare == pytest.approx(math.fsum(max(ends[b] - e, 0.0) for b, e in cells), rel=1e-12, abs=1e-12)
            # Unrung rows have R = inf, last in order of R and among
            # themselves in row order, so each has its own draw, if any.
            unrung = {b: [i for i in range(M) if R[b][i] >= t1] for b in np.flatnonzero(last)}
            assert carried.shape == filled.shape
            expected_waits = [(b, i) for b, rows in unrung.items() for i in rows if i not in E[b]]
            assert list(zip(waits.tolist(), [i for _, i in expected_waits])) == expected_waits
            for (b, i), e in zip(expected_waits, late):
                assert e == starts[b] + next(draws)
                E[b][i] = e
            waited += len(expected_waits)
            assert next(draws, None) is None
            for b in np.flatnonzero(last):
                assert list(carried[cols[b]]) == [min(R[b][i], E[b].get(i, math.inf)) < t1 for i in range(M)]
        assert fell_back > 100 and waited > 100

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

    @pytest.mark.parametrize("horizon", [None, 150.0], ids=["hit", "horizon"])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("started", [False, True], ids=["empty", "start"])
    def test_series_and_no_series_runs_agree(self, monkeypatch, horizon, lam, started):
        # A series is read off the same draws as the run's other outputs:
        # at lambda_m = 0 a run without one searches only for its first fill
        # and counts its end off the state, and it must still agree bit for
        # bit with the run that records every fill. Windows of 16, 32 and 64
        # cells, about 3, 6 and 12 time units here, so runs cross several;
        # the start leaves every column one row short, row 0 in one of them.
        monkeypatch.setattr(simulate_module, "_FIRST_WINDOW_CELLS", 16)
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 64)
        params = MatrixParams(M=6, N=3, p=0.6, lambda_m=lam)
        entries = np.ones((6, 3), dtype=np.uint8)
        entries[[0, 2, 5], [0, 1, 2]] = 0
        start = MatrixState.from_entries(entries) if started else None
        for r in range(40):
            plain, series = (
                simulate_matrix(params, SimulationConfig(5800, r, horizon, record), start=start)
                for record in (False, True)
            )
            assert (plain.tau, plain.end_value, plain.n_events, plain.end_time) == (
                series.tau, series.end_value, series.n_events, series.end_time
            )
            assert series.value_at(series.end_time) == plain.end_value

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        M=st.integers(1, 6),
        N=st.integers(1, 6),
        p=st.one_of(st.floats(0, 1e-9, exclude_min=True), st.floats(1 - 1e-9, 1, exclude_max=True)),
        lam=st.sampled_from([0.0, 1e-300, 1e6]),
        horizon=st.floats(1e-6, 1e5),
        seed=st.integers(0, 2**64 - 1),
        start=st.one_of(st.none(), st.integers(0, 2**36 - 1)),
    )
    def test_series_and_no_series_runs_agree_at_the_edges(self, M, N, p, lam, horizon, seed, start):
        # Rates within 1e-9 of 0 or 1, entry clocks off, all but off or far
        # faster than the rows, from the empty matrix or a start of any
        # entries: a horizon run is refused, with and without a series, or
        # both runs end at the horizon with the same outputs, a finite first
        # hit (if any) on the way and a count in 0..N.
        params = MatrixParams(M=M, N=N, p=p, lambda_m=lam)
        if start is not None:
            start = MatrixState.from_index(M, N, start % (1 << (M * N)))
        runs = []
        for record in (False, True):
            try:
                runs.append(simulate_matrix(params, SimulationConfig(seed, 0, horizon, record), start=start))
            except ValueError as err:
                runs.append(str(err))
        plain, series = runs
        if isinstance(plain, str):
            assert series == plain and "exceed the cap" in plain
            return
        assert (plain.tau, plain.end_value, plain.n_events, plain.end_time) == (
            series.tau, series.end_value, series.n_events, series.end_time
        )
        assert plain.tau is None or (math.isfinite(plain.tau) and 0 <= plain.tau <= plain.end_time)
        assert plain.end_time == horizon and 0 <= plain.end_value <= N and plain.n_events >= 0
        assert series.value_at(horizon) == plain.end_value

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        M=st.integers(1, 8),
        N=st.integers(1, 8),
        p=st.one_of(st.floats(0, 1e-9, exclude_min=True), st.floats(1 - 1e-9, 1, exclude_max=True)),
        t0=st.floats(0, 1e6),
        span=st.floats(1e-6, 1e5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_race_first_draw_at_the_edges(self, M, N, p, t0, span, seed):
        # A lambda_m = 0 window draws each clock's first and last ring, and
        # its rings between as a count and placing uniforms. Built in time
        # order, each kind's rings lie in [t0, t1); a clock's first and last
        # there are the drawn ones, and the others lie strictly between;
        # and there are as many as a run without a series counts.
        params = MatrixParams(M=M, N=N, p=p)
        t1 = t0 + span
        race = _one_race(params, np.random.default_rng(seed), t0, t1)
        first, last, _, _ = race
        ring_t, ring_row, reset_t, reset_col = simulate_module._time_order(
            M, simulate_module._race_rings(M, race, t1)
        )
        for times, clocks, offset, n in ((ring_t, ring_row, 0, M), (reset_t, reset_col, M, N)):
            assert (np.diff(times) >= 0).all() and (times >= t0).all() and (times < t1).all()
            for i in range(n):
                own = times[clocks == i]
                if first[offset + i] >= t1:
                    assert own.size == 0
                    continue
                assert own[0] == first[offset + i] and own[-1] == last[offset + i]
                assert (own[1:-1] > own[0]).all() and (own[1:-1] < own[-1]).all()
        books = simulate_module._RaceBooks(1, M, N, None, 0, False)
        simulate_module._race_window(params, [np.random.default_rng(seed)], books, t0, t1, False, False)
        assert ring_t.size + reset_t.size == books.events[0]

    def test_race_first_ring_counts_are_poisson(self):
        # Over 6000 windows of 5 time units from t0 = 7.25, each row's ring
        # count and each column's reset count must be Poisson(rate * span),
        # 1 for both here: z < 4 on the mean and on the variance, the rows
        # (3 per window) and the columns (2) pooled apart.
        params = MatrixParams(M=3, N=2, p=0.4)
        t0, span, n = 7.25, 5.0, 6000
        rng = np.random.default_rng(6100)
        rows, cols = [], []
        for _ in range(n):
            race = _one_race(params, rng, t0, t0 + span)
            (_, ring_row), (_, reset_col) = simulate_module._race_rings(params.M, race, t0 + span)
            rows.append(np.bincount(ring_row, minlength=params.M))
            cols.append(np.bincount(reset_col, minlength=params.N))
        for counts, rate in ((rows, params.q / params.M), (cols, params.p / params.N)):
            counts = np.concatenate(counts).astype(float)
            mu, m = rate * span, counts.size
            assert abs(counts.mean() - mu) < 4 * math.sqrt(mu / m)
            assert abs(counts.var(ddof=1) - mu) < 4 * math.sqrt((mu + 2 * mu * mu) / m)

    @pytest.mark.parametrize("M, p, lam", [(8, 0.3, 0.0), (8, 0.3, 0.7), (16, 0.05, 0.5)])
    def test_one_column_matrix_hits_at_the_single_column_mean(self, M, p, lam):
        # At N = 1 the matrix is one column: each zero entry fills at
        # (q + lambda_m)/M, from its row's clock or its own, and the column
        # resets at p. That is the single column with M levels, reset rate p
        # and alpha = q_tilde/(1 - p), whose exact mean first hit of M from 0
        # the hit runs must match: z < 4 over 2000 runs. Most windows here
        # leave the first fill open after their carried epoch, so at
        # lambda_m = 0 this pins the search over every epoch.
        params = MatrixParams(M=M, N=1, p=p, lambda_m=lam)
        exact = analytics.hitting_time_mean_exact(SingleColumnParams(M, alpha=params.q_tilde / (1 - p), p=p), 0)
        taus = hitting_time_batch(params, 2000, master_seed=6200)
        assert abs(taus.mean() - exact) < 4 * taus.std(ddof=1) / math.sqrt(taus.size)

    @pytest.mark.parametrize("k", [1, 2])
    def test_candidate_rows_law_with_a_small_k(self, monkeypatch, k):
        # With one or two candidate rows at M = 5-8 many epochs fall back to
        # drawing their other rows, and more than k rows are often unrung
        # when a window carries its columns out. The law must stay the
        # reference's: KS on tau, z < 4 on n_events and the end count, for
        # hit runs and for horizon runs across two windows of 32 units.
        monkeypatch.setattr(simulate_module, "_candidate_rows", lambda params: k)
        widths = []  # the columns of every entry-clock draw by epoch
        replicate_rng = simulate_module.replicate_rng

        class Recorded:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                return getattr(self.gen, name)

            def exponential(self, scale, size):
                widths.append(np.shape(np.empty(size))[1:])
                return self.gen.exponential(scale, size)

        monkeypatch.setattr(simulate_module, "replicate_rng", lambda *key: Recorded(replicate_rng(*key)))
        hit = MatrixParams(M=5, N=3, p=0.5, lambda_m=0.3)
        _assert_hit_law_matches_reference(hit, 5900 + k, past=0.0)
        assert (hit.M - k,) in widths
        widths.clear()
        monkeypatch.setattr(simulate_module, "_WINDOW_CELLS", 32)
        params, horizon = MatrixParams(M=8, N=3, p=0.3, lambda_m=0.4), 40.0
        fast = _runs(params, 5910 + k, 1000, horizon=horizon)
        slow = _reference_runs(params, 5920 + k, 600, horizon=horizon)
        assert (params.M - k,) in widths
        for field in ("end_value", "n_events"):
            assert _z_means([getattr(t, field) for t in fast], [getattr(t, field) for t in slow]) < 4, field
        _, p_value = ks_2samp([t.tau for t in fast if t.tau is not None], [t.tau for t in slow if t.tau is not None])
        assert p_value > 0.001
        mu, events = params.total_rate * horizon, np.array([t.n_events for t in fast], dtype=float)
        assert abs(events.mean() - mu) < 4 * math.sqrt(mu / events.size)

    def test_unreachable_target_fails_loudly(self):
        # One reset epoch of a column fills it with probability 4.42e-155.
        params = MatrixParams(M=64, N=1, p=0.99)
        with pytest.raises(ValueError, match=r"4\.42e-155"):
            hitting_time_batch(params, 1, master_seed=1)
        assert simulate_matrix(params, SimulationConfig(master_seed=1, horizon=10.0)).tau is None


class TestRaceBlock:
    """lambda_m = 0 batches are drawn in blocks of runs, each run on its own
    stream with the draws it makes alone, so every run of a batch is the run
    drawn alone, field for field."""

    @staticmethod
    def assert_same(got, want):
        for field in dataclasses.fields(Trajectory):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b and type(a) is type(b), field.name

    def test_block_size_holds_the_stacked_clocks_within_a_window(self):
        # Two (runs, M + N) arrays of first and last rings stay within
        # _WINDOW_CELLS cells: 27 runs at M + N = 300, and one at least.
        assert simulate_module._race_block_size(MatrixParams(M=200, N=100, p=0.1)) == 27
        assert simulate_module._race_block_size(MatrixParams(M=6000, N=3000, p=0.1)) == 1

    def test_carried_fill_matches_a_scan(self, monkeypatch):
        # Carried epoch j of a run, from column j's last reset c_j, fills at
        # the latest first ring in the window of the rows whose last ring is
        # at or before c_j (-inf if there are none), in every column of
        # every run of the block. A window of the block reads each run's
        # first fill as the least of those before their column's first
        # reset, and leaves it open (nan) where there is none; it lays out
        # the rings of an open run, to search the epochs from its resets,
        # only if every row rings in the window. Last rings and resets share
        # a few values here, so they often tie, and -inf (never rung, never
        # reset) is common on both sides; in some blocks no row has rung.
        rng = np.random.default_rng(33)
        t0, t1 = 0.0, 10.0
        laid = []  # the first rings of each run whose rings a window lays out

        def recorded(M, state, first, *args):
            laid.append(first.copy())
            return np.empty(0), np.empty(0), 0

        monkeypatch.setattr(simulate_module, "_laid_window", recorded)
        for _ in range(300):
            B, M, N = (int(x) for x in rng.integers(1, 7, 3))
            last_at = rng.choice([-np.inf, -3.0, -2.0, -1.5, -1.0], size=(B, M + N))
            if rng.random() < 0.2:
                last_at[:, :M] = -np.inf
            first = np.minimum(rng.choice([0.5, 2.0, 4.0, 9.0, 11.0], size=(B, M + N)), t1)
            fill = simulate_module._carried_fill(M, last_at, first)
            assert fill.shape == (B, N)
            want = []
            for k in range(B):
                rows, resets = last_at[k, :M], last_at[k, M:]
                carried = [max(first[k, :M][rows <= c], default=-math.inf) for c in resets]
                assert fill[k].tolist() == carried
                want.append(min((f for f, end in zip(carried, first[k, M:]) if f < end), default=math.inf))
            race = (first.copy(), first.copy(), [(np.empty(0), np.empty(0))] * B)  # each clock rings once
            monkeypatch.setattr(simulate_module, "_race", lambda *args, race=race: race)
            books = simulate_module._RaceBooks(B, M, N, None, 0, False)
            books.last_at = last_at.copy()
            laid.clear()
            simulate_module._race_window(MatrixParams(M=M, N=N, p=0.5), [None] * B, books, t0, t1, False, False)
            assert np.array_equal(books.tau, np.where(np.array(want) == math.inf, np.nan, want), equal_nan=True)
            opened = [first[k] for k in range(B) if want[k] == math.inf and first[k, :M].max() < t1]
            assert len(laid) == len(opened) and all(map(np.array_equal, laid, opened))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        M=st.integers(1, 10),
        N=st.integers(1, 10),
        p=st.one_of(
            st.floats(0, 1e-9, exclude_min=True), st.floats(1 - 1e-9, 1, exclude_max=True), st.floats(0.05, 0.95)
        ),
        block=st.integers(2, 6),
        horizon=st.one_of(st.none(), st.floats(0.5, 300.0)),
        series=st.booleans(),
        start=st.one_of(st.none(), st.integers(0, 2**100 - 1)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_block_runs_equal_runs_alone(self, M, N, p, block, horizon, series, start, seed):
        # Blocks of 2-6 runs, batches of 1, the block size, one either side
        # of it and two blocks and three; windows of 64 cells (the first hit
        # window 16), 64 time units here, so a horizon run takes one to five
        # windows and a hit run often several. Rates at the edges, and from
        # the empty matrix or a start of any entries. A run refused alone is
        # refused in the batch with the same message.
        params = MatrixParams(M=M, N=N, p=p)
        if start is not None:
            start = MatrixState.from_index(M, N, start % (1 << (M * N)))
        if horizon is None and (start is None or start.all_ones_count == 0):
            # A hit run this rare would take thousands of windows here.
            assume(analytics.steady_allones_probability(params) > 0.05)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate_module, "_WINDOW_CELLS", 64)
            patch.setattr(simulate_module, "_FIRST_WINDOW_CELLS", 16)
            patch.setattr(simulate_module, "_race_block_size", lambda params: block)
            for n in sorted({1, block - 1, block, block + 1, 2 * block + 3}):
                try:
                    alone = [
                        simulate_matrix(params, SimulationConfig(seed, r, horizon, series), start=start)
                        for r in range(n)
                    ]
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        next(replicate_runs(params, n, seed, horizon, series, start))
                    return
                batch = list(replicate_runs(params, n, seed, horizon, series, start))
                assert len(batch) == n
                for got, want in zip(batch, alone):
                    self.assert_same(got, want)

    @pytest.mark.parametrize("params, horizon, start, refusal", [
        (MatrixParams(M=200, N=100, p=0.1), 1e9, None, "exceed the cap of 100,000,000; shorten the run"),
        (MatrixParams(M=64, N=1, p=0.99), None, None, "the first full column is beyond simulation"),
        (MatrixParams(M=30, N=2, p=0.5), None, None, "exceed the cap of 100,000,000; give a horizon"),
        (MatrixParams(M=3, N=2, p=0.3), 10.0, MatrixState.zeros(4, 2), "start state shape"),
    ], ids=["horizon", "unreachable", "median-floor", "start-shape"])
    def test_refused_batch_raises_at_its_first_run(self, params, horizon, start, refusal):
        # A batch that check_budget or the reach check refuses raises the
        # message of its runs alone, at its first run, not at the call (a
        # batch of no runs is refused at the call: see TestBatch).
        with pytest.raises(ValueError, match=refusal) as alone:
            simulate_matrix(params, SimulationConfig(1, 0, horizon), start=start)
        runs = replicate_runs(params, 5, 1, horizon, start=start)
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            next(runs)


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


def test_package_import_leaves_mpmath_out():
    # mpmath is the tests' high-precision reference for the closed forms only.
    assert _after_package_import("sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath')") == "[]"


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
