"""Estimators and hypothesis checks over simulation and sampler output.

Means with normal-approximation confidence intervals, empirical
distributions and total-variation distance, time-weighted occupation
fractions, a pooled chi-square goodness-of-fit helper, and transition
window detection from replicate trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .simulate import Trajectory

__all__ = [
    "EstimateWithCI",
    "TransitionWindow",
    "estimate_mean",
    "empirical_tv",
    "empirical_distribution",
    "occupation_fractions",
    "chi_square_gof",
    "detect_transition",
]


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo point estimate with a symmetric confidence interval."""

    point: float
    half_width: float
    level: float
    n: int
    master_seed: int | None = None

    @property
    def lo(self) -> float:
        return self.point - self.half_width

    @property
    def hi(self) -> float:
        return self.point + self.half_width

    def covers(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def overlaps(self, other: "EstimateWithCI") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class TransitionWindow:
    """Empirical bracket of when the all-ones count first rises.

    ``t_lo``/``t_hi`` are the 5% and 95% quantiles of the per-replicate
    first-crossing times; replicates that never crossed are excluded and
    counted in ``n_missing``.
    """

    t_lo: float
    t_hi: float
    median: float
    relative_width: float
    n_detected: int
    n_missing: int

    def __post_init__(self):
        if self.t_lo > self.t_hi:
            raise ValueError("window bounds out of order")


def estimate_mean(samples, level: float = 0.95, master_seed: int | None = None) -> EstimateWithCI:
    """Sample mean with a normal-approximation CI at the given level."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a flat sample of size >= 2")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    z = _normal_quantile(0.5 * (1.0 + level))
    half = z * x.std(ddof=1) / np.sqrt(x.size)
    return EstimateWithCI(
        point=float(x.mean()), half_width=float(half), level=level,
        n=int(x.size), master_seed=master_seed,
    )


def _normal_quantile(prob: float) -> float:
    """Standard normal quantile at ``prob`` in [0.5, 1).

    ``NormalDist.inv_cdf`` lands up to a few ulp off (3 at prob = 0.95).
    One Newton step on the upper tail erfc(z/sqrt 2)/2, whose target
    ``1 - prob`` is exact in floating point, brings it to about one ulp.
    """
    z = NormalDist().inv_cdf(prob)
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return z + (0.5 * math.erfc(z / math.sqrt(2.0)) - (1.0 - prob)) / density


def empirical_tv(dist_a, dist_b) -> float:
    """Total variation distance 0.5 * sum |a - b| over a shared support."""
    a = np.asarray(dist_a, dtype=float)
    b = np.asarray(dist_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"support mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def empirical_distribution(indices, n_states: int) -> np.ndarray:
    """Normalized histogram of state indices over 0..n_states-1."""
    idx = np.asarray(indices)
    if idx.size == 0:
        raise ValueError("no samples")
    counts = np.bincount(idx, minlength=n_states)
    if counts.size > n_states:
        raise ValueError("sample index out of range")
    return counts / idx.size


def occupation_fractions(trajectory: Trajectory, n_states: int) -> np.ndarray:
    """Time-weighted fraction spent in each state along a recorded series."""
    if trajectory.series_times is None:
        raise ValueError("trajectory was run without series recording")
    times = trajectory.series_times
    values = trajectory.series_values
    bounds = np.append(times, trajectory.end_time)
    durations = np.diff(bounds)
    total = durations.sum()
    if total <= 0:
        raise ValueError("trajectory has zero duration")
    occ = np.zeros(n_states)
    np.add.at(occ, values, durations)
    return occ / total


def chi_square_gof(counts, probs, min_expected: float = 5.0) -> tuple[float, int, float]:
    """Chi-square goodness of fit with pooling of thin cells.

    Cells whose expected count falls below ``min_expected`` are merged
    into a single pooled cell. Returns (statistic, dof, p_value).
    """
    obs = np.asarray(counts, dtype=float)
    p = np.asarray(probs, dtype=float)
    if obs.shape != p.shape:
        raise ValueError("counts and probs must align")
    n = obs.sum()
    expected = p * n
    thin = expected < min_expected
    if thin.all():
        raise ValueError("all cells below the pooling threshold")
    obs_groups = list(obs[~thin])
    exp_groups = list(expected[~thin])
    if thin.any():
        obs_groups.append(obs[thin].sum())
        exp_groups.append(expected[thin].sum())
    obs_g = np.array(obs_groups)
    exp_g = np.array(exp_groups)
    stat = float(((obs_g - exp_g) ** 2 / exp_g).sum())
    dof = len(obs_g) - 1
    return stat, dof, _chi2_sf(stat, dof)


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with integer ``dof``.

    With y = x/2 the tail is a finite sum: the Poisson tail
    sum_{i < dof/2} e^-y y^i / i! for even dof, and
    erfc(sqrt y) + sum_{i=1..(dof-1)/2} e^-y y^(i-1/2) / Gamma(i+1/2) for
    odd dof. Each term is formed in log space, so none overflows, and the
    positive terms are added exactly rounded by ``math.fsum``. Returns NaN
    for dof < 1, where the law is undefined, and for NaN x.
    """
    if dof < 1 or math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    if dof % 2 == 0:
        terms = [math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(y))]
        terms += [math.exp((i - 0.5) * log_y - y - math.lgamma(i + 0.5)) for i in range(1, (dof + 1) // 2)]
    return min(1.0, math.fsum(terms))


def detect_transition(
    trajectories,
    threshold_fraction: float = 0.0,
    steady_value: float | None = None,
) -> TransitionWindow:
    """Locate the transition window from replicate trajectories.

    With ``threshold_fraction = 0`` the per-replicate crossing time is
    the first time the all-ones count becomes positive (the recorded
    ``tau``). A positive fraction asks for the first time the count
    exceeds ``threshold_fraction * steady_value`` instead, which needs
    recorded series and a steady value for scale.
    """
    if threshold_fraction < 0:
        raise ValueError("threshold_fraction must be nonnegative")
    if threshold_fraction > 0 and steady_value is None:
        raise ValueError("a positive threshold_fraction needs steady_value")
    crossings = []
    n_missing = 0
    threshold = 0.0 if threshold_fraction == 0 else threshold_fraction * steady_value
    for traj in trajectories:
        t = _first_crossing(traj, threshold)
        if t is None:
            n_missing += 1
        else:
            crossings.append(t)
    if not crossings:
        raise ValueError(f"no replicate crossed the threshold ({n_missing} flagged)")
    xs = np.array(crossings)
    t_lo, t_hi = np.quantile(xs, [0.05, 0.95])
    median = float(np.median(xs))
    return TransitionWindow(
        t_lo=float(t_lo),
        t_hi=float(t_hi),
        median=median,
        relative_width=float((t_hi - t_lo) / median),
        n_detected=len(crossings),
        n_missing=n_missing,
    )


def _first_crossing(traj: Trajectory, threshold: float):
    if threshold == 0.0:
        return traj.tau
    if traj.series_times is None:
        raise ValueError("threshold crossing needs recorded series")
    above = traj.series_values > threshold
    idx = np.flatnonzero(above)
    if idx.size == 0:
        return None
    return float(traj.series_times[idx[0]])
