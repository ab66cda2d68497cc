"""Correctness checks for the benchmark's operations.

Every check returns ``None`` when an operation's output is right and a
one-line reason when it is not. The benchmark counts an operation as
failed when it exits nonzero, leaves an expected output missing or
unparsable, or fails its check here.

Monte Carlo outputs are checked against exact values with a fixed
z-bound, ``Z_BOUND`` standard errors, chosen before any run. Standard
errors come from exact variances, not from sample s.d.s, which at a few
dozen replicates are too noisy to bound a mean.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from immunochain import analytics
from immunochain.models import MatrixParams, SingleColumnParams

Z_BOUND = 4.5

# figure-data's mean curve is checked at every FIGURE_STRIDE-th grid time.
FIGURE_STRIDE = 10

VERIFY_CHECKS = (
    "invariant-pmf-vs-oracle",
    "hitting-mean-vs-oracle",
    "coupon-vs-enumeration",
    "steady-probability-vs-oracle",
    "reversal-sampler-tv",
)
_VERIFY_LINE = re.compile(r"^verify (\S+): max_err=(\S+) tol=(\S+) (\S+)$")


def _rise(M: int, q_tilde: float) -> float:
    """Where the fill law F(s) = (1 - exp(-q_tilde*s/M))^M rises steeply."""
    return M * math.log(M) / q_tilde if M > 1 else 1.0 / q_tilde


def column_full_probability(M: int, N: int, p: float, lambda_m: float, t: float) -> float:
    """Probability that a fixed column of the matrix chain is all ones at time ``t``.

    The chain starts from the all-zero matrix. Looking back from ``t``,
    the column's last reset lies ``C ~ Exp(p/N)`` in the past (or never
    happened, if ``C > t``), and each row of the column has since been
    filled by a row event (rate ``q/M``) or its own entry event (rate
    ``lambda_m/M``). So with ``F(s) = (1 - exp(-q_tilde*s/M))^M``:

        P(t) = int_0^t (p/N) exp(-p*s/N) F(s) ds + exp(-p*t/N) F(t),

    and the expected all-ones column count at ``t`` is ``N * P(t)``. As
    ``t`` grows it tends to the stationary probability.
    """
    q_tilde = (1.0 - p) + lambda_m
    reset = p / N

    def fill(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return math.exp(M * math.log1p(-math.exp(-q_tilde * s / M)))

    # A breakpoint at the rise keeps the adaptive rule from stepping over it.
    rise = _rise(M, q_tilde)
    points = [rise] if rise < t else None
    head, _ = quad(lambda s: reset * math.exp(-reset * s) * fill(s), 0.0, t,
                   points=points, limit=400, epsabs=1e-13, epsrel=1e-11)
    return head + math.exp(-reset * t) * fill(t)


def _gauss_nodes(rise: float, end: float, order: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, end]: panels of rise/4 up to
    3*rise, where the fill law changes, then growing by half each."""
    cuts = [0.0]
    width = rise / 4.0
    while cuts[-1] < end:
        cuts.append(min(end, cuts[-1] + width))
        if cuts[-1] > 3.0 * rise:
            width *= 1.5
    x, w = leggauss(order)
    lo, hi = np.array(cuts[:-1])[:, None], np.array(cuts[1:])[:, None]
    return ((hi - lo) / 2 * x + (hi + lo) / 2).ravel(), ((hi - lo) / 2 * w).ravel()


def column_pair_full_probability(M: int, N: int, p: float, lambda_m: float, t: float) -> float:
    """Probability that two fixed columns are both all ones at time ``t`` (``inf``: stationary).

    The columns share the row clocks, which makes the count's variance
    exceed the binomial one. Given look-back windows ``a <= b`` of the two
    columns (``min(C, t)`` as in :func:`column_full_probability`), a row is
    full in both with probability
    ``g = (1 - exp(-(r+e)a)) - exp(-(r+e)b) * (1 - exp(-e*a))``,
    ``r = q/M``, ``e = lambda_m/M``, and the rows are independent, so the
    answer is ``E[g^M]`` over the two windows. The rule is tensor
    Gauss-Legendre; ``g`` has a kink on the diagonal ``a = b``, which
    limits its accuracy (5e-6 relative against adaptive quadrature at
    M=6, N=4), far more than a standard error needs.
    """
    r, e, c = (1.0 - p) / M, lambda_m / M, p / N

    def both_full(a, b):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        g = -np.expm1(-(r + e) * lo) + np.exp(-(r + e) * hi) * np.expm1(-e * lo)
        with np.errstate(divide="ignore"):
            return np.exp(M * np.log(np.clip(g, 0.0, None)))

    end = t if math.isfinite(t) else 60.0 / c
    x, w = _gauss_nodes(_rise(M, (1.0 - p) + lambda_m), end)
    dens = c * np.exp(-c * x) * w
    total = dens @ both_full(x[:, None], x[None, :]) @ dens
    if math.isfinite(t):
        # A column whose last reset lies beyond t has window exactly t.
        total += 2.0 * math.exp(-c * t) * (dens @ both_full(x, t))
        total += math.exp(-2.0 * c * t) * float(both_full(t, t))
    return float(total)


def count_variance(M: int, N: int, p: float, lambda_m: float, t: float) -> float:
    """Variance of the all-ones column count at time ``t`` (``inf``: stationary)."""
    if math.isfinite(t):
        single = column_full_probability(M, N, p, lambda_m, t)
    else:
        single = analytics.steady_allones_probability(MatrixParams(M=M, N=N, p=p, lambda_m=lambda_m))
    pair = column_pair_full_probability(M, N, p, lambda_m, t)
    return N * single * (1.0 - single) + N * (N - 1) * (pair - single * single)


def _z_check(label: str, mean: float, ref: float, se: float) -> str | None:
    # The absolute slack admits a mean of exactly 0 where ref is 1e-300.
    if abs(mean - ref) <= Z_BOUND * se + 1e-9:
        return None
    return f"{label}: mean {mean:.6g} vs exact {ref:.6g}, |z| > {Z_BOUND} (se {se:.3g})"


def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise FileNotFoundError(f"missing output {path.name}")
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "config" not in data:
        raise ValueError(f"{path.name} is not a summary with an echoed config")
    return data


def _load_csv(path: Path, schema: str, columns: list[str]) -> list[list[str]]:
    """Rows of a CLI CSV after checking its ``# schema=`` header and column line."""
    if not path.is_file():
        raise FileNotFoundError(f"missing output {path.name}")
    lines = path.read_text().splitlines()
    header = f"# schema={schema} columns={','.join(columns)}"
    if len(lines) < 2 or lines[0] != header or lines[1] != ",".join(columns):
        raise ValueError(f"{path.name} lacks the schema header {header!r}")
    rows = list(csv.reader(lines[2:]))
    if any(len(r) != len(columns) for r in rows):
        raise ValueError(f"{path.name} has a row of the wrong width")
    return rows


def _guard(fn):
    """Turn a missing or unparsable output into a failure reason."""

    @functools.wraps(fn)
    def checked(*args, **kwargs) -> str | None:
        try:
            return fn(*args, **kwargs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return checked


@_guard
def check_matrix_end_counts(out: Path, M: int, N: int, p: float, lambda_m: float,
                            horizon: float, reps: int) -> str | None:
    """``simulate --model matrix`` to a horizon: end counts against ``N * P(horizon)``."""
    summary = _load_json(out / "summary.json")
    ends = summary["end_values"]
    if len(ends) != reps or not all(isinstance(v, int) and 0 <= v <= N for v in ends):
        return f"end_values: expected {reps} counts in [0, {N}]"
    if (out / "series.csv").exists():
        return "series.csv written although the run asked for JSON output"
    ref = N * column_full_probability(M, N, p, lambda_m, horizon)
    se = math.sqrt(count_variance(M, N, p, lambda_m, horizon) / reps)
    return _z_check(f"end count at t={horizon:.6g}", math.fsum(ends) / reps, ref, se)


@_guard
def check_steady_samples(out: Path, M: int, N: int, p: float, lambda_m: float,
                         reps: int) -> str | None:
    """``sample-steady``: drawn counts against ``steady_allones_count(params, "exact")``."""
    _load_json(out / "summary.json")
    rows = _load_csv(out / "samples.csv", "immunochain-steady-samples-v1",
                     ["replicate", "all_ones_count"])
    if [int(r[0]) for r in rows] != list(range(reps)):
        return f"samples.csv: expected replicates 0..{reps - 1}"
    counts = [int(r[1]) for r in rows]
    if not all(0 <= c <= N for c in counts):
        return f"samples.csv: a count lies outside [0, {N}]"
    ref = analytics.steady_allones_count(MatrixParams(M=M, N=N, p=p, lambda_m=lambda_m), "exact")
    se = math.sqrt(count_variance(M, N, p, lambda_m, math.inf) / reps)
    return _z_check("stationary count", math.fsum(counts) / reps, ref, se)


def _hitting_check(label: str, taus, params: SingleColumnParams, reps: int) -> str | None:
    if len(taus) != reps or not all(t is not None and 0.0 < t < math.inf for t in taus):
        return f"{label}: expected {reps} finite positive hitting times"
    mean = math.fsum(taus) / reps
    ref = analytics.hitting_time_mean_exact(params, 0)
    # The law is near-exponential, so the exact variance gives the
    # standard error; a sample s.d. would be dominated by the tail.
    se = math.sqrt(analytics.hitting_time_variance_exact(params, 0) / reps)
    return _z_check(label, mean, ref, se)


@_guard
def check_hitting_batch(taus, M: int, a: float, reps: int) -> str | None:
    """Library ``hitting_time_batch``: mean against ``hitting_time_mean_exact``."""
    return _hitting_check(f"hitting_time_batch M={M}", [float(t) for t in taus],
                          SingleColumnParams.with_a(M, a), reps)


@_guard
def check_column_hitting(out: Path, M: int, p: float, reps: int) -> str | None:
    """``simulate --model single-column`` without a horizon: hitting times."""
    summary = _load_json(out / "summary.json")
    if summary["n_missing_tau"] != 0:
        return f"{summary['n_missing_tau']} replicates have no hitting time"
    return _hitting_check(f"CLI hitting times M={M}", summary["taus"],
                          SingleColumnParams(M=M, alpha=1.0, p=p), reps)


def check_verify(rc: int, stdout: str) -> str | None:
    """``verify``: exit 0 and every oracle cross-check printed as ``ok``."""
    if rc != 0:
        return f"verify exited {rc}"
    seen = {}
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line.strip())
        if m:
            seen[m.group(1)] = m.group(4)
    if set(seen) != set(VERIFY_CHECKS):
        return f"verify printed checks {sorted(seen)}, expected {sorted(VERIFY_CHECKS)}"
    bad = [name for name, status in seen.items() if status != "ok"]
    if bad:
        return f"verify checks not ok: {bad}"
    if "verify: all checks passed" not in stdout:
        return "verify did not report that all checks passed"
    return None


def _predictions(summary: dict) -> dict[str, float]:
    return {r["formula_id"]: r["value"] for r in summary["predictions"]}


def _same(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: {got!r} != closed form {want!r}"


@_guard
def check_analyze_matrix(out: Path, M: int, N: int, p: float, lambda_m: float) -> str | None:
    """``analyze --model matrix``: summary values equal the closed forms."""
    summary = _load_json(out / "summary.json")
    params = MatrixParams(M=M, N=N, p=p, lambda_m=lambda_m)
    want = {r.formula_id: r.value for r in
            (analytics.transition_time_report(params),) + analytics.steady_allones_count_reports(params)}
    # The transition time is M*log(M)/q_tilde by definition.
    t_mlogm = M * math.log(M) / (1.0 - p + lambda_m)
    if abs(want["transition_time_mlogm"] - t_mlogm) > 1e-12 * t_mlogm:
        return f"transition_time_prediction {want['transition_time_mlogm']!r} != M log M / q_tilde"
    return (_same("predictions", _predictions(summary), want)
            or _same("steady_allones_probability", summary["steady_allones_probability"],
                     analytics.steady_allones_probability(params))
            or _same("transition_time_prediction", summary["transition_time_prediction"], t_mlogm))


@_guard
def check_analyze_column(out: Path, M: int, p: float) -> str | None:
    """``analyze --model single-column``: summary values equal the closed forms."""
    summary = _load_json(out / "summary.json")
    params = SingleColumnParams(M=M, alpha=1.0, p=p)
    want = {
        "hitting_mean_recursion": analytics.hitting_time_mean_exact(params, 0),
        "hitting_mean_power_law": analytics.hitting_time_mean_asymptotic(params),
    }
    pmf = [float(x) for x in analytics.invariant_pmf(params)]
    if abs(math.fsum(pmf) - 1.0) > 1e-12:
        return "invariant_pmf does not sum to 1"
    return (_same("predictions", _predictions(summary), want)
            or _same("invariant_pmf", summary["invariant_pmf"], pmf))


@_guard
def check_figure_data(out: Path, M: int, N: int, pd: float, pm: float,
                      horizon: float, reps: int) -> str | None:
    """``figure-data``: both CSVs, their closed-form columns and the mean curve.

    The predicted columns must equal the closed forms exactly. The mean
    count curve must lie in [0, N] everywhere and within ``Z_BOUND``
    standard errors of the exact ``N * P(t)`` at every
    ``FIGURE_STRIDE``-th grid time.
    """
    _load_json(out / "summary.json")
    lam = pm * M
    params = MatrixParams(M=M, N=N, p=pd, lambda_m=lam)
    t_pred = analytics.transition_time_prediction(params)
    steady = analytics.steady_allones_count(params, "exact")
    rows = _load_csv(out / "figure_counts.csv", "immunochain-figure-counts-v1",
                     ["time", "mean_all_ones_count", "predicted_transition_time",
                      "predicted_steady_count"])
    if len(rows) != 201:
        return f"figure_counts.csv: {len(rows)} rows, expected 201"
    for i, (t, mean, tp, st) in enumerate(rows):
        t, mean = float(t), float(mean)
        if abs(t - horizon * i / 200) > 1e-9 * horizon:
            return f"figure_counts.csv: grid time {t} at row {i}"
        if float(tp) != t_pred or float(st) != steady:
            return f"figure_counts.csv: predicted columns differ from the closed forms at t={t}"
        if not 0.0 <= mean <= N:
            return f"figure_counts.csv: mean count {mean} outside [0, {N}]"
        if i % FIGURE_STRIDE == 0:
            ref = N * column_full_probability(M, N, pd, lam, t)
            se = math.sqrt(max(count_variance(M, N, pd, lam, t), 0.0) / reps)
            failure = _z_check(f"figure_counts.csv at t={t:.6g}", mean, ref, se)
            if failure:
                return failure
    pm_rows = _load_csv(out / "figure_transition_vs_pm.csv",
                        "immunochain-figure-transition-vs-pm-v1",
                        ["p_m", "predicted_transition_time"])
    if len(pm_rows) != 50:
        return f"figure_transition_vs_pm.csv: {len(pm_rows)} rows, expected 50"
    for pm_s, tau_s in pm_rows:
        want = M * math.log(M) / ((1.0 - pd) + float(pm_s) * M)
        if abs(float(tau_s) - want) > 1e-12 * want:
            return f"figure_transition_vs_pm.csv: p_m={pm_s} gives {tau_s}, expected {want!r}"
    return None
