"""Closed-form and asymptotic quantities for both chains.

Covers the invariant law of the single-column chain, its hitting-time
moments (exact via the uniformized-chain recursion, asymptotic via the
leading-order power law), the zero-count ratio, coupon-collector
formulas, the steady-state all-ones column statistics of the matrix
chain, the transition-time prediction, the parameter mapping from
per-step probabilities to rates, and the table of every reported
prediction.

Numerics policy: the product prod_{i=1..n} i/(i+c) = Gamma(n+1)
Gamma(1+c) / Gamma(n+1+c), c >= 0, of both learning laws is one O(1)
log-space kernel, :func:`_log_gamma_ratio`, which never subtracts two
library log-Gamma values (that loses eps * lgamma(x), everything once x
reaches 1e16), so it holds to about eps * |log K| at every n and c. The
other Gamma factors are log-Gamma values, exponentiated; where a formula
subtracts 1 from a Gamma ratio, ``expm1`` keeps precision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import MatrixParams, SingleColumnParams, _as_float

__all__ = [
    "ClosedFormReport",
    "invariant_pmf",
    "zero_count_ratio",
    "zero_count_ratio_asymptotic",
    "hitting_time_mean_exact",
    "hitting_time_means_exact",
    "hitting_time_mean_asymptotic",
    "hitting_time_variance_exact",
    "coupon_done_by_draws",
    "coupon_done_by_time",
    "coupon_tail_bounds",
    "collection_time_laplace",
    "steady_allones_probability",
    "steady_allones_count",
    "steady_allones_count_reports",
    "transition_time_prediction",
    "transition_time_report",
    "TRANSITION_TIME_FORMULAS",
    "STEADY_COUNT_FORMULAS",
    "MATRIX_FORMULAS",
    "EXACT_HITTING_MEAN_FORMULAS",
    "COLUMN_FORMULAS",
    "predictions",
    "identify_parameters",
]

EXACT = "exact"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class ClosedFormReport:
    """A numeric prediction tagged with how it was obtained.

    ``method`` is ``"exact"`` or ``"asymptotic"``; ``formula_id`` names
    the specific formula so emitted values stay traceable.
    """

    value: float
    method: str
    formula_id: str

    def __post_init__(self):
        if self.method not in (EXACT, ASYMPTOTIC):
            raise ValueError(f"method must be 'exact' or 'asymptotic', got {self.method!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"report value must be finite, got {self.value!r}")


def invariant_pmf(params: SingleColumnParams) -> np.ndarray:
    """Stationary law of the single-column chain on {0, ..., M}.

    With beta = p*M/(alpha*q),

        pi_k = [Gamma(M+1)/Gamma(M+1-k)] * [Gamma(beta+M-k)/Gamma(beta+M)]
               * p/(p + alpha*q),

    which solves the balance equations exactly and sums to one. Successive
    entries differ by the ratio pi_{k+1}/pi_k = (M-k)/(beta+M-1-k), which
    is below 1 for every k when beta > 1 and above 1 when beta < 1, so the
    law is monotone in k. It is built as a running product of ratios from
    its largest end (k = 0 or k = M) down and normalized by its sum: each
    entry carries a few rounding errors per factor, whatever the size of
    beta, and only entries far below the largest underflow.
    """
    M = params.M
    beta = params.a
    j = np.arange(M, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        # M - 1 - j is exact, so a beta far below 1 is not lost beside it.
        ratio = (M - j) / ((M - 1 - j) + beta)
        if beta >= 1.0:
            pi = np.concatenate(([1.0], np.cumprod(ratio)))
        else:
            pi = np.concatenate((np.cumprod(1.0 / ratio[::-1])[::-1], [1.0]))
    return pi / pi.sum()


def zero_count_ratio(params: SingleColumnParams, k: int) -> float:
    """Stationary odds of k missing attributes relative to none missing.

    Equals pi_{M-k}/pi_M = Gamma(beta+k) / (Gamma(k+1) * Gamma(beta)),
    the product of (beta + j)/(j + 1) over j < k. ``OverflowError`` is
    raised when it leaves double precision.
    """
    if not 0 <= k <= params.M:
        raise ValueError(f"k must lie in [0, {params.M}], got {k!r}")
    j = np.arange(float(k))
    with np.errstate(over="ignore"):
        ratio = float(np.prod((params.a + j) / (j + 1.0)))
    if math.isinf(ratio):
        raise OverflowError(f"{params}: the zero-count ratio at k = {k} overflows double precision")
    return ratio


def zero_count_ratio_asymptotic(params: SingleColumnParams, k: int) -> float:
    """Leading-order power law k^(a-1)/Gamma(a) of the zero-count ratio."""
    if k < 1:
        raise ValueError("asymptotic form needs k >= 1")
    a = params.a
    return math.exp((a - 1.0) * math.log(k) - math.lgamma(a))


# (1 - 2m, B_2m / (2m (2m - 1))), m = 1..7: Stirling's series log Gamma(z) = (z - 1/2)
# log z - z + log(2 pi)/2 + sum of coef * z^e leaves out less than 3e-17 from z = 10 on
# (Abramowitz & Stegun 6.1.40-6.1.42).
_STIRLING = tuple(zip(range(-1, -14, -2),
                      (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)))


def _log_gamma_drop(x: float, h: float) -> float:
    """log Gamma(x) - log Gamma(x + h) for x >= 10 and h >= 0. Each series term's
    drop from x to x + h comes from ``expm1``, so a small h keeps its digits."""
    lg = math.log1p(h / x)
    tail = math.fsum(coef * x**e * math.expm1(e * lg) for e, coef in _STIRLING)
    return -(x - 0.5) * lg - h * math.log(x + h) + h - tail


def _log_gamma_ratio(n: int, c: float) -> float:
    """log K(n, c), K(n, c) = prod_{i=1..n} i/(i+c) = Gamma(n+1) Gamma(1+c) / Gamma(n+1+c), c >= 0.

    Up to n = 9 a sum of log1p's; for c < 10 that sum to 9 plus two Stirling
    drops, each proportional to c as c -> 0; otherwise log c + log Beta(c, n+1),
    its large terms gathered into log1p's. Each holds to about eps * |log K|.
    """
    if n <= 9 or c < 10:
        head = -math.fsum(math.log1p(c / i) for i in range(1, min(n, 9) + 1))
        return head if n <= 9 else head + _log_gamma_drop(n + 1.0, c) - _log_gamma_drop(10.0, c)
    if c == math.inf:
        return -math.inf
    b = n + 1.0
    tails = math.fsum(coef * (c**e + b**e - (c + b) ** e) for e, coef in _STIRLING)
    return (math.log(c) + 0.5 * math.log(2 * math.pi / (c + b)) - (c - 0.5) * math.log1p(b / c)
            - (b - 0.5) * math.log1p(c / b) + tails)


# Below this a, expm1(S)/a is H_M, which is S/a at this a, to double precision; a
# subnormal a would have lost its digits in S.
_SLOPE_STEP = 2.0**-100


def _steps_from(params: SingleColumnParams, start: int = 0) -> float:
    """Expected jumps from ``start`` < M to M, uniformized at rate p + alpha*q, in O(1).

    A jump resets with probability p' = p/(p + alpha*q); the step count
    telescopes to 1 + p' f(0) = prod_{k=1..M} (1 + a/k) = 1/K(M, a), so with
    a/p' = M + a, f(0) = (M + a) expm1(S)/a, S = -log K(M, a). From s > 0,
    f(s) = (M + a) (1 - K(M - s, a)) e^S / a. ``ValueError`` where f over
    the rate, the mean, leaves double precision.
    """
    M, a, rate = params.M, params.a, params.uniformization_rate
    try:
        if start == 0 and a >= _SLOPE_STEP:
            steps = (M + a) * (math.expm1(-_log_gamma_ratio(M, a)) / a)
        else:  # e^S rounds to 1.0 where a is below _SLOPE_STEP
            slope = (-_log_gamma_ratio(M - start, _SLOPE_STEP) / _SLOPE_STEP if a < _SLOPE_STEP
                     else -math.expm1(_log_gamma_ratio(M - start, a)) / a)
            steps = (M + a) * slope * math.exp(-_log_gamma_ratio(M, a))
    except OverflowError:
        steps = math.inf
    if not steps / rate < math.inf:  # nan where a is inf
        raise ValueError(
            f"{params}: the exact mean hitting time overflows double precision at a = {a:.4g}, rate {rate:.4g}"
        )
    return steps


def _hitting_steps(params: SingleColumnParams) -> np.ndarray:
    """Expected jumps-to-absorption of the uniformized chain, all starts: a
    backward sweep of the one-step recursion from f(0), a positive
    combination of positive terms at every step, so numerically stable."""
    M, lam = params.M, params.uniformization_rate
    p_d, q_d = params.p / lam, params.alpha * params.q / lam
    f = np.zeros(M + 1)
    f[0] = _steps_from(params)
    for i in range(M - 1, 0, -1):
        w = q_d * (1.0 - i / M)
        f[i] = (1.0 + p_d * f[0] + w * f[i + 1]) / (p_d + w)
    return f


def hitting_time_means_exact(params: SingleColumnParams) -> np.ndarray:
    """Expected continuous time to reach M from every start, as a vector;
    ``ValueError`` where the mean from 0, the largest, leaves double precision."""
    with np.errstate(over="ignore"):
        return _hitting_steps(params) / params.uniformization_rate


def hitting_time_mean_exact(params: SingleColumnParams, start: int = 0) -> float:
    """Expected continuous time to reach state M from ``start``: entry
    ``start`` of :func:`hitting_time_means_exact`, in O(1). Agrees with the
    dense-solve oracle to 1e-9 relative on every tested instance.
    """
    if not 0 <= start <= params.M:
        raise ValueError(f"start must lie in [0, {params.M}], got {start!r}")
    if start == params.M:
        return 0.0
    return _steps_from(params, start) / params.uniformization_rate


def hitting_time_mean_asymptotic(params: SingleColumnParams) -> float:
    """Leading-order mean hitting time M^(a+1) / (Gamma(a+1) * a).

    Valid as M grows with a = p*M/(alpha*q) held fixed. The constant is
    exact for alpha = 1; for alpha != 1 the leading order differs by a
    factor alpha and the exact method is authoritative. Raises
    ``ValueError`` where the power law leaves double precision.
    """
    a = params.a
    try:
        return math.exp((a + 1.0) * math.log(params.M) - math.lgamma(a + 1.0) - math.log(a))
    except OverflowError:
        raise ValueError(
            f"{params}: the power-law mean hitting time overflows double precision at a = {a:.4g}"
        ) from None


def hitting_time_variance_exact(params: SingleColumnParams, start: int = 0) -> float:
    """Variance of the continuous hitting time of M from ``start``.

    Solves the second-moment recursion of the uniformized chain with the
    ansatz g(i) = u_i + (1 - c_i) g(0), where the complement c_i obeys a
    pure product recursion (no cancellation), then converts moments to
    continuous time: E[T^2] = (g + f) / rate^2.
    """
    if not 0 <= start <= params.M:
        raise ValueError(f"start must lie in [0, {params.M}], got {start!r}")
    if start == params.M:
        return 0.0
    M, lam = params.M, params.uniformization_rate
    p_d, q_d = params.p / lam, params.alpha * params.q / lam
    f = _hitting_steps(params)

    u = np.zeros(M + 1)
    c = np.ones(M + 1)
    for i in range(M - 1, -1, -1):
        w = q_d * (1.0 - i / M)
        denom = p_d + w
        u[i] = (2.0 * f[i] - 1.0 + w * u[i + 1]) / denom
        c[i] = w * c[i + 1] / denom
    g0 = u[0] / c[0]
    g = u[start] + (1.0 - c[start]) * g0

    mean = f[start] / lam
    second = (g + f[start]) / lam**2
    return second - mean * mean


def coupon_done_by_draws(N: int, k: int) -> float:
    """Probability that k uniform draws from N coupons collect all N.

    Inclusion-exclusion: sum_{i=1..N} (-1)^(N-i) C(N,i) (i/N)^k for
    k >= N; zero for k < N (pigeonhole, enforced directly rather than
    trusting the alternating sum's roundoff). Alternating cancellation
    limits this to moderate N; the exact-rational oracle covers the rest.
    """
    if N < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    if k < N:
        return 0.0
    total = 0.0
    for i in range(1, N + 1):
        term = math.comb(N, i) * (i / N) ** k
        total += term if (N - i) % 2 == 0 else -term
    return min(1.0, max(0.0, total))


def coupon_done_by_time(N: int, t: float, rate: float) -> float:
    """Probability all N coupons are collected by time t.

    Draws arrive as a Poisson stream of total ``rate`` split uniformly,
    so coupon i is collected by t independently with probability
    1 - exp(-rate*t/N), giving (1 - exp(-rate*t/N))^N by thinning.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    per_coupon = -math.expm1(-rate * t / N)
    return per_coupon**N


def coupon_tail_bounds(n: int, c: float) -> tuple[float, float]:
    """Tail bounds for the collection time sigma of n coupons.

    Returns ``(exp(-3c^2/pi^2), exp(-c))`` bounding
    P(sigma < n log n - c n) and P(sigma > n log n + c n) respectively,
    from the exponential Chebyshev inequality. Meaningful for c >= 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    return math.exp(-3.0 * c * c / math.pi**2), math.exp(-c)


def collection_time_laplace(M: int, q: float, alpha: float) -> float:
    """Laplace transform E[exp(-alpha*T)] of the coupon collection time.

    T is the time to collect M coupons drawn by an exponential clock of
    total rate q, a sum of independent Exp(p_i = q*(1 - i/M)) stages, so
    E[exp(-alpha*T)] = prod_i p_i/(p_i + alpha) = K(M, M*alpha/q).
    """
    if M < 1:
        raise ValueError("need M >= 1")
    if q <= 0:
        raise ValueError("q must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return math.exp(_log_gamma_ratio(M, M * alpha / q))


def steady_allones_probability(params: MatrixParams) -> float:
    """Stationary probability that a fixed column is entirely ones.

    Each attribute of the column fills at rate q_tilde/M (row events or
    entry events) while the column resets at rate p/N; racing the fill
    against the reset clock gives the collection-time Laplace transform
    at alpha = p/N with per-stage rates q_tilde*(1 - i/M): K(M, M*p/(N*q_tilde)).
    """
    return math.exp(_log_gamma_ratio(params.M, params.M * params.p / (params.N * params.q_tilde)))


def steady_allones_count(params: MatrixParams, method: str = EXACT) -> float:
    """Expected number of all-ones columns in the stationary law.

    ``exact`` is N times the per-column Gamma ratio. ``asymptotic`` is
    the Stirling limit N * Gamma(1 + b_tilde) / M^b_tilde, which the
    exact value approaches as M, N grow with b_tilde fixed.
    """
    if method == EXACT:
        return params.N * steady_allones_probability(params)
    if method == ASYMPTOTIC:
        return _power_law_count(params, math.log(params.M))
    raise ValueError(f"method must be 'exact' or 'asymptotic', got {method!r}")


def _steady_allones_count_asymptotic_rate_scaled(params: MatrixParams) -> float:
    # Variant with the rate-scaled base (M/q_tilde)^b_tilde; kept only for
    # comparison, the exact Gamma ratio arbitrates. It differs from the
    # exact value by the constant factor q_tilde^b_tilde in the limit.
    return _power_law_count(params, math.log(params.M / params.q_tilde))


def _power_law_count(params: MatrixParams, log_base: float) -> float:
    """N * Gamma(1 + b_tilde) / base^b_tilde, or ``ValueError`` past double precision."""
    bt = params.b_tilde
    try:
        return params.N * math.exp(math.lgamma(1 + bt) - bt * log_base)
    except OverflowError:
        raise ValueError(
            f"{params}: the power-law steady count overflows double precision at "
            f"b_tilde = {bt:.4g}; only the exact count applies here"
        ) from None


def transition_time_prediction(params: MatrixParams) -> float:
    """Predicted equilibration time M * log(M) / q_tilde of the matrix chain."""
    return params.M * math.log(params.M) / params.q_tilde


# Every reported prediction as (formula id, method, function of the
# parameters); a lambda looks its function up when called, so a wrapper bound
# in its place sees the call. A model's table joins its named subsets.
TRANSITION_TIME_FORMULAS = (
    ("transition_time_mlogm", ASYMPTOTIC, lambda params: transition_time_prediction(params)),
)
STEADY_COUNT_FORMULAS = (
    ("steady_count_gamma_ratio", EXACT, lambda params: steady_allones_count(params, EXACT)),
    ("steady_count_power_law", ASYMPTOTIC, lambda params: steady_allones_count(params, ASYMPTOTIC)),
    ("steady_count_power_law_rate_scaled", ASYMPTOTIC, _steady_allones_count_asymptotic_rate_scaled),
)
MATRIX_FORMULAS = TRANSITION_TIME_FORMULAS + STEADY_COUNT_FORMULAS

EXACT_HITTING_MEAN_FORMULAS = (
    ("hitting_mean_recursion", EXACT, lambda params: hitting_time_mean_exact(params, 0)),
)
COLUMN_FORMULAS = EXACT_HITTING_MEAN_FORMULAS + (
    ("hitting_mean_power_law", ASYMPTOTIC, lambda params: hitting_time_mean_asymptotic(params)),
)


def predictions(params, formulas) -> dict:
    """Summary keys for one report per row of ``formulas``.

    A formula that leaves double precision (``ValueError`` or
    ``ArithmeticError``) goes under ``unavailable_predictions`` with the
    reason, so the rest are still written; the key is absent when every
    value is finite.
    """
    reports, unavailable = [], []
    for formula_id, method, formula in formulas:
        try:
            reports.append(asdict(ClosedFormReport(formula(params), method, formula_id)))
        except (ArithmeticError, ValueError) as exc:
            unavailable.append({"method": method, "formula_id": formula_id, "reason": str(exc)})
    out = {"predictions": reports}
    if unavailable:
        out["unavailable_predictions"] = unavailable
    return out


def _reports(params, formulas) -> tuple[ClosedFormReport, ...]:
    """One report per row of ``formulas``; a formula past double precision raises."""
    return tuple(ClosedFormReport(formula(params), method, formula_id)
                 for formula_id, method, formula in formulas)


def steady_allones_count_reports(params: MatrixParams) -> tuple[ClosedFormReport, ...]:
    """All steady-count estimates, each tagged with its formula id."""
    return _reports(params, STEADY_COUNT_FORMULAS)


def transition_time_report(params: MatrixParams) -> ClosedFormReport:
    return _reports(params, TRANSITION_TIME_FORMULAS)[0]


def identify_parameters(
    p_d: float, N: int, p_m: float, M: int
) -> tuple[SingleColumnParams, MatrixParams]:
    """Map per-step probabilities (p_d, p_m) to continuous-rate parameters.

    The matrix chain uses p = p_d and lambda_m = p_m * M directly. The
    single-column view of one fixed component sees resets thinned by the
    number of components (p = p_d / N) and updates sped up by the entry
    channel (alpha = 1 + lambda_m).
    """
    if not 0.0 < p_d < 1.0:
        raise ValueError(f"p_d must lie in (0, 1), got {p_d!r}")
    if p_m < 0:
        raise ValueError(f"p_m must be nonnegative, got {p_m!r}")
    lam = _as_float(p_m, "p_m") * _as_float(M, "M")
    single = SingleColumnParams(M=M, alpha=1.0 + lam, p=p_d / _as_float(N, "N"))
    matrix = MatrixParams(M=M, N=N, p=p_d, lambda_m=lam)
    return single, matrix
