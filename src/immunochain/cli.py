"""Experiment runner: simulate, sample, analyze, verify, emit figure data.

Configuration is a flat key set, readable from a JSON file (``--config``)
with CLI flags taking precedence. Outputs are a JSON summary (with the
resolved config echoed back, so a run can be reproduced from its own
summary) and CSV time series with a versioned schema header. All output
is deterministic in (config, seed).

Exit codes: 0 success, 1 invalid configuration, 2 I/O failure,
3 internal consistency check failed (oracle mismatch beyond tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import analytics, oracle, reversal
from .models import MatrixParams, SingleColumnParams
from .rng import replicate_rng
from .simulate import SimulationConfig, simulate_matrix, simulate_single_column
from .stats import empirical_tv, estimate_mean

__all__ = ["ExperimentConfig", "main", "run_experiment", "emit_figure_data"]

SERIES_SCHEMA = "immunochain-series-v1"
FIGURE_COUNTS_SCHEMA = "immunochain-figure-counts-v1"
FIGURE_PM_SCHEMA = "immunochain-figure-transition-vs-pm-v1"

MODEL_SINGLE = "single-column"
MODEL_MATRIX = "matrix"

_CONFIG_KEYS = (
    "model", "M", "N", "p", "pd", "pm", "lambda_m", "alpha",
    "replicates", "horizon", "seed", "out", "format", "outputs",
)

_OBSERVABLES = ("taus", "counts", "series")

# Config fields by type. A JSON config file can hold a string or a bool
# where a number is due; a bool is refused as a number.
_FIELD_TYPES = (
    (("M", "N", "replicates", "seed"), Integral, "an integer"),
    (("p", "pd", "pm", "lambda_m", "alpha", "horizon"), Real, "a number"),
    (("model", "format", "out"), str, "a string"),
    (("outputs",), list, "a list of strings"),
)


class ConfigError(ValueError):
    pass


class VerificationError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    """Flat, validated experiment description."""

    model: str = MODEL_MATRIX
    M: int | None = None
    N: int | None = None
    p: float | None = None
    pd: float | None = None
    pm: float | None = None
    lambda_m: float | None = None
    alpha: float | None = None
    replicates: int | None = None
    horizon: float | None = None
    seed: int = 0
    out: str = "."
    format: str = "csv"
    outputs: list[str] | None = None  # None = every observable

    def __post_init__(self):
        for names, kind, what in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.outputs is not None and not all(isinstance(o, str) for o in self.outputs):
            raise ConfigError(f"outputs must be a list of strings, got {self.outputs!r}")
        if self.model not in (MODEL_SINGLE, MODEL_MATRIX):
            raise ConfigError(f"model must be {MODEL_SINGLE!r} or {MODEL_MATRIX!r}, got {self.model!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.outputs is not None:
            unknown = set(self.outputs) - set(_OBSERVABLES)
            if unknown:
                raise ConfigError(f"unknown observables {sorted(unknown)}; known: {list(_OBSERVABLES)}")
        if self.replicates is not None and self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon!r}")
        mixed_p = self.pd is not None and self.p is not None
        mixed_lam = self.pm is not None and (self.lambda_m is not None or self.alpha is not None)
        if mixed_p or mixed_lam:
            raise ConfigError("give either raw rates (p, lambda_m, alpha) or per-step probabilities (pd, pm), not both")

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        clean = {k: v for k, v in data.items() if v is not None}
        try:
            return cls(**clean)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def single_column_params(self) -> SingleColumnParams:
        if self.M is None:
            raise ConfigError("single-column model needs M")
        try:
            if self.pd is not None:
                if self.N is None:
                    raise ConfigError("mapping pd to a single column needs N")
                single, _ = analytics.identify_parameters(self.pd, self.N, self.pm or 0.0, self.M)
                return single
            if self.p is None:
                raise ConfigError("single-column model needs p or pd")
            return SingleColumnParams(M=self.M, alpha=self.alpha if self.alpha is not None else 1.0, p=self.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def wants(self, observable: str) -> bool:
        return self.outputs is None or observable in self.outputs

    def matrix_params(self) -> MatrixParams:
        if self.M is None or self.N is None:
            raise ConfigError("matrix model needs M and N")
        try:
            if self.pd is not None:
                _, matrix = analytics.identify_parameters(self.pd, self.N, self.pm or 0.0, self.M)
                return matrix
            if self.p is None:
                raise ConfigError("matrix model needs p or pd")
            lam = self.lambda_m if self.lambda_m is not None else (self.pm or 0.0) * self.M
            return MatrixParams(M=self.M, N=self.N, p=self.p, lambda_m=lam)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _float_repr(x) -> str:
    # repr of builtin float is the shortest round-trip form and is
    # deterministic; numpy scalars are coerced so their repr never leaks.
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    lines = [f"# schema={schema} columns={','.join(header)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_float_repr(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_summary(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# Each model's predictions as (formula id, method, function of the
# parameters), as in analytics.STEADY_COUNT_FORMULAS; the lambdas look the
# analytics functions up when called.
_MATRIX_FORMULAS = (
    ("transition_time_mlogm", analytics.ASYMPTOTIC,
     lambda params: analytics.transition_time_prediction(params)),
    *analytics.STEADY_COUNT_FORMULAS,
)
_COLUMN_FORMULAS = (
    ("hitting_mean_recursion", analytics.EXACT,
     lambda params: analytics.hitting_time_mean_exact(params, 0)),
    ("hitting_mean_power_law", analytics.ASYMPTOTIC,
     lambda params: analytics.hitting_time_mean_asymptotic(params)),
)


def _unavailable(method: str, formula_id: str, exc: Exception) -> dict:
    return {"method": method, "formula_id": formula_id, "reason": str(exc)}


def _predictions(params, formulas) -> dict:
    """Summary keys for one report per ``(formula_id, method, formula)``.

    A formula that leaves double precision (``ValueError`` or
    ``ArithmeticError``) goes under ``unavailable_predictions`` with the
    reason, so the rest are still written; the key is absent when every
    value is finite.
    """
    reports, unavailable = [], []
    for formula_id, method, formula in formulas:
        try:
            reports.append(analytics.ClosedFormReport(formula(params), method, formula_id))
        except (ArithmeticError, ValueError) as exc:
            unavailable.append(_unavailable(method, formula_id, exc))
    out = {"predictions": [asdict(r) for r in reports]}
    if unavailable:
        out["unavailable_predictions"] = unavailable
    return out


def _analyze_payload(config: ExperimentConfig) -> dict:
    out: dict = {"config": asdict(config)}
    if config.model == MODEL_MATRIX:
        params = config.matrix_params()
        out["parameters"] = {
            "M": params.M, "N": params.N, "p": params.p, "q": params.q,
            "lambda_m": params.lambda_m, "q_tilde": params.q_tilde,
            "b": params.b, "b_tilde": params.b_tilde,
        }
        out.update(_predictions(params, _MATRIX_FORMULAS))
        out["steady_allones_probability"] = analytics.steady_allones_probability(params)
        out["transition_time_prediction"] = analytics.transition_time_prediction(params)
    else:
        params = config.single_column_params()
        out["parameters"] = {
            "M": params.M, "alpha": params.alpha, "p": params.p, "q": params.q, "a": params.a,
        }
        out.update(_predictions(params, _COLUMN_FORMULAS))
        if params.M <= 512:
            out["invariant_pmf"] = list(analytics.invariant_pmf(params))
    return out


def _cmd_analyze(config: ExperimentConfig) -> int:
    payload = _analyze_payload(config)
    _write_summary(Path(config.out) / "summary.json", payload)
    return 0


def _cmd_simulate(config: ExperimentConfig) -> int:
    if config.replicates is None:
        raise ConfigError("simulate needs replicates")
    n = config.replicates
    want_series = config.format == "csv" and config.wants("series")
    taus: list[float | None] = []
    rows = []
    end_values = []
    if config.model == MODEL_MATRIX:
        params = config.matrix_params()
        simulate = simulate_matrix
        predictions = _predictions(params, _MATRIX_FORMULAS)
    else:
        params = config.single_column_params()
        simulate = simulate_single_column
        predictions = _predictions(params, _COLUMN_FORMULAS[:1])
    for r in range(n):
        sim = SimulationConfig(
            master_seed=config.seed, replicate_index=r, horizon=config.horizon,
            record_series=want_series,
        )
        traj = simulate(params, sim)
        taus.append(traj.tau)
        end_values.append(traj.end_value)
        if want_series:
            values = traj.series_values
            if config.model == MODEL_SINGLE:
                # Emit the column-complete indicator so the schema is shared.
                values = (values == params.M).astype(int)
            changed = np.ones(values.size, dtype=bool)
            changed[1:] = values[1:] != values[:-1]
            rows.extend(
                (t, v, r) for t, v in zip(traj.series_times[changed].tolist(), values[changed].tolist())
            )

    finite = [t for t in taus if t is not None]
    summary = {"config": asdict(config), **predictions}
    if config.wants("taus"):
        summary["taus"] = taus
        summary["n_missing_tau"] = len(taus) - len(finite)
        if len(finite) >= 2:
            summary["tau_mean"] = asdict(estimate_mean(finite, master_seed=config.seed))
    if config.wants("counts"):
        summary["end_values"] = end_values
    out_dir = Path(config.out)
    _write_summary(out_dir / "summary.json", summary)
    if want_series:
        _write_csv(out_dir / "series.csv", SERIES_SCHEMA,
                   ["time", "all_ones_count", "replicate"], rows)
    return 0


def _cmd_sample_steady(config: ExperimentConfig) -> int:
    if config.model != MODEL_MATRIX:
        raise ConfigError("sample-steady applies to the matrix model")
    if config.replicates is None:
        raise ConfigError("sample-steady needs replicates")
    params = config.matrix_params()
    counts = np.empty(config.replicates, dtype=np.int64)
    for r in range(config.replicates):
        counts[r] = reversal.sample_invariant_count(params, replicate_rng(config.seed, r))
    summary = {"config": asdict(config), **_predictions(params, analytics.STEADY_COUNT_FORMULAS)}
    if config.replicates >= 2:
        summary["all_ones_count_mean"] = asdict(estimate_mean(counts, master_seed=config.seed))
    out_dir = Path(config.out)
    _write_summary(out_dir / "summary.json", summary)
    if config.format == "csv":
        _write_csv(out_dir / "samples.csv", "immunochain-steady-samples-v1",
                   ["replicate", "all_ones_count"],
                   [(r, int(c)) for r, c in enumerate(counts)])
    return 0


def emit_figure_data(config: ExperimentConfig) -> int:
    """Write the two figure CSVs: count-vs-time and predicted-tau-vs-pm."""
    if config.model != MODEL_MATRIX:
        raise ConfigError("figure-data applies to the matrix model")
    if config.replicates is None:
        raise ConfigError("figure-data needs replicates")
    params = config.matrix_params()
    horizon = config.horizon if config.horizon is not None else 2500.0
    n_grid = 201
    grid = np.linspace(0.0, horizon, n_grid)
    mean_counts = np.zeros(n_grid)
    for r in range(config.replicates):
        sim = SimulationConfig(master_seed=config.seed, replicate_index=r, horizon=horizon, record_series=True)
        traj = simulate_matrix(params, sim)
        idx = np.searchsorted(traj.series_times, grid, side="right") - 1
        mean_counts += traj.series_values[idx]
    mean_counts /= config.replicates

    t_pred = analytics.transition_time_prediction(params)
    steady = analytics.steady_allones_count(params, "exact")
    out_dir = Path(config.out)
    _write_csv(
        out_dir / "figure_counts.csv", FIGURE_COUNTS_SCHEMA,
        ["time", "mean_all_ones_count", "predicted_transition_time", "predicted_steady_count"],
        [(float(t), float(c), t_pred, steady) for t, c in zip(grid, mean_counts)],
    )

    pm_grid = np.logspace(-4, -1, 50)
    rows = []
    for pm in pm_grid:
        lam = pm * params.M
        scaled = MatrixParams(M=params.M, N=params.N, p=params.p, lambda_m=lam)
        rows.append((float(pm), analytics.transition_time_prediction(scaled)))
    _write_csv(out_dir / "figure_transition_vs_pm.csv", FIGURE_PM_SCHEMA,
               ["p_m", "predicted_transition_time"], rows)

    summary = {"config": asdict(config), **_predictions(params, _MATRIX_FORMULAS)}
    _write_summary(out_dir / "summary.json", summary)
    return 0


def _cmd_verify(config: ExperimentConfig, small: bool) -> int:
    """Cross-check closed forms and the sampler against the oracle."""
    failures: list[str] = []

    def check(name: str, err: float, tol: float) -> None:
        status = "ok" if err <= tol else "FAIL"
        print(f"verify {name}: max_err={err:.3e} tol={tol:.0e} {status}")
        if err > tol:
            failures.append(name)

    m_grid = range(1, 5 if small else 9)
    alphas = (0.5, 1.0, 2.0)
    ps = (0.1, 0.5, 0.9)

    worst = 0.0
    for M in m_grid:
        for alpha in alphas:
            for p in ps:
                params = SingleColumnParams(M=M, alpha=alpha, p=p)
                pi = analytics.invariant_pmf(params)
                ref = oracle.stationary_solve(oracle.single_column_generator(params))
                worst = max(worst, float(np.max(np.abs(pi - ref) / np.maximum(ref, 1e-300))))
    check("invariant-pmf-vs-oracle", worst, 1e-10)

    worst = 0.0
    for M in (1, 2, 4, 8, 16) if small else (1, 2, 4, 8, 16, 32, 64):
        for alpha in alphas:
            for p in ps:
                params = SingleColumnParams(M=M, alpha=alpha, p=p)
                means = analytics.hitting_time_means_exact(params)[:M]
                ref = oracle.single_column_hitting_means(params)
                worst = max(worst, float(np.max(np.abs(means - ref) / ref)))
    check("hitting-mean-vs-oracle", worst, 1e-9)

    worst = 0.0
    for N in range(1, 5 if small else 6):
        for k in range(0, 9 if small else 11):
            worst = max(worst, abs(analytics.coupon_done_by_draws(N, k) - float(oracle.coupon_enumerate(N, k))))
    check("coupon-vs-enumeration", worst, 1e-12)

    worst = 0.0
    for lam in (0.0, 0.3):
        params = MatrixParams(M=2, N=1, p=0.5, lambda_m=lam)
        pi = oracle.stationary_solve(oracle.matrix_generator(params))
        all_ones = (1 << (params.M * params.N)) - 1
        worst = max(worst, abs(pi[all_ones] - analytics.steady_allones_probability(params)))
    check("steady-probability-vs-oracle", worst, 1e-10)

    params = MatrixParams(M=2, N=1, p=0.5, lambda_m=0.0)
    n_draws = 20_000 if small else 100_000
    counts = reversal.sample_invariant_histogram(params, n_draws, master_seed=config.seed)
    pi = oracle.stationary_solve(oracle.matrix_generator(params))
    tv = empirical_tv(counts / n_draws, pi)
    check("reversal-sampler-tv", tv, 0.05 if small else 0.02)

    if failures:
        raise VerificationError(f"oracle cross-checks failed: {failures}")
    print("verify: all checks passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call.

    The cache serves only callers that run :func:`main` several times in
    one process; the parser it returns must not be changed.
    """
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in (
        ("--config", dict(type=str, help="JSON config file")),
        ("--model", dict(choices=[MODEL_SINGLE, MODEL_MATRIX])),
        ("--M", dict(type=int, help="rows / attributes")),
        ("--N", dict(type=int, help="columns / components")),
        ("--p", dict(type=float, help="reset rate in (0,1)")),
        ("--pd", dict(type=float, help="per-step deletion probability")),
        ("--pm", dict(type=float, help="per-step entry probability")),
        ("--lambda-m", dict(dest="lambda_m", type=float)),
        ("--alpha", dict(type=float, help="single-column update speed")),
        ("--replicates", dict(type=int)),
        ("--horizon", dict(type=float)),
        ("--seed", dict(type=int)),
        ("--out", dict(type=str, help="output directory")),
        ("--format", dict(choices=["csv", "json"])),
    ):
        common.add_argument(flag, default=None, **kwargs)
    parser = argparse.ArgumentParser(
        prog="immunochain",
        description="Simulate and analyze the immune-learning Markov chain models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run replicated chain simulations"),
        ("sample-steady", "draw stationary matrices with the reversal sampler"),
        ("analyze", "emit closed-form predictions without simulating"),
        ("verify", "cross-check closed forms and sampler against the oracle"),
        ("figure-data", "emit CSV data for the count-vs-time and tau-vs-pm figures"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name == "verify":
            p.add_argument("--small", action="store_true", help="reduced, fast grid")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            loaded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    return ExperimentConfig.from_mapping(data)


def run_experiment(command: str, config: ExperimentConfig, small: bool = False) -> int:
    if command == "simulate":
        return _cmd_simulate(config)
    if command == "sample-steady":
        return _cmd_sample_steady(config)
    if command == "analyze":
        return _cmd_analyze(config)
    if command == "verify":
        return _cmd_verify(config, small)
    if command == "figure-data":
        return emit_figure_data(config)
    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _resolve_config(args)
        return run_experiment(args.command, config, small=getattr(args, "small", False))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
