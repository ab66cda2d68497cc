"""Experiment runner: simulate, sample, analyze, verify, emit figure data.

Configuration is a flat key set, readable from a JSON file (``--config``)
with CLI flags taking precedence. Rates come raw (``p``, ``lambda_m``,
``alpha``) or as per-step probabilities (``pd``, ``pm``), never mixed;
``analytics.identify_parameters`` maps the latter to ``p = pd`` and
``lambda_m = pm*M`` for the matrix, ``p = pd/N`` and ``alpha = 1 + pm*M``
for a single column. A raw rate the model has no use for (``alpha`` on
the matrix, ``lambda_m`` on a single column) is refused.

Each command's handler computes and returns ``(summary, tables)``: the
summary without its config, and each CSV table as ``(file name, schema,
header, rows)``. :func:`run_experiment` alone writes them: ``summary.json``,
with the resolved config echoed back so that a run can be reproduced from
its own summary, and each table under a versioned schema header.
``verify`` writes no file; its handler yields one ``(name, max_err, tol)``
per check. All output is deterministic in (config, seed).

Exit codes: 0 success, 1 invalid configuration, 2 I/O failure,
3 internal consistency check failed (oracle mismatch beyond tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import analytics, oracle, reversal
from .models import MatrixParams, SingleColumnParams, _as_float
from .rng import replicate_rng
# cli calls no simulate_single_column; perfbench's tracer test asserts that it binds one.
from .simulate import check_batch_size, replicate_runs, simulate_single_column  # noqa: F401
from .stats import empirical_tv, estimate_mean

__all__ = ["ExperimentConfig", "main", "run_experiment", "emit_figure_data"]

SERIES_SCHEMA = "immunochain-series-v1"
FIGURE_COUNTS_SCHEMA = "immunochain-figure-counts-v1"
FIGURE_PM_SCHEMA = "immunochain-figure-transition-vs-pm-v1"
STEADY_SAMPLES_SCHEMA = "immunochain-steady-samples-v1"

MODEL_SINGLE = "single-column"
MODEL_MATRIX = "matrix"

_OBSERVABLES = ("taus", "counts", "series")

# Config fields by type. A JSON config file can hold a string or a bool
# where a number is due; a bool is refused as a number.
_FIELD_TYPES = (
    (("M", "N", "replicates", "seed"), Integral, "an integer"),
    (("p", "pd", "pm", "lambda_m", "alpha", "horizon"), Real, "a number"),
    (("model", "format", "out"), str, "a string"),
    (("outputs",), list, "a list of strings"),
)


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
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.outputs is not None and not all(isinstance(o, str) for o in self.outputs):
            raise ValueError(f"outputs must be a list of strings, got {self.outputs!r}")
        if self.model not in (MODEL_SINGLE, MODEL_MATRIX):
            raise ValueError(f"model must be {MODEL_SINGLE!r} or {MODEL_MATRIX!r}, got {self.model!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.outputs is not None:
            unknown = set(self.outputs) - set(_OBSERVABLES)
            if unknown:
                raise ValueError(f"unknown observables {sorted(unknown)}; known: {list(_OBSERVABLES)}")
            if self.format == "json" and "series" in self.outputs:
                raise ValueError("a series is written only as series.csv; give format: csv to get it")
        if self.horizon is not None and not 0 < _as_float(self.horizon, "horizon") < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        raw = (self.p, self.lambda_m, self.alpha)
        if (self.pd is not None or self.pm is not None) and any(v is not None for v in raw):
            raise ValueError("give either raw rates (p, lambda_m, alpha) or per-step probabilities (pd, pm), not both")

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        clean = {k: v for k, v in data.items() if v is not None}
        try:
            return cls(**clean)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc

    def wants(self, observable: str) -> bool:
        return self.outputs is None or observable in self.outputs

    def params(self) -> SingleColumnParams | MatrixParams:
        """The model's parameter record, from the per-step or the raw keys."""
        matrix = self.model == MODEL_MATRIX
        if self.M is None or (matrix and self.N is None):
            raise ValueError("matrix model needs M and N" if matrix else "single-column model needs M")
        unread = "alpha" if matrix else "lambda_m"
        if getattr(self, unread) is not None:
            raise ValueError(f"{self.model} model has no {unread}")
        if self.pd is not None:
            if self.N is None:
                raise ValueError("mapping pd to a single column needs N")
            single, pair = analytics.identify_parameters(self.pd, self.N, self.pm or 0.0, self.M)
            return pair if matrix else single
        if self.p is None:
            raise ValueError(f"{self.model} model needs p or pd")
        if matrix:
            lam = self.lambda_m if self.lambda_m is not None else 0.0
            return MatrixParams(M=self.M, N=self.N, p=self.p, lambda_m=lam)
        return SingleColumnParams(M=self.M, alpha=self.alpha if self.alpha is not None else 1.0, p=self.p)


def _float_repr(x) -> str:
    # repr of builtin float is the shortest round-trip form and is
    # deterministic; numpy scalars are coerced so their repr never leaks.
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    lines = [f"# schema={schema} columns={','.join(header)}", ",".join(header)]
    lines.extend(",".join(_float_repr(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _cmd_analyze(config: ExperimentConfig) -> tuple[dict, list]:
    params = config.params()
    if config.model == MODEL_MATRIX:
        summary = {
            "parameters": {
                "M": params.M, "N": params.N, "p": params.p, "q": params.q,
                "lambda_m": params.lambda_m, "q_tilde": params.q_tilde,
                "b": params.b, "b_tilde": params.b_tilde,
            },
            **analytics.predictions(params, analytics.MATRIX_FORMULAS),
            "steady_allones_probability": analytics.steady_allones_probability(params),
            "transition_time_prediction": analytics.transition_time_prediction(params),
        }
    else:
        summary = {
            "parameters": {"M": params.M, "alpha": params.alpha, "p": params.p, "q": params.q, "a": params.a},
            **analytics.predictions(params, analytics.COLUMN_FORMULAS),
        }
        if params.M <= 512:
            summary["invariant_pmf"] = list(analytics.invariant_pmf(params))
    return summary, []


def _replicates(config: ExperimentConfig, command: str) -> int:
    """The batch size of ``command``, charged by ``check_batch_size`` before its first run."""
    if config.replicates is None:
        raise ValueError(f"{command} needs replicates")
    return config.replicates


def _cmd_simulate(config: ExperimentConfig) -> tuple[dict, list]:
    n = _replicates(config, "simulate")
    want_series = config.format == "csv" and config.wants("series")
    # A single column's hit run writes its column-complete indicator, 0 until
    # tau and 1 from it, so it draws the same taus with or without a series.
    hit_indicator = want_series and config.model == MODEL_SINGLE and config.horizon is None
    taus: list[float | None] = []
    rows = []
    end_values = []
    params = config.params()
    runs = replicate_runs(params, n, config.seed, config.horizon, record_series=want_series and not hit_indicator)
    for r, traj in enumerate(runs):
        taus.append(traj.tau)
        end_values.append(traj.end_value)
        if hit_indicator:
            rows += [(0.0, 0, r), (traj.tau, 1, r)]
        elif want_series:
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
    formulas = analytics.MATRIX_FORMULAS if config.model == MODEL_MATRIX else analytics.EXACT_HITTING_MEAN_FORMULAS
    summary = analytics.predictions(params, formulas)
    if config.wants("taus"):
        summary["taus"] = taus
        summary["n_missing_tau"] = len(taus) - len(finite)
        if len(finite) >= 2:
            summary["tau_mean"] = asdict(estimate_mean(finite, master_seed=config.seed))
    if config.wants("counts"):
        summary["end_values"] = end_values
    series = ("series.csv", SERIES_SCHEMA, ["time", "all_ones_count", "replicate"], rows)
    return summary, [series] if want_series else []


def _cmd_sample_steady(config: ExperimentConfig) -> tuple[dict, list]:
    if config.model != MODEL_MATRIX:
        raise ValueError("sample-steady applies to the matrix model")
    n = _replicates(config, "sample-steady")
    check_batch_size(n)
    params = config.params()
    counts = np.empty(n, dtype=np.int64)
    for r in range(n):
        counts[r] = reversal.sample_invariant_count(params, replicate_rng(config.seed, r))
    summary = analytics.predictions(params, analytics.STEADY_COUNT_FORMULAS)
    if n >= 2:
        summary["all_ones_count_mean"] = asdict(estimate_mean(counts, master_seed=config.seed))
    rows = [(r, int(c)) for r, c in enumerate(counts)]
    samples = ("samples.csv", STEADY_SAMPLES_SCHEMA, ["replicate", "all_ones_count"], rows)
    return summary, [samples] if config.format == "csv" else []


def emit_figure_data(config: ExperimentConfig) -> tuple[dict, list]:
    """The figure-data handler: the count-vs-time and predicted-tau-vs-pm
    tables, and the matrix predictions as the summary."""
    if config.model != MODEL_MATRIX:
        raise ValueError("figure-data applies to the matrix model")
    n = _replicates(config, "figure-data")
    params = config.params()
    horizon = config.horizon if config.horizon is not None else 2500.0
    n_grid = 201
    grid = np.linspace(0.0, horizon, n_grid)
    mean_counts = np.zeros(n_grid)
    for traj in replicate_runs(params, n, config.seed, horizon, record_series=True):
        idx = np.searchsorted(traj.series_times, grid, side="right") - 1
        mean_counts += traj.series_values[idx]
    mean_counts /= n

    t_pred = analytics.transition_time_prediction(params)
    steady = analytics.steady_allones_count(params, "exact")
    counts = (
        "figure_counts.csv", FIGURE_COUNTS_SCHEMA,
        ["time", "mean_all_ones_count", "predicted_transition_time", "predicted_steady_count"],
        [(float(t), float(c), t_pred, steady) for t, c in zip(grid, mean_counts)],
    )
    pm_grid = np.logspace(-4, -1, 50)
    rows = []
    for pm in pm_grid:
        lam = pm * params.M
        scaled = MatrixParams(M=params.M, N=params.N, p=params.p, lambda_m=lam)
        rows.append((float(pm), analytics.transition_time_prediction(scaled)))
    by_pm = ("figure_transition_vs_pm.csv", FIGURE_PM_SCHEMA, ["p_m", "predicted_transition_time"], rows)
    return analytics.predictions(params, analytics.MATRIX_FORMULAS), [counts, by_pm]


def _verify_checks(config: ExperimentConfig):
    """Each cross-check of closed forms and the sampler against the oracle,
    as ``(name, max_err, tol)``. ``max_err`` is the largest of the check's
    errors, and NaN if any of them is, so that a NaN fails its check."""
    alphas = (0.5, 1.0, 2.0)
    ps = (0.1, 0.5, 0.9)

    errs = []
    for M in range(1, 9):
        chains = [SingleColumnParams(M=M, alpha=alpha, p=p) for alpha in alphas for p in ps]
        pmf = np.array([analytics.invariant_pmf(params) for params in chains])
        ref = oracle.stationary_solve(oracle.single_column_generator(chains))  # one GTH stack per M
        errs.append(np.max(np.abs(pmf - ref) / np.maximum(ref, 1e-300)))
    yield "invariant-pmf-vs-oracle", float(np.max(errs)), 1e-10

    errs = []
    for M in (1, 2, 4, 8, 16, 32, 64):
        for alpha in alphas:
            for p in ps:
                params = SingleColumnParams(M=M, alpha=alpha, p=p)
                means = analytics.hitting_time_means_exact(params)[:M]
                ref = oracle.single_column_hitting_means(params)
                errs.append(np.max(np.abs(means - ref) / ref))
    yield "hitting-mean-vs-oracle", float(np.max(errs)), 1e-9

    errs = [
        abs(analytics.coupon_done_by_draws(N, k) - float(oracle.coupon_enumerate(N, k)))
        for N in range(1, 6)
        for k in range(0, 11)
    ]
    yield "coupon-vs-enumeration", float(np.max(errs)), 1e-12

    errs = []
    laws = {}
    for lam in (0.0, 0.3):
        params = MatrixParams(M=2, N=1, p=0.5, lambda_m=lam)
        laws[lam] = pi = oracle.stationary_solve(oracle.matrix_generator(params))
        all_ones = (1 << (params.M * params.N)) - 1
        errs.append(abs(pi[all_ones] - analytics.steady_allones_probability(params)))
    yield "steady-probability-vs-oracle", float(np.max(errs)), 1e-10

    n_draws = 100_000
    counts = reversal.sample_invariant_histogram(
        MatrixParams(M=2, N=1, p=0.5, lambda_m=0.0), n_draws, master_seed=config.seed
    )
    yield "reversal-sampler-tv", empirical_tv(counts / n_draws, laws[0.0]), 0.02


# Each subcommand's help line and handler, in the order --help lists them.
_COMMANDS = {
    "simulate": ("run replicated chain simulations", _cmd_simulate),
    "sample-steady": ("draw stationary matrices with the reversal sampler", _cmd_sample_steady),
    "analyze": ("emit closed-form predictions without simulating", _cmd_analyze),
    "verify": ("cross-check closed forms and sampler against the oracle", _verify_checks),
    "figure-data": ("emit CSV data for the count-vs-time and tau-vs-pm figures", emit_figure_data),
}


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
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        try:
            loaded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        data.update(loaded)
    flags = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    data.update({name: value for name, value in flags.items() if value is not None})
    return ExperimentConfig.from_mapping(data)


def run_experiment(command: str, config: ExperimentConfig) -> int:
    """Run ``command`` and report what its handler returns.

    ``verify`` prints one line per check and raises ``VerificationError``
    if any failed. Every other command returns its summary and its CSV
    tables, which are written here and only here: ``summary.json``, with
    the config echoed, and each table under its file name.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    handler = _COMMANDS[command][1]
    if command == "verify":
        failures = []
        for name, err, tol in handler(config):
            ok = err <= tol
            print(f"verify {name}: max_err={err:.3e} tol={tol:.0e} {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(name)
        if failures:
            raise VerificationError(f"oracle cross-checks failed: {failures}")
        print("verify: all checks passed")
        return 0
    summary, tables = handler(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"config": asdict(config), **summary}
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    for name, schema, header, rows in tables:
        _write_csv(out_dir / name, schema, header, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _resolve_config(args)
        return run_experiment(args.command, config)
    except ValueError as exc:
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
