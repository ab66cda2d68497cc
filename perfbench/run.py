"""Benchmark of immunochain's CLI commands and library entry points.

Run from the repository root:

    python3 perfbench/run.py --workload matrix-endstate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Workloads, metrics and bounds are declared in ``BENCHMARK.json``. A run
makes the workload's operations from ``--seed`` (CLI argv lists and
library arguments at fixed parameter points, with seeds drawn from
``--seed``), then runs them as passes. Each pass is one fresh child
process (``child.py``) that imports ``immunochain`` from ``src/``, runs
every operation once and checks its output; passes run one after another
until ``--seconds`` have gone by, and at least three run. Timings are
medians over passes, so they describe the same inputs run repeatedly.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``wall_cal`` is a pass's time in units of a fixed calibration loop
(``child.calibration_samples``), timed before, between and after the
operations: this host's CPU throughput shifts by tens of percent over
minutes, moving raw seconds between runs far more than any change worth
detecting, and the ratio cancels most of that shift. The unit is the mean
loop time of the pass, since an operation's time integrates the host's
speed over its duration. The raw
``wall_s`` and each command's time (``simulate_s``, ``sample_steady_s``,
``hitting_batch_s``, ``figure_data_s``, ``verify_s``, ``analyze_s``) are
reported beside it, as medians over passes.
``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics: traced passes wrap every public function of the
package's modules (``tracing.py``) and reduce the spans to counts, which
must repeat exactly, and timings, which are medians over traced passes.
``trace.overhead_s`` is the traced minus the untraced median raw ``wall_s``.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the environment record. A human-readable table, with each command's
median time, goes to standard error, and the full record of the run,
every pass included, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SOURCE_DIR = ROOT / "src" / "immunochain"

MIN_PASSES = 3
MIN_SETUP_SAMPLES = 7
# No pass starts once the run could no longer end within the 180 s a run may take.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 140.0

# Matrix chain at the README point; 1.5*M*log(M)/q_tilde is the
# acceptance-criterion-7 horizon (1766.1 at lambda_m = 0, 836.6 at 1).
MATRIX = {"M": 200, "N": 100, "p": 0.1}
LAMBDAS = (0.0, 1.0)
# Single column of the README quick start: M = 64, p = 1/65 (a = 1).
COLUMN = {"M": 64, "p": 1.0 / 65.0}
FIGURE = {"M": 200, "N": 100, "pd": 0.1, "pm": 0.005, "horizon": 2500.0}

# Replicates per operation, sized so one pass takes a few seconds on a
# 2-core x86-64 machine and the run-to-run spread of wall_s stays small.
END_REPS = {0.0: 60, 1.0: 16}
STEADY_REPS = {0.0: 20, 1.0: 24}
HITTING_REPS = {16: 2000, 32: 2000, 64: 2000}
CLI_HITTING_REPS = 1000
FIGURE_REPS = 8


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_horizon(lam: float) -> float:
    M, p = MATRIX["M"], MATRIX["p"]
    return 1.5 * M * math.log(M) / ((1.0 - p) + lam)


def workload_ops(name: str, seed: int) -> list[dict]:
    """The operations of one workload pass; a pure function of ``(name, seed)``."""
    rnd = random.Random(f"{name}:{seed}")

    def draw_seed() -> int:
        return rnd.getrandbits(32)

    M, N, p = MATRIX["M"], MATRIX["N"], MATRIX["p"]
    matrix_argv = ["--model", "matrix", "--M", str(M), "--N", str(N), "--p", _fmt(p)]
    ops: list[dict] = []
    if name == "matrix-endstate":
        for lam in LAMBDAS:
            horizon = _matrix_horizon(lam)
            ops.append({
                "name": f"simulate-lam{lam:g}", "command": "simulate", "kind": "cli",
                "argv": ["simulate", *matrix_argv, "--lambda-m", _fmt(lam),
                         "--replicates", str(END_REPS[lam]), "--horizon", _fmt(horizon),
                         "--format", "json", "--seed", str(draw_seed())],
                "check": {"kind": "matrix_end_counts", "M": M, "N": N, "p": p,
                          "lambda_m": lam, "horizon": horizon, "reps": END_REPS[lam]},
            })
        for lam in LAMBDAS:
            ops.append({
                "name": f"sample-steady-lam{lam:g}", "command": "sample_steady", "kind": "cli",
                "argv": ["sample-steady", *matrix_argv, "--lambda-m", _fmt(lam),
                         "--replicates", str(STEADY_REPS[lam]), "--seed", str(draw_seed())],
                "check": {"kind": "steady_samples", "M": M, "N": N, "p": p,
                          "lambda_m": lam, "reps": STEADY_REPS[lam]},
            })
    elif name == "column-hitting":
        for m, reps in HITTING_REPS.items():
            ops.append({
                "name": f"hitting-batch-M{m}", "command": "hitting_batch", "kind": "hitting_batch",
                "M": m, "a": 1.0, "reps": reps, "seed": draw_seed(),
                "check": {"kind": "hitting_batch", "M": m, "a": 1.0, "reps": reps},
            })
        ops.append({
            "name": f"simulate-column-M{COLUMN['M']}", "command": "simulate", "kind": "cli",
            "argv": ["simulate", "--model", "single-column", "--M", str(COLUMN["M"]),
                     "--p", _fmt(COLUMN["p"]), "--replicates", str(CLI_HITTING_REPS),
                     "--format", "json", "--seed", str(draw_seed())],
            "check": {"kind": "column_hitting", "M": COLUMN["M"], "p": COLUMN["p"],
                      "reps": CLI_HITTING_REPS},
        })
    elif name == "paper-figures":
        f = FIGURE
        ops.append({
            "name": "figure-data", "command": "figure_data", "kind": "cli",
            "argv": ["figure-data", "--model", "matrix", "--M", str(f["M"]), "--N", str(f["N"]),
                     "--pd", _fmt(f["pd"]), "--pm", _fmt(f["pm"]), "--horizon", _fmt(f["horizon"]),
                     "--replicates", str(FIGURE_REPS), "--seed", str(draw_seed())],
            "check": {"kind": "figure_data", **f, "reps": FIGURE_REPS},
        })
        ops.append({
            "name": "verify", "command": "verify", "kind": "cli",
            "argv": ["verify", "--seed", str(draw_seed())],
            "check": {"kind": "verify"},
        })
        ops.append({
            "name": "analyze-matrix", "command": "analyze", "kind": "cli",
            "argv": ["analyze", *matrix_argv, "--lambda-m", _fmt(0.0)],
            "check": {"kind": "analyze_matrix", "M": M, "N": N, "p": p, "lambda_m": 0.0},
        })
        ops.append({
            "name": "analyze-column", "command": "analyze", "kind": "cli",
            "argv": ["analyze", "--model", "single-column", "--M", str(COLUMN["M"]),
                     "--p", _fmt(COLUMN["p"])],
            "check": {"kind": "analyze_column", "M": COLUMN["M"], "p": COLUMN["p"]},
        })
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no result may be printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Dense solves in the oracle must not start more BLAS/OpenMP threads than cores.
    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_child(job: dict, cwd: Path, env: dict[str, str]) -> dict:
    """Run ``child.py`` on ``job`` in ``cwd``; wait for it and return its result."""
    cwd.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=cwd, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a pass ran longer than {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"child process exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        h.update(path.relative_to(SOURCE_DIR).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the passes of one workload and return the raw record."""
    ops = workload_ops(workload, seed)
    env = _child_env()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR))
    spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.jsonl"
    passes = []
    setup = []
    try:
        # Warm-up: byte-compiles the package and fills the page cache, so
        # every measured process starts alike.
        versions = run_child({"ops": [], "trace": False}, work / "warmup", env)["versions"]
        start = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 0
            pass_dir = work / f"pass{len(passes)}"
            t0 = time.monotonic()
            res = run_child({"ops": ops, "trace": traced, "spans_path": str(spans_path)}, pass_dir, env)
            last = time.monotonic() - t0
            shutil.rmtree(pass_dir)
            res["traced"] = traced
            passes.append(res)
            setup.append(res["setup_s"])
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and (elapsed >= seconds or elapsed + last > RUN_LIMIT_S):
                break
        if not trace:
            while len(setup) < MIN_SETUP_SAMPLES:
                setup.append(run_child({"ops": [], "trace": False}, work / "setup", env)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"ops": ops, "passes": passes, "setup_samples": setup, "versions": versions}


def _wall(res: dict) -> float:
    return sum(op["seconds"] or 0.0 for op in res["ops"])


def summarize(record: dict, trace: bool, units: dict[str, str]) -> dict:
    """Reduce a run's passes to the result line and per-command medians."""
    passes = record["passes"]
    attempted = sum(len(res["ops"]) for res in passes)
    errors = [f"{op['name']}: {op['error']}" for res in passes for op in res["ops"] if op["error"]]
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(record["setup_samples"])
        metrics["wall_cal"] = statistics.median(
            _wall(res) / statistics.fmean(res["calibration_s"]) for res in passes)
        metrics["peak_rss_mb"] = statistics.median(res["peak_rss_mb"] for res in passes)
        measured = passes
    else:
        measured = [res for res in passes if res["traced"]]
        counts = measured[0]["layer_counts"]
        attempted += 1
        if any(res["layer_counts"] != counts for res in measured[1:]):
            errors.append("per-layer counts differ between traced passes of the same inputs")
        metrics.update(counts)
        for key in measured[0]["layer_times"]:
            metrics[key] = statistics.median(res["layer_times"][key] for res in measured)
        untraced = [_wall(res) for res in passes if not res["traced"]]
        metrics["trace.overhead_s"] = (statistics.median(_wall(res) for res in measured)
                                       - statistics.median(untraced))
    commands = {"wall_s": statistics.median(_wall(res) for res in measured)}
    for cmd in dict.fromkeys(op["command"] for op in record["ops"]):
        commands[f"{cmd}_s"] = statistics.median(
            sum(op["seconds"] or 0.0 for op in res["ops"] if op["command"] == cmd) for res in measured)
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                             f"undeclared {sorted(extra)}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"result": result, "errors": errors, "commands": commands, "n_passes": len(measured)}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    record = measure(workload, seed, seconds, trace)
    summary = summarize(record, trace, units)
    env = {
        **record["versions"], "nproc": _nproc(), "blas_threads": _nproc(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(record["passes"]), "setup_samples": len(record["setup_samples"]),
    }
    out = {"env": env, **summary, "setup_samples": record["setup_samples"],
           "passes": [{k: v for k, v in res.items() if k != "versions"} for res in record["passes"]]}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(out, indent=1) + "\n")

    print(f"{workload} seed={seed} trace={int(trace)}: {summary['n_passes']} measured passes",
          file=sys.stderr)
    for name, entry in summary["result"]["metrics"].items():
        print(f"  {name:48s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    for name, value in summary["commands"].items():
        print(f"  {name:48s} {value:14.6g} s (median of {summary['n_passes']} passes)",
              file=sys.stderr)
    for err in summary["errors"]:
        print(f"  FAILED {err}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SOURCE_DIR / "__init__.py").is_file():
        print(f"error: {ROOT} holds no BENCHMARK.json or no immunochain source under src/",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            out = run_workload(workload, args.seed, seconds, bool(args.trace), spec)
            print(json.dumps({"env": out["env"]}))
            print(json.dumps(out["result"]))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
