"""One benchmark pass in a fresh process.

Reads a job from standard input (JSON), imports ``immunochain`` and times
that import as the set-up time, runs the job's operations one after
another, checks each one's output, and prints one JSON line with the
timings. It is started by ``run.py``, never by hand, with ``src`` on
``PYTHONPATH`` and its working directory set to an empty per-pass
directory where the CLI writes its outputs.

Job keys: ``ops`` (list, may be empty for a set-up-only process),
``trace`` (bool), ``spans_path`` (where a traced pass writes its spans).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def calibration_samples(repeats: int = 7) -> list[float]:
    """Times of a fixed loop of interpreter arithmetic, NumPy scalar reads
    and small NumPy operations, the instruction mix of the chains' event
    loops.

    The host's CPU throughput shifts by tens of percent over minutes; a
    pass's time divided by the mean of these samples, taken between its
    operations, cancels most of that shift.
    """
    import math

    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        buf = np.linspace(0.0, 0.99, 256)
        table = [0.5] * 64
        acc, k = 0.0, 0
        for i in range(40_000):
            acc += -math.log1p(-buf[i & 255]) * table[k]
            k = (k + 1) & 63
            if i & 255 == 0:
                buf = buf * 0.5 + 0.25
        times.append(time.perf_counter() - start)
    return times


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _run_op(op: dict, out: Path):
    """Run one operation; return ``(result, exit_code, captured_stdout, seconds)``."""
    from immunochain import cli, simulate
    from immunochain.models import SingleColumnParams

    if op["kind"] == "cli":
        argv = op["argv"] + ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
        return None, rc, buf.getvalue(), seconds
    if op["kind"] == "hitting_batch":
        params = SingleColumnParams.with_a(op["M"], op["a"])
        start = time.perf_counter()
        taus = simulate.hitting_time_batch(params, n_replicates=op["reps"], master_seed=op["seed"])
        seconds = time.perf_counter() - start
        return taus, 0, "", seconds
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _check(op: dict, result, rc: int, stdout: str, out: Path) -> str | None:
    import checks

    params = dict(op["check"])
    kind = params.pop("kind")
    if kind == "verify":
        return checks.check_verify(rc, stdout)
    if op["kind"] == "cli" and rc != 0:
        return f"exit code {rc}"
    if kind == "hitting_batch":
        return checks.check_hitting_batch(result, **params)
    return getattr(checks, f"check_{kind}")(out, **params)


def main() -> int:
    job = json.loads(sys.stdin.read())
    start = time.perf_counter()
    import immunochain  # noqa: F401  (the set-up being timed)
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "immunochain": immunochain.__version__},
        "ops": [],
    }
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    outcomes = []
    calibration = calibration_samples() if job["ops"] else []
    for i, op in enumerate(job["ops"]):
        out = Path(f"op{i}")
        record = {"name": op["name"], "command": op["command"], "seconds": None, "error": None}
        outcome = None
        if tracer is not None:
            tracer.active = True
        try:
            res, rc, stdout, record["seconds"] = _run_op(op, out)
            outcome = (res, rc, stdout)
        except Exception:  # an operation that raises is a failed operation
            record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            if tracer is not None:
                tracer.active = False
        record["bytes"] = _dir_bytes(out) if out.is_dir() else 0
        calibration += calibration_samples()
        result["ops"].append(record)
        outcomes.append(outcome)
    result["calibration_s"] = calibration
    # Read before the checks, whose quadrature arrays would raise the high-water mark.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, (op, record, outcome) in enumerate(zip(job["ops"], result["ops"], outcomes)):
        if outcome is None:
            continue
        try:
            record["error"] = _check(op, *outcome, Path(f"op{i}"))
        except Exception:  # a check that raises counts the operation as failed
            record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]

    if tracer is not None:
        from tracing import layer_metrics

        counts, times = layer_metrics(tracer.spans)
        counts["cli.bytes_written"] = sum(r["bytes"] for r in result["ops"])
        result["layer_counts"], result["layer_times"] = counts, times
        with open(job["spans_path"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
