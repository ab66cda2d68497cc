"""Spans around immunochain's public functions, recorded from outside the package.

``install`` replaces each public function of the layers in ``LAYERS`` with
a recording wrapper. The wrapper goes in every ``immunochain`` module
namespace that binds the function, because callers look names up there:
``cli`` imports ``simulate_matrix``, ``simulate_single_column``,
``replicate_rng`` and ``estimate_mean`` by name, ``simulate`` and
``reversal`` import ``replicate_rng`` by name, ``hitting_time_batch``
reaches ``simulate_single_column`` through ``simulate``'s globals, and the
package re-exports most functions. Spans stay in memory; ``layer_metrics``
reduces them at the end of a pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

LAYERS = ("cli", "simulate", "reversal", "analytics", "oracle", "stats", "models", "rng")

# Public classmethods of MatrixState, recorded in the models layer.
_MATRIX_STATE_METHODS = ("zeros", "from_entries", "from_index")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Attributes a span keeps, taken from a call's arguments and result.
_ANNOTATE = {
    "simulate.simulate_matrix": lambda a, k, out: {
        "lam": _arg(a, k, 0, "params").lambda_m,
        "series": _arg(a, k, 1, "config").record_series,
        "events": out.n_events,
    },
    "simulate.simulate_single_column": lambda a, k, out: {"events": out.n_events},
    "simulate.hitting_time_batch": lambda a, k, out: {
        "M": _arg(a, k, 0, "params").M, "reps": len(out),
    },
    "reversal.sample_invariant": lambda a, k, out: {"lam": _arg(a, k, 0, "params").lambda_m},
    "reversal.sample_invariant_histogram": lambda a, k, out: {"draws": _arg(a, k, 1, "n_draws")},
    "reversal.sample_invariant_coupled": lambda a, k, out: {"draws": len(out)},
}


class Tracer:
    """Span recorder; a span is ``[name, parent_index, start, end, attrs]``.

    Wrappers record only while ``active`` is true, so the benchmark's own
    correctness checks, which call the same functions, leave no spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, annotate=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of ``LAYERS`` wherever it is bound."""
        for layer in LAYERS:
            importlib.import_module(f"immunochain.{layer}")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "immunochain" or n.startswith("immunochain.")]
        for layer in LAYERS:
            module = sys.modules[f"immunochain.{layer}"]
            for fname, fn in _public_functions(module):
                span_name = f"{layer}.{fname}"
                wrapper = self.wrap(span_name, fn, _ANNOTATE.get(span_name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, wrapper)
        state_cls = sys.modules["immunochain.models"].MatrixState
        for meth in _MATRIX_STATE_METHODS:
            fn = state_cls.__dict__[meth].__func__
            self._set(state_cls, meth, classmethod(self.wrap(f"models.{meth}", fn)))

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The traced program is single-threaded, so children of one span never
    overlap and their durations add.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    # A layer that did not run on a workload reads 0.
    return num / den if den > 0 else 0.0


def layer_metrics(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one pass as ``(counts, timings)``.

    Counts are exact for a fixed seed; timings are in seconds, or in the
    unit their name gives. Rates divide work by the inclusive duration of
    the spans that did it.
    """
    selfs = self_times(spans)
    counts: dict[str, float] = {}
    times: dict[str, float] = {}

    def select(name, pred=lambda attrs: True):
        return [(s, selfs[i]) for i, s in enumerate(spans) if s[0] == name and pred(s[4])]

    def duration(sel):
        return sum(s[3] - s[2] for s, _ in sel)

    def attr_sum(sel, key):
        return sum(s[4][key] for s, _ in sel)

    matrix = select("simulate.simulate_matrix")
    counts["simulate.matrix.events"] = attr_sum(matrix, "events")
    times["simulate.matrix.self_s"] = sum(x for _, x in matrix)
    for tag, pred in (("lam0", lambda a: not a["series"] and a["lam"] == 0),
                      ("lam1", lambda a: not a["series"] and a["lam"] > 0),
                      ("series", lambda a: a["series"])):
        sel = select("simulate.simulate_matrix", pred)
        times[f"simulate.matrix.{tag}.events_per_s"] = _ratio(attr_sum(sel, "events"), duration(sel))

    column = select("simulate.simulate_single_column")
    counts["simulate.column.events"] = attr_sum(column, "events")
    times["simulate.column.events_per_s"] = _ratio(counts["simulate.column.events"], duration(column))
    for M in (16, 32, 64):
        sel = select("simulate.hitting_time_batch", lambda a, M=M: a["M"] == M)
        times[f"simulate.hitting_batch.M{M}.reps_per_s"] = _ratio(attr_sum(sel, "reps"), duration(sel))

    for name in ("rng.replicate_rng", "models.from_index"):
        sel = select(name)
        counts[f"{name}.calls"] = len(sel)
        times[f"{name}.self_s"] = sum(x for _, x in sel)

    for tag, pred in (("lam0", lambda a: a["lam"] == 0), ("lam1", lambda a: a["lam"] > 0)):
        sel = select("reversal.sample_invariant", pred)
        times[f"reversal.sample_invariant.{tag}.us_per_draw"] = 1e6 * _ratio(duration(sel), len(sel))
    hist = select("reversal.sample_invariant_histogram")
    times["reversal.histogram.us_per_draw"] = 1e6 * _ratio(duration(hist), attr_sum(hist, "draws"))
    # Draws are counted at the outermost reversal span only, so a sampler
    # that calls another public sampler is not counted twice.
    draws = 0
    for s in spans:
        if s[0].startswith("reversal.") and not (s[1] >= 0 and spans[s[1]][0].startswith("reversal.")):
            draws += s[4]["draws"] if s[4] and "draws" in s[4] else 1
    counts["reversal.draws"] = draws

    for fname in ("stationary_solve", "single_column_hitting_moments_exact", "coupon_enumerate"):
        times[f"oracle.{fname}.self_s"] = sum(x for _, x in select(f"oracle.{fname}"))

    for layer in ("analytics", "stats"):
        sel = [x for s, x in zip(spans, selfs) if s[0].startswith(layer + ".")]
        counts[f"{layer}.calls"] = len(sel)
        times[f"{layer}.self_s"] = sum(sel)
    times["cli.self_s"] = sum(x for s, x in zip(spans, selfs) if s[0].startswith("cli."))
    return counts, times
