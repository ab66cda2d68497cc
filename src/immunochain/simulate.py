"""Exact simulation of both chains.

The horizon decides what a run is. A run without one stops at its
chain's first hit: level M for the single column, a first all-ones column
for the matrix. A run with one goes on to the horizon, through any hit,
and reports the first hit on the way (or none).

Every single-column run is drawn from regenerative climbs: the walk goes
up some levels, resets to 0 (from the climb's top level, or from M), and
climbs again. A climb from level ``lo`` gets to level k with probability
``reach[k] / reach[lo]``, so one uniform fixes its top level, and a
level's holding time is exponential with its total rate whichever jump
ends it. A hit run without a series counts its climbs: a geometric
number fail before one succeeds, and each level's time is one gamma
variate over its visits. Every other
run lays its climbs out in windows (top levels, visited levels, one
exponential per level, jump times by running sum), cut at the horizon or
at the first jump to M; each window ends with a reset to 0.

Every matrix run is drawn from per-column reset epochs. Poisson clocks
are independent on disjoint intervals, so a column's state depends only
on the row and entry clocks since its own last reset. Within a window of
time the row rings and the column resets are drawn first (Poisson counts,
uniform labels and times); between two resets of column j, entry (i, j)
is set at row i's first ring or the entry's own first ring, whichever is
earlier, and the column is full from the last of these M times until its
next reset. Without entry clocks (lambda_m = 0) that is the first ring
after which every row has rung since the epoch began, and one pass over
the window's rings gives it for every epoch: each ring's next ring of the
same row, a prefix maximum of those, and a search for each epoch's start.
Windows chain from the state at the end of the last one, which bounds the
arrays a window needs: at lambda_m = 0 entry (i, j) is one iff row i rang
after column j's last reset, so the state is each row's last ring and each
column's last reset. With entry clocks it is N x M, and every epoch has M
cells, one per entry, streamed through blocks of at most ``_WINDOW_CELLS``
cells; an entry set when the window begins is set from its start. Entry
clocks are Poisson, so their rings after the window's start do not depend
on what came before, and every cell draws its entry's first ring, a set
entry's too. The event count adds the entry rings: the first one of each
cell is drawn, and the rest are Poisson in the time left. A window that
runs to its end sums those terms block by block; one that may stop at a
hit keeps its first rings until the hit time is known. So at every
lambda_m a horizon window is bounded by its rings and resets alone, while
a hit window holds the ``N*M`` cells of the epochs it carries in and spans
as many reset cells.

Both constructions have exactly Gillespie's law; the climbs are the
column's own jump chain, drawn in another order. Counted climbs cost a few
draws per level whatever the event count, laid-out climbs one array cell
per event, and epochs about ``q + p*M`` cells per unit time plus ``N*M``
per window, or ``q + p`` at lambda_m = 0. Both chains'
event loops live apart, in :mod:`immunochain.reference`, as the references
the tests compare these constructions against.

A run or batch whose work :func:`check_budget` refuses raises
``ValueError`` before it starts; the functions below say what each is
charged. Counted climbs are charged their table levels only.

Randomness is fully reproducible: replicate ``r`` of a batch draws from
the stream keyed by ``(master_seed, r)``, so batch output is independent
of execution order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analytics
from .models import MatrixParams, MatrixState, SingleColumnParams, _as_float
from .rng import replicate_rng

__all__ = [
    "SimulationConfig",
    "Trajectory",
    "simulate_single_column",
    "simulate_matrix",
    "hitting_time_batch",
]

# A window holds about _WINDOW_CELLS array cells. A matrix horizon window's
# row rings and resets bound it at every lambda_m, so it spans
# _WINDOW_CELLS / (q + p) time units; its entry cells (M per epoch) stream
# through blocks of at most _WINDOW_CELLS cells, however large N*M is and
# however many resets it holds. A matrix hit window keeps its entry-clock
# first rings until the hit, M per epoch, so at lambda_m > 0 it holds the
# N*M cells of its carried epochs whatever its span, and it spans
# max(_WINDOW_CELLS, N*M) / (q + p*M): its reset cells never outnumber
# those. A single-column window holds its climb levels. A run may end long
# before a window does, so a matrix hit run's first window holds
# max(_FIRST_WINDOW_CELLS, N*M) cells (_FIRST_WINDOW_CELLS at
# lambda_m = 0), a single-column run's first window _FIRST_WINDOW_CELLS,
# and each next one twice as many, up to the full width.
_WINDOW_CELLS = 1 << 14
_FIRST_WINDOW_CELLS = 1 << 10

# A window's arrays, each up to _WINDOW_CELLS doubles, are all freed when
# it ends. glibc hands the top of its heap back to the system whenever more
# than its trim threshold (128 KB at start-up) lies free there, so every
# window would fault the same pages in again: 40 lambda_m = 1 hit runs at
# M=400, N=200, p=0.1 took about 14,000 minor page faults instead of 13,
# and each ran 1.1-1.5 times as long, on a 2-vCPU VM. Freeing one block
# larger than the mmap threshold makes glibc raise that threshold to the
# block's size and the trim threshold to twice it, for the rest of the
# process (the "dynamic mmap threshold" of mallopt(3)); the block is never
# written, so it costs no page faults. Other allocators are unaffected.
np.empty(16 * _WINDOW_CELLS)

# A hit run whose target is reached from a reset with smaller
# probability than this is refused: a single-column climb from 0 to M, or
# a matrix column filling between two of its resets. It needs more climbs
# or epochs than a geometric draw (or an event loop) can count, so it
# would be wrong or never finish.
MIN_REACH_PROBABILITY = 1e-15

# A run expected to cost more events or epoch cells than this is refused:
# its windows would run for hours instead of failing.
MAX_EXPECTED_EVENTS = 10**8


def check_budget(amount: float, what: str, remedy: str) -> None:
    """Refuse work of ``amount`` units beyond ``MAX_EXPECTED_EVENTS`` with ``ValueError``.

    ``what`` names the units charged and ``remedy`` what to change. Every
    charge against the cap goes through here, before any of the work is
    allocated: events or cells expected to a horizon or a hitting time, a
    matrix's state cells, a batch's replicates, and the clocks and entry
    cells of stationary draws.
    """
    if amount > MAX_EXPECTED_EVENTS:
        # An integer is shown exactly: one read from the command line or a
        # config file can be too large to convert to a float.
        shown = f"{amount:,}" if isinstance(amount, int) else f"{amount:,.0f}"
        raise ValueError(f"{shown} {what} exceed the cap of {MAX_EXPECTED_EVENTS:,}; {remedy}")


@dataclass(frozen=True)
class SimulationConfig:
    """Which stream to draw from, when to stop, and what to record.

    Without a ``horizon`` a run stops at its chain's first hit; with one
    it runs to the horizon and reports the first hit on the way, or
    ``tau=None``. A horizon must be positive and finite. Series recording
    stores the observable after every change.
    """

    master_seed: int
    replicate_index: int = 0
    horizon: float | None = None
    record_series: bool = False

    def __post_init__(self):
        if self.horizon is not None and not 0 < _as_float(self.horizon, "horizon") < math.inf:
            raise ValueError(f"horizon must be positive and finite when given, got {self.horizon!r}")


@dataclass
class Trajectory:
    """Observables of one simulation run.

    ``tau`` is the first time the chain's target was reached (level M,
    or a first all-ones column), where a run without a horizon ends; in a
    run with one, ``None`` if it never happened by the horizon. The
    series, when recorded, is piecewise constant: ``series_values[i]``
    holds on ``[series_times[i], series_times[i+1])``.
    """

    tau: float | None
    end_time: float
    end_value: int
    n_events: int
    series_times: np.ndarray | None = None
    series_values: np.ndarray | None = None

    def value_at(self, t: float) -> int:
        if self.series_times is None:
            raise ValueError("trajectory was run without series recording")
        idx = int(np.searchsorted(self.series_times, t, side="right")) - 1
        if idx < 0:
            raise ValueError(f"time {t} precedes the recorded series")
        return int(self.series_values[idx])


@dataclass(frozen=True)
class _ColumnTables:
    """Per-level constants of the single-column chain, shared by both paths.

    ``inv_total[k]`` is the mean holding time at level k (``1/p`` at M).
    ``reach[k]`` is the probability that a climb from 0 gets to level k,
    ``neg_reach`` its negation (ascending, for bisection), ``neg_log_reach``
    minus its logarithm, summed level by level so that it stays finite
    where ``reach`` underflows to 0, and ``fail_law[k-1]`` the law of a
    failed climb's top level k in 1..M-1.
    """

    inv_total: np.ndarray
    reach: tuple[float, ...]
    neg_reach: tuple[float, ...]
    neg_log_reach: np.ndarray
    fail_law: np.ndarray


@lru_cache(maxsize=64)
def _column_tables(params: SingleColumnParams) -> _ColumnTables:
    M = params.M
    up_rate = [params.alpha * params.q * (1.0 - k / M) for k in range(M + 1)]
    inv_total = [1.0 / (up_rate[k] + (params.p if k > 0 else 0.0)) for k in range(M + 1)]
    up_frac = [up_rate[k] * inv_total[k] for k in range(1, M)]
    reach = [1.0, 1.0]
    for frac in up_frac:
        reach.append(reach[-1] * frac)
    fail = np.array([reach[k] * params.p * inv_total[k] for k in range(1, M)])
    # Where every failure underflows to 0, reach[M] is 1 and no climb fails.
    if fail.sum() > 0:
        fail /= fail.sum()
    inv_total_array, neg_log_reach = np.array(inv_total), np.cumsum(-np.log([1.0, 1.0, *up_frac]))
    for array in (inv_total_array, neg_log_reach, fail):
        array.flags.writeable = False
    return _ColumnTables(inv_total_array, tuple(reach), tuple(-r for r in reach), neg_log_reach, fail)


# O(M) work per call; a laid-out hit run's cap reads it on every run.
_mean_hitting_time = lru_cache(maxsize=64)(analytics.hitting_time_mean_exact)


def simulate_single_column(
    params: SingleColumnParams, config: SimulationConfig, start: int = 0
) -> Trajectory:
    """Exact trajectory of the single-column chain.

    Without a horizon the run stops at the first hit of k = M; with one it
    runs to the horizon, the chain continuing through M (resets keep
    occurring).

    A run with no horizon, no series and ``start < M`` counts its climbs
    (see the module docstring): only ``tau``, ``end_time``, ``end_value``
    and ``n_events`` come out; every other run lays them out. A run
    without a horizon raises ``ValueError`` when a climb from 0 reaches M
    with probability below ``MIN_REACH_PROBABILITY`` (no run could count
    that many climbs). :func:`check_budget` charges every run its ``M + 1``
    table levels, and a laid-out run its expected events, ``alpha*q + p``
    per unit time up to its horizon or its exact mean hitting time.
    """
    M = params.M
    if not 0 <= start <= M:
        raise ValueError(f"start must lie in [0, {M}], got {start!r}")

    # The tables hold M + 1 levels, so they are charged before they are built.
    check_budget(M + 1, "table levels", "shrink M")
    horizon = config.horizon
    rng = replicate_rng(config.master_seed, config.replicate_index)
    tables = _column_tables(params)
    if horizon is None and start < M:
        if tables.reach[M] < MIN_REACH_PROBABILITY:
            raise ValueError(
                f"{params}: a climb from 0 reaches M with probability {tables.reach[M]:.3g} "
                f"(< {MIN_REACH_PROBABILITY:g}); the exact mean hitting time "
                f"{analytics.hitting_time_mean_exact(params, start):.4g} is beyond simulation"
            )
        if not config.record_series:
            return _regenerative_hit(tables, M, start, rng)

    span = _mean_hitting_time(params, start) if horizon is None else horizon
    remedy = "drop the series or give a horizon" if horizon is None else "shorten the run"
    check_budget(span * params.uniformization_rate, "expected events", remedy)
    return _climbs(params, tables, start, config, rng)


def _regenerative_hit(
    tables: _ColumnTables, M: int, start: int, rng: np.random.Generator
) -> Trajectory:
    """First hit of M from ``start`` < M, drawn climb by climb.

    The first climb, from ``start``, reaches level k with probability
    ``reach[k] / reach[start]``, so one uniform fixes its top level. If
    it fails, the walk restarts at 0, where ``geometric(reach[M]) - 1``
    further climbs fail before one succeeds; a multinomial gives the
    failed climbs' top levels, and a level is visited once by every climb
    that gets to it. The time at a level is the sum of its visits'
    exponential holding times, one gamma variate per level.
    """
    reach = tables.reach
    x = rng.random() * reach[start]
    if x < reach[M]:
        # The first climb succeeds and visits each level once; a vector of
        # exponentials costs far less per call than one of gamma variates.
        tau = float(rng.standard_exponential(M - start) @ tables.inv_total[start:M])
        return Trajectory(tau=tau, end_time=tau, end_value=M, n_events=M - start)
    top = bisect_left(tables.neg_reach, -x) - 1
    failed = int(rng.geometric(reach[M])) - 1
    visits = np.ones(M, dtype=np.int64)
    if failed:
        tops = rng.multinomial(failed, tables.fail_law)
        visits[0] += failed
        visits[1:] += tops[::-1].cumsum()[::-1]
    visits[start : top + 1] += 1
    tau = float(rng.standard_gamma(visits) @ tables.inv_total[:M])
    return Trajectory(tau=tau, end_time=tau, end_value=M, n_events=int(visits.sum()))


def _climbs(params, tables: _ColumnTables, start: int, config: SimulationConfig, rng) -> Trajectory:
    """A single-column run from ``start``, its climbs laid out window by window.

    A window draws a batch of climbs from 0, their top levels from one
    uniform u each (the climb from ``lo`` gets to k if ``u < reach[k] /
    reach[lo]``, as in :func:`_regenerative_hit`, compared in log space:
    ``-log u`` is exponential), then the levels they visit, each with an
    exponential holding time; the jump that ends a level goes up, or to 0
    from the climb's top. The run's first climb is one from 0 that gets
    to ``start`` (``lo``), with the levels below ``start`` dropped. The
    first window holds at most four times the ``horizon * (alpha*q + p)``
    events expected.
    """
    M, horizon, record = params.M, config.horizon, config.record_series
    tau = 0.0 if start == M else None
    times, values = [np.zeros(1)], [np.full(1, start, dtype=np.int64)]
    t, end_value, n_events, lo = 0.0, start, 0, start
    climb_levels = sum(tables.reach)  # mean levels a climb from 0 visits
    cells = _FIRST_WINDOW_CELLS
    if horizon is not None:
        cells = min(cells, 4 * horizon * params.uniformization_rate)
    while horizon is not None or tau is None:
        y = rng.standard_exponential(max(1, int(cells / climb_levels)))
        cells = min(2 * cells, _WINDOW_CELLS)
        y[0] += tables.neg_log_reach[lo]
        lengths = np.searchsorted(tables.neg_log_reach, y)  # top + 1
        ends = np.cumsum(lengths)
        levels = (np.arange(ends[-1]) - np.repeat(ends - lengths, lengths))[lo:]
        ends -= lo
        jumps = t + np.cumsum(rng.standard_exponential(levels.size) * tables.inv_total[levels])
        after = levels + 1
        after[ends - 1] = 0
        keep = levels.size if horizon is None else int(np.searchsorted(jumps, horizon, "right"))
        if tau is None and (hits := np.flatnonzero(after[:keep] == M)).size:
            tau = float(jumps[hits[0]])
            if horizon is None:
                keep = int(hits[0]) + 1
        n_events += keep
        if record:
            times.append(jumps[:keep])
            values.append(after[:keep])
        if horizon is None and tau is not None:
            t, end_value = tau, M
        elif keep < levels.size:
            t, end_value = horizon, int(levels[keep])
            break
        else:
            t, end_value, lo = float(jumps[-1]), 0, 0
    return Trajectory(
        tau=tau, end_time=t, end_value=end_value, n_events=n_events,
        series_times=np.concatenate(times) if record else None,
        series_values=np.concatenate(values) if record else None,
    )


def simulate_matrix(
    params: MatrixParams, config: SimulationConfig, start: MatrixState | None = None
) -> Trajectory:
    """Exact trajectory of the matrix chain.

    Tracks the all-ones column count; ``tau`` is the first time it
    becomes positive. Without a horizon the run stops there; with one it
    runs to the horizon. The recorded series holds the count at each
    change.

    Every run is drawn window by window from per-column reset epochs (see
    the module docstring): ``tau``, ``end_time``, ``end_value``, the series
    and ``n_events`` have the joint law of the event-by-event chain, at a
    cost that grows with the row rings, the resets and, when entries have
    clocks of their own, the epoch-by-row cells, not with the events: M
    per epoch, so a hit window at lambda_m > 0 spans
    ``max(_WINDOW_CELLS, N*M)`` cells, as many as the state it carries. A
    run that needs the events themselves or the final matrix is a job for
    the Gillespie reference, :func:`immunochain.reference.matrix_gillespie`. A
    run without a horizon and no full column at its start raises
    ``ValueError`` when one reset epoch fills its column with probability
    below ``MIN_REACH_PROBABILITY``: no run could count that many epochs.
    :func:`check_budget` charges every run its state cells, ``N*M`` or, at
    lambda_m = 0 from the empty matrix, ``M + N``; a run with a horizon,
    the events or epoch cells up to it, whichever are more; and one from
    the empty matrix without a horizon, its epoch cells up to the lower
    bound ``(1/(2*P_fill) - N)/p`` on the median of ``tau``, where
    ``P_fill`` is that fill probability.
    """
    M, N = params.M, params.N
    if start is not None and (start.M != M or start.N != N):
        raise ValueError("start state shape does not match parameters")
    # Every window holds the N x M state at lambda_m > 0, where the first one
    # builds a cell per entry, and from a start; else M + N (see _ring_fill).
    check_budget(M * N if params.lambda_m > 0 or start is not None else M + N, "cells in the state alone", "shrink M or N")
    # Epoch cells per unit time: row rings and resets, and with entry
    # clocks an M-wide row of set times per epoch.
    cells_per_time = params.q + params.p * (M if params.lambda_m > 0 else 1)
    horizon = config.horizon
    if horizon is not None:
        check_budget(horizon * max(params.total_rate, cells_per_time), "expected events", "shorten the run")
    if start is None:
        held, initial = (np.zeros((N, M), dtype=bool) if params.lambda_m > 0 else None), 0
    else:
        held, initial = start.entries.T.astype(bool), start.all_ones_count  # held[j, i]: entry (i, j) is one
    stop_on_hit = horizon is None
    if stop_on_hit and initial == 0:
        reach = analytics.steady_allones_probability(params)
        if reach < MIN_REACH_PROBABILITY:
            raise ValueError(
                f"{params}: a column fills between two of its resets with probability "
                f"{reach:.3g} (< {MIN_REACH_PROBABILITY:g}); the first full column is "
                "beyond simulation"
            )
        if held is None or not held.any():
            # By time t at most N + Poisson(p*t) epochs have started, each
            # filling with probability reach, so P(tau <= t) <= (N + p*t)*reach
            # and the median of tau is at least (1/(2*reach) - N)/p.
            median_floor = (0.5 / reach - N) / params.p if reach > 0 else math.inf
            check_budget(median_floor * cells_per_time, "expected events", "give a horizon")
    rng = replicate_rng(config.master_seed, config.replicate_index)
    if stop_on_hit:
        # At lambda_m > 0 a hit window holds the N*M cells of its carried
        # epochs whatever its span, so it spans as many reset cells.
        carried = M * N if params.lambda_m > 0 else 0
        width = max(_WINDOW_CELLS, carried) / cells_per_time
        span = max(_FIRST_WINDOW_CELLS, carried) / cells_per_time
    else:
        width = span = _WINDOW_CELLS / (params.q + params.p)
    tau = 0.0 if initial else None
    t = 0.0
    n_events = 0
    spare_time = 0.0
    # At lambda_m = 0 see _ring_fill; uint16 keeps 16-bit ring labels radix-sorted there.
    state = held if params.lambda_m > 0 else (np.empty(0), np.empty(0, np.uint16), np.full(N, -np.inf), held)
    gains: list[np.ndarray] = []
    losses: list[np.ndarray] = []

    if not (stop_on_hit and tau is not None):
        while True:
            t1 = t + span if horizon is None else min(t + span, horizon)
            span = min(2 * span, width)
            gained, lost, events, spare, state = _epoch_window(
                params, rng, state, t, t1, stop_on_hit, carry=t1 != horizon
            )
            n_events += events
            spare_time += spare
            gains.append(gained)
            losses.append(lost)
            if tau is None and gained.size:
                tau = float(gained.min())
                if stop_on_hit:
                    t = tau
                    break
            t = t1
            if t == horizon:
                break
    if spare_time > 0:
        n_events += int(rng.poisson(params.lambda_m / M * spare_time))
    end_value = initial + sum(g.size for g in gains) - sum(l.size for l in losses)

    times = values = None
    if config.record_series:
        times, values = _count_series(initial, gains, losses)
    return Trajectory(
        tau=tau, end_time=t, end_value=end_value, n_events=n_events,
        series_times=times, series_values=values,
    )


def _epoch_window(
    params: MatrixParams,
    rng: np.random.Generator,
    state,
    t0: float,
    t1: float,
    stop_on_hit: bool,
    carry: bool,
) -> tuple[np.ndarray, np.ndarray, int, float, object]:
    """One window ``[t0, t1)`` of a matrix run, from the ``state`` at ``t0``.

    Column j's epochs run between ``t0``, its resets and ``t1``. In an
    epoch from s, entry (i, j) is set at the first ring of row i after s
    or at the entry's own first ring, s + Exp(lambda_m/M), whichever is
    earlier (at s if it is one at ``t0`` and s is ``t0``), and the column
    is full from the last of these times to the epoch's end.

    With entry clocks the window builds M cells per epoch and the state is
    N x M (see :func:`_entry_fill`); without them, no cells and O(M + N).

    Returns the times columns became full (columns full at ``t0`` are
    carried, not counted) and the times full columns were reset (carried
    ones included), which change the full count by their sizes; the events
    up to the window's end; the summed time that entry clocks ran on after
    their drawn first ring (their rings there are Poisson in it); and the
    state at ``t1`` (at lambda_m > 0 only under ``carry``). Under
    ``stop_on_hit`` the window ends at its first full column, if any.
    """
    M, N = params.M, params.N
    span = t1 - t0
    # Labels are floor(u * count), which is far cheaper per call than
    # Generator.integers. Row labels without entry clocks are only sorted,
    # and numpy radix-sorts 16-bit keys.
    ring_t = t0 + span * np.sort(rng.random(rng.poisson(params.q * span)))
    row_type = np.uint16 if params.lambda_m == 0 and M <= 1 << 16 else np.intp
    ring_row = (rng.random(ring_t.size) * M).astype(row_type)
    reset_t = t0 + span * np.sort(rng.random(rng.poisson(params.p * span)))
    reset_col = (rng.random(reset_t.size) * N).astype(np.intp)

    # Epoch j < N is column j's from t0; epoch N + r is the one from reset r.
    n_resets = reset_t.size
    starts = np.concatenate((np.full(N, t0), reset_t))
    cols = np.concatenate((np.arange(N), reset_col))
    order = np.argsort(cols, kind="stable")  # column by column, each in time order
    succ = cols[order[1:]] == cols[order[:-1]]
    ends = np.full(N + n_resets, t1)
    ends[order[:-1][succ]] = starts[order[1:][succ]]
    last = np.ones(N + n_resets, dtype=bool)
    last[order[:-1][succ]] = False

    if params.lambda_m > 0:
        fill, state, blocks = _entry_fill(
            params, rng, state, ring_t, ring_row, starts, cols, last, t0, t1, carry,
            None if stop_on_hit else ends,
        )
    else:
        fill, state = _ring_fill(M, state, ring_t, ring_row, starts, cols, last)
        blocks = ()  # no entry clocks run

    valid = fill < ends
    gained = fill[valid & (fill > t0)]
    end = float(gained.min()) if stop_on_hit and gained.size else t1
    gained = gained[gained <= end]
    lost = ends[valid & (ends < end)]
    n_events = int(np.searchsorted(ring_t, end, "right") + np.searchsorted(reset_t, end, "right"))
    spare = 0.0
    for lo, hi, *terms in blocks:
        if stop_on_hit:  # a hit window's blocks keep their first rings until its end is known
            terms = _ring_terms(np.minimum(ends[lo:hi], end), *terms)
        n_events += terms[0]
        spare += terms[1]
    return gained, lost, n_events, spare, state


def _entry_fill(params, rng, filled, ring_t, ring_row, starts, cols, last, t0, t1, carry, ends=None):
    """Fill times of a window's epochs when entries have clocks of their own.

    Every epoch has M set-time cells, one per entry: row i's first ring
    after the epoch's start, lowered to the entry's own first ring, or
    ``t0`` for an entry one at ``t0`` in a carried epoch; the epoch fills at
    the last of them. Every cell draws its entry clock's first ring, a set
    entry's too: a Poisson clock's rings after ``t0`` do not depend on its
    past. Epochs go in blocks of ``_WINDOW_CELLS // M`` (one at least) that
    never mix carried and reset epochs, and every per-cell array lives in
    one block, so a block holds at most ``_WINDOW_CELLS`` cells however
    large N*M is and however many resets the window has. Carried blocks
    read one shared row of first rings after ``t0``. A block of reset
    epochs builds only its own rows of next rings, from the window's rings
    after its first reset. So a window costs M cells per epoch, and one
    pass over its rings per block.

    ``ends``, when given, are the epochs' ends in a window that runs to its
    end ``t1`` (a horizon window): each block then sums its entry-ring
    terms (see :func:`_ring_terms`) as it is drawn and keeps no first ring.

    Returns the fill times; under ``carry``, the column states at ``t1``;
    and per block, its epochs ``lo:hi`` and either the entry clocks' first
    rings, an ``(hi - lo, M)`` array, or, given ``ends``, its terms.
    """
    M, N = params.M, params.N
    scale = M / params.lambda_m
    fill = np.empty(starts.size)
    filled_next = np.empty_like(filled) if carry else None
    blocks = []
    step = max(1, _WINDOW_CELLS // M)
    carried_rings = np.full(M, np.inf)  # each row's first ring in the window
    np.minimum.at(carried_rings, ring_row, ring_t)
    reset_t = starts[N:]
    after = np.searchsorted(ring_t, reset_t, "right")  # each reset's first ring
    for lo in [*range(0, N, step), *range(N, starts.size, step)]:
        hi = min(lo + step, N if lo < N else starts.size)
        first = starts[lo:hi, None] + rng.exponential(scale, size=(hi - lo, M))
        if lo < N:
            set_at = np.minimum(carried_rings, first)
            set_at[filled[lo:hi]] = t0
        else:
            a, b = lo - N, hi - N  # the block's resets
            # next_ring[k, i]: row i's first ring after reset a + k. Each ring
            # after reset a goes to the last of the block's resets before it,
            # and a backward running minimum carries later rings to earlier
            # resets.
            next_ring = np.full((b - a, M), np.inf)
            inside = slice(after[a], None)
            np.minimum.at(
                next_ring, (np.searchsorted(reset_t[a + 1 : b], ring_t[inside]), ring_row[inside]), ring_t[inside]
            )
            np.minimum.accumulate(next_ring[::-1], axis=0, out=next_ring[::-1])
            set_at = np.minimum(next_ring, first, out=next_ring)
        fill[lo:hi] = set_at.max(axis=1)
        blocks.append((lo, hi, first) if ends is None else (lo, hi, *_ring_terms(ends[lo:hi], first)))
        if carry:
            keep = last[lo:hi]
            filled_next[cols[lo:hi][keep]] = set_at[keep] < t1
    return fill, filled_next, blocks


def _ring_terms(ends, first):
    """Entry clocks' first rings ``first``, one row of M per epoch, before
    their epochs' ``ends``, and the summed time after those rings, in which
    their further rings are Poisson."""
    gap = ends[:, None] - first
    return int(np.count_nonzero(gap >= 0)), float(np.maximum(gap, 0.0, out=gap).sum())


def _ring_fill(M, state, ring_t, ring_row, starts, cols, last):
    """Fill times of a window's epochs when only row rings set entries (lambda_m = 0).

    The ``state`` is each row's last ring before the window, as time-sorted
    ``(time, row)`` pairs, which go in front of the window's rings; each
    column's last reset (-inf for none), where its carried epoch starts;
    and a start's entries ``held[j, i]`` or ``None``. The epoch from s
    fills at the first ring k after which every row has rung since s. Ring
    j's row rings again at ring ``nxt[j]``, so that holds once k reaches
    every ``nxt[j]`` with ring j at or before s (a prefix maximum read at s)
    and every row's first ring. A column not reset since the start waits
    for its rows not held only, until every row has rung since the start or
    every column has reset; then ``held`` is dropped. Returns the fill times
    (before the window for a column full when it begins) and the state at
    the window's end.
    """
    past_t, past_row, reset_at, held = state
    N = reset_at.size
    ring_t = np.concatenate((past_t, ring_t))
    ring_row = np.concatenate((past_row, ring_row))
    starts = np.concatenate((reset_at, starts[N:]))
    n = ring_t.size
    order = np.argsort(ring_row, kind="stable")  # row by row, each in time order
    rows = ring_row[order]
    cut = np.ones(n + 1, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=cut[1:n])
    bounds = np.flatnonzero(cut)  # rows[bounds[g]:bounds[g + 1]] is one row's rings
    firsts, lasts, rung = order[bounds[:-1]], order[bounds[1:] - 1], rows[bounds[:-1]]
    # waits[a]: the largest nxt[j] over rings j < a (0 for a = 0), where
    # nxt[j] is the next ring of ring j's row, or n if there is none.
    waits = np.zeros(n + 1, dtype=np.intp)
    waits[order[:-1] + 1] = order[1:]
    waits[lasts + 1] = n
    np.maximum.accumulate(waits, out=waits)

    ring_at = np.append(ring_t, np.inf)
    after = np.searchsorted(ring_t, starts, "right")  # each epoch's first ring
    fill = ring_at[np.maximum(waits[after], firsts.max() if rung.size == M else n)]
    if held is not None:
        first_at = np.full(M, np.inf)
        first_at[rung] = ring_t[firsts]
        fill[:N] = np.where(reset_at == -np.inf, np.where(held, -np.inf, first_at).max(axis=1), fill[:N])
    reset_at = np.empty(N)
    reset_at[cols[last]] = starts[last]
    if held is not None and (rung.size == M or reset_at.min() > -np.inf):
        held = None  # every row has rung since the start, or every column reset: held sets no entry
    past = np.sort(lasts)
    return fill, (ring_t[past], ring_row[past], reset_at, held)


def _count_series(initial: int, gains, losses) -> tuple[np.ndarray, np.ndarray]:
    """The all-ones count at 0 and after each change, from the times columns
    became full and the times full columns were reset."""
    up = np.concatenate([np.empty(0), *gains])
    down = np.concatenate([np.empty(0), *losses])
    at, which = np.unique(np.concatenate((up, down)), return_inverse=True)
    net = np.bincount(which, weights=np.repeat([1.0, -1.0], [up.size, down.size]), minlength=at.size)
    moved = net != 0
    values = initial + np.concatenate(([0.0], np.cumsum(net[moved])))
    return np.concatenate(([0.0], at[moved])), values.astype(np.int64)


def check_batch_size(n_replicates: int) -> None:
    """Refuse a batch of fewer than one replicate, or one that
    :func:`check_budget` refuses: every replicate costs at least one event."""
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    check_budget(n_replicates, "replicates", "every replicate costs at least one event, so split the batch")


def hitting_time_batch(
    params: SingleColumnParams | MatrixParams,
    n_replicates: int,
    master_seed: int,
    start=None,
) -> np.ndarray:
    """Independent first-hit times, one per replicate stream.

    Replicate ``r`` draws from the stream keyed by ``(master_seed, r)``
    and runs from ``start`` (level 0, or the empty matrix, when ``None``);
    the returned array is ordered by replicate index. A batch that
    :func:`check_batch_size` refuses raises ``ValueError`` before any run.
    """
    check_batch_size(n_replicates)
    run = simulate_matrix
    if isinstance(params, SingleColumnParams):
        run, start = simulate_single_column, start or 0
    return np.array([run(params, SimulationConfig(master_seed, r), start=start).tau for r in range(n_replicates)])
