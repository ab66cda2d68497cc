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
number fail before one succeeds, a multinomial gives how many reset from
each level, and a reverse running sum of those counts each level's visits.
The visits fix the run's event count n before its time is drawn: while n
is small that time is one exponential per event, each scaled by its level's
mean holding time, and beyond, each level's time is one gamma variate over
its visits, which costs more per call but nothing per event. Every other
run lays its climbs out in windows (top levels, visited levels, one
exponential per level, jump times by running sum), cut at the horizon or
at the first jump to M; each window ends with a reset to 0.

Every matrix run is drawn from per-column reset epochs. Poisson clocks
are independent on disjoint intervals, so a column's state depends only
on the row and entry clocks since its own last reset. Within a window of
time the row rings and the column resets are drawn first; between two
resets of column j, entry (i, j) is set at row i's first ring or the
entry's own first ring, whichever is earlier, and the column is full from
the last of these M times until its next reset. Without entry clocks
(lambda_m = 0) that is the first ring after which every row has rung
since the epoch began. There a window draws its clocks race-first: a
Poisson clock on an interval is fixed by its first ring, its last ring
and a Poisson number of uniform rings between them, so each row and each
column draws its first ring and, looking back from the window's end, its
last, and then each kind draws one Poisson count of its rings between and
as many uniforms that place them. A run that records no series and holds
no start entries reads only the first and last rings: an epoch fills no
earlier the later it starts, so the epochs carried into a window decide
its first fill, or the rows' first rings show that nothing fills there;
its events are the clocks that ring, those that ring more than once, and
the rings between; and it carries out each clock's last ring. It looks
for no fill once its first is known. Only a series run, a run from a
start, a window whose carried epochs leave the first fill open, and a
window that stops at its hit lay the rings out; in time order, one pass
over them gives every epoch's fill: each ring's next ring of the same
row, a prefix maximum of those, and a search for each epoch's start.
Windows chain from the state at the end of the last one, which bounds the
arrays a window needs: at lambda_m = 0 entry (i, j) is one iff row i rang
after column j's last reset, so the state is each row's last ring and
each column's last reset, and the end count is read off it. With entry
clocks the window's rings and resets are drawn as Poisson counts with
uniform labels and times, and the state is N x M; an entry set when the
window begins is set from its start. Every epoch sorts its rows' first
rings (an M-wide row, streamed through blocks of at most
``_WINDOW_CELLS`` cells), and only its k rows that ring last draw their
entry clocks' first rings: the others are set by the (k+1)-th last ring,
so the epoch's fill is read off those k unless they all come earlier,
when it draws the rest. Entry clocks are Poisson, so their rings after the
window's start do not depend on what came before, and an undrawn clock's
rings in its epoch do not depend on the fill. The event count adds the
entry rings: the first ring of each drawn cell, and Poisson-many in the
time after it or, undrawn, over the whole epoch. A window that runs to
its end sums those terms block by block; one that may stop at a hit keeps
its drawn first rings until the hit time is known. So at every lambda_m a
horizon window is bounded by its rings and resets alone (at lambda_m = 0,
or by its M + N clocks), while a hit window holds the ``N*M`` cells of
the state it carries in and spans as many reset cells.

Both constructions have exactly Gillespie's law; the climbs are the
column's own jump chain, drawn in another order. Counted climbs cost a few
draws per level, or one draw per event while events are few, laid-out
climbs one array cell per event, and epochs about ``q + p*M`` cells per
unit time plus ``N*M`` per window, k of each M drawn, or at lambda_m = 0
two exponentials per row and column plus one uniform per ring or reset
between, which only a run that lays the rings out sorts and labels. Both
chains' event loops live apart, in
:mod:`immunochain.reference`, as the references the tests compare these
constructions against.

A run or batch whose work :func:`check_budget` refuses raises
``ValueError`` before it starts; the functions below say what each is
charged. Counted climbs are charged their table levels only, and a
single-column hit run that M is too rare for is refused from
``reach[M]`` in closed form, the Gamma-ratio kernel of
:mod:`immunochain.analytics`, before its O(M) level tables are built.

Randomness is fully reproducible: in :func:`replicate_runs`, every batch
of runs, replicate ``r`` draws from the stream keyed by ``(master_seed,
r)``, so batch output is independent of execution order.

A lambda_m = 0 matrix batch goes through its windows a block of replicates
at a time (27 at M + N = 300; a run alone is a block of one), the block
sized so that its stacked first and last rings stay within
``_WINDOW_CELLS`` cells. Each replicate still draws alone, on its own
stream: every window, one ``standard_exponential((2, M + N))``, then its
rows' Poisson count and uniforms, then its columns'. Scaling and clipping
the waits, summing the gaps, the carried-epoch first-fill read, the event
counts, the last rings and the end count run as arrays over the block. A
series run, a run from a start, a window whose carried epochs leave the
first fill open and a window that stops at its hit lay their rings out
one replicate at a time; a hit run leaves the block at its hit. So every
run of a batch is the run drawn alone, field for field.
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
    "replicate_runs",
    "hitting_time_batch",
]

# A window holds about _WINDOW_CELLS array cells. A matrix horizon window's
# row rings and resets bound it at every lambda_m, so it spans
# _WINDOW_CELLS / (q + p) time units; its epochs' rows of first rings (M
# per epoch) stream through blocks of at most _WINDOW_CELLS cells, however
# large N*M is and however many resets it holds. A matrix hit window keeps
# its drawn entry-clock first rings until the hit, k per epoch, and at
# lambda_m > 0 it carries the N*M cells of the state whatever its span, so
# it spans max(_WINDOW_CELLS, N*M) / (q + p*M): its reset cells never
# outnumber those. At lambda_m = 0 every window draws the first and last
# rings of its M + N clocks whatever its span, so a full one spans
# max(_WINDOW_CELLS, M + N) / (q + p). A single-column window holds its
# climb levels. A run may end long before a window does, so a matrix hit
# run's first window holds max(_FIRST_WINDOW_CELLS, N*M) cells
# (_FIRST_WINDOW_CELLS at lambda_m = 0), a single-column run's first window
# _FIRST_WINDOW_CELLS, and each next one twice as many, up to the full width.
# A block of lambda_m = 0 runs stacks two M + N rows of first and last rings
# per run, so it holds _WINDOW_CELLS // (2 * (M + N)) runs, one at least.
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

# A counted hit of n events draws its time as n exponentials, one per event,
# while n <= _EXPONENTIAL_EVENTS + _EXPONENTIAL_EVENTS_PER_LEVEL * M, and as
# one gamma variate per level beyond. Timed on 2 vCPUs with numpy 2.4.6, the
# gamma draw and its dot cost 8.2-9.1 us at M <= 32, 10.0 at 64, 11.9 at 128,
# 15.4 at 256 and 21.1 at 512, mostly numpy's per-call checks of the shape
# array; the exponentials, their dot and the repeat of each level's mean
# holding time over its visits cost 2.3-3.1 us plus 7-7.5 ns an event. The
# two break even at n = 869, 891, 970, 1024, 1177, 1728 and 2423 for M = 8,
# 16, 32, 64, 128, 256 and 512 (a second run: 1047-1143 up to M = 64, then
# 1669, 2025 and 2771), and 800 + 4M lies between the two runs.
_EXPONENTIAL_EVENTS = 800
_EXPONENTIAL_EVENTS_PER_LEVEL = 4


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

    ``inv_total[k]`` is the mean holding time at level k (``1/p`` at M) in
    units of ``unit``, a power of two at least 1 and at most the slowest level
    below M: a time summed in those units stays in range, and a Python float
    times ``unit`` is exact, or ``inf`` without a warning where it overflows.
    ``reach[k]`` is the probability that a climb from 0 gets to level k,
    ``neg_reach`` its negation (ascending, for bisection), ``neg_log_reach``
    minus its logarithm, summed level by level so that it stays finite
    where ``reach`` underflows to 0, and ``fail_law[k]`` the law of a
    failed climb's top level k in 0..M-1 (0 at level 0, which a climb
    from 0 always leaves upwards). numpy's multinomial draws one binomial
    per category, none where the probability or the count left is 0, so
    neither that entry nor a count of no failed climbs costs a draw.
    """

    inv_total: np.ndarray
    unit: float
    reach: tuple[float, ...]
    neg_reach: tuple[float, ...]
    neg_log_reach: np.ndarray
    fail_law: np.ndarray


@lru_cache(maxsize=64)
def _column_tables(params: SingleColumnParams) -> _ColumnTables:
    M = params.M
    # The slowest levels below M are 0 (rate alpha*q) and M - 1 (alpha*q/M + p);
    # 1/p at M may be inf, where a run stays past any horizon.
    slowest = 1.0 / min(params.alpha * params.q, params.alpha * params.q / M + params.p)
    if not slowest < math.inf:
        raise ValueError(
            f"{params}: a level's mean holding time overflows double precision; it is beyond simulation"
        )
    unit = math.ldexp(1.0, max(0, math.frexp(slowest)[1] - 1))
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
    fail = np.concatenate(([0.0], fail))
    inv_total_array, neg_log_reach = np.array(inv_total) / unit, np.cumsum(-np.log([1.0, 1.0, *up_frac]))
    for array in (inv_total_array, neg_log_reach, fail):
        array.flags.writeable = False
    return _ColumnTables(inv_total_array, unit, tuple(reach), tuple(-r for r in reach), neg_log_reach, fail)


# O(1), but some 10 us a call: about 5% of a laid-out hit run at M = 64, whose charge reads it.
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
    that many climbs), found in O(1) before any table is built, and
    where its time overflows double precision. Every run
    raises it where a level's mean holding time does.
    :func:`check_budget` charges every run its ``M + 1`` table levels, and
    a laid-out run its expected events, ``alpha*q + p`` per unit time up to
    its horizon or its exact mean hitting time, both before the tables
    are built.
    """
    M = params.M
    if not 0 <= start <= M:
        raise ValueError(f"start must lie in [0, {M}], got {start!r}")

    # The tables hold M + 1 levels, so they are charged, and a run's other
    # charges and a hit run's reach checked, before they are built.
    check_budget(M + 1, "table levels", "shrink M")
    horizon = config.horizon
    hit = horizon is None and start < M
    if hit and (log_reach := _log_hit_reach(params)) < math.log(MIN_REACH_PROBABILITY):
        raise _unreachable(params, start, log_reach)
    counted = hit and not config.record_series
    if not counted:
        span = _mean_hitting_time(params, start) if horizon is None else horizon
        remedy = "drop the series or give a horizon" if horizon is None else "shorten the run"
        check_budget(span * params.uniformization_rate, "expected events", remedy)
    rng = replicate_rng(config.master_seed, config.replicate_index)
    tables = _column_tables(params)
    run = _regenerative_hit(tables, M, start, rng) if counted else _climbs(params, tables, start, config, rng)
    if run.tau != math.inf:  # None in a horizon run that never hit
        return run
    raise ValueError(f"{params}: the time to hit M from {start} overflows double precision; it is beyond simulation")


@lru_cache(maxsize=64)
def _log_hit_reach(params: SingleColumnParams) -> float:
    """Log of ``reach[M]``, the probability that a climb from 0 gets to M: the
    product over j < M of ``j / (j + a)``, the analytics kernel's ``K(M-1, a)``."""
    return analytics._log_gamma_ratio(params.M - 1, params.a)


def _unreachable(params: SingleColumnParams, start: int, log_reach: float) -> ValueError:
    """The refusal of a hit run whose climb from 0 reaches M with probability ``exp(log_reach)``."""
    reach = math.exp(log_reach)
    shown = f"{reach:.3g}" if reach > 0 else f"10^{log_reach / math.log(10):.0f}"
    try:
        mean = f"{analytics.hitting_time_mean_exact(params, start):.4g} is"
    except ValueError:  # it leaves double precision
        mean = "overflows double precision and is"
    return ValueError(
        f"{params}: a climb from 0 reaches M with probability {shown} "
        f"(< {MIN_REACH_PROBABILITY:g}); the exact mean hitting time {mean} beyond simulation"
    )


def _regenerative_hit(
    tables: _ColumnTables, M: int, start: int, rng: np.random.Generator
) -> Trajectory:
    """First hit of M from ``start`` < M, drawn climb by climb.

    The first climb, from ``start``, gets to level k with probability
    ``reach[k] / reach[start]``: one uniform fixes its top. If it fails,
    ``geometric(reach[M]) - 1`` climbs from 0 fail before one succeeds,
    and a multinomial counts those that reset from each level. With the
    first climb as one from 0 less one to ``start - 1`` and the last as
    one to M - 1, a level's visits are a reverse running sum of the
    counts. Their sum n is the run's event count. A level's time is its
    mean holding time times a sum of unit exponentials, one per visit:
    drawn one by one while n is at most ``_EXPONENTIAL_EVENTS +
    _EXPONENTIAL_EVENTS_PER_LEVEL * M``, and beyond as one gamma variate
    over the level's visits, which has the same law.
    """
    reach = tables.reach
    x = rng.random() * reach[start]
    if x < reach[M]:
        # The first climb succeeds and visits each level once: M - start
        # events, each one exponential.
        n, held = M - start, tables.inv_total[start:M]
    else:
        tops = rng.multinomial(int(rng.geometric(reach[M])) - 1, tables.fail_law)
        tops[bisect_left(tables.neg_reach, -x) - 1] += 1
        tops[M - 1] += 1
        if start:
            tops[start - 1] -= 1
        visits = tops[::-1].cumsum()[::-1]
        n = int(visits.sum())
        if n > _EXPONENTIAL_EVENTS + _EXPONENTIAL_EVENTS_PER_LEVEL * M:
            tau = float(rng.standard_gamma(visits).dot(tables.inv_total[:M])) * tables.unit
            return Trajectory(tau=tau, end_time=tau, end_value=M, n_events=n)
        held = tables.inv_total[:M].repeat(visits)
    tau = float(rng.standard_exponential(n).dot(held)) * tables.unit
    return Trajectory(tau=tau, end_time=tau, end_value=M, n_events=n)


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
        # A jump time beyond double precision outlasts every finite horizon,
        # so the search below cuts it where the exact law does.
        with np.errstate(over="ignore"):
            held = rng.standard_exponential(levels.size) * tables.inv_total[levels]
            jumps = t + np.cumsum(held) * tables.unit
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
    clocks of their own, the epoch-by-row cells, not with the events: per
    epoch an M-wide row of next rings, sorted, and k drawn entry cells
    (all M in the rare epoch that needs them), and a hit window at
    lambda_m > 0 spans ``max(_WINDOW_CELLS, N*M)`` cells, as many as the
    state it carries. Without entry clocks a window draws each row's and
    each column's first and last ring, two exponentials each, and its rings
    between as one Poisson count per kind and as many uniforms; a run
    without a series or a start reads only the first and last rings and the
    counts, looks for fills only while its first fill is unknown, and reads
    its end count off the last rings. It sorts and labels the rings between
    only in a window that its carried epochs leave open or that stops at its
    hit, and a run with a series or a start in every window it runs. A
    window spans at least ``M + N`` rings and resets there, and a run is
    a block of one (see :func:`replicate_runs`). A run that
    needs the events themselves or the final matrix
    is a job for the Gillespie reference,
    :func:`immunochain.reference.matrix_gillespie`. A run without a
    horizon and no full column at its start raises ``ValueError`` when one
    reset epoch fills its column with probability below
    ``MIN_REACH_PROBABILITY``: no run could count that many epochs.
    :func:`check_budget` charges every run its state cells, ``N*M`` or, at
    lambda_m = 0 from the empty matrix, ``M + N``; a run with a horizon,
    the events or epoch cells up to it, whichever are more; and one from
    the empty matrix without a horizon, its epoch cells up to the lower
    bound ``(1/(2*P_fill) - N)/p`` on the median of ``tau``, where
    ``P_fill`` is that fill probability.
    """
    _check_matrix_run(params, config.horizon, start)
    rng = replicate_rng(config.master_seed, config.replicate_index)
    if params.lambda_m == 0:
        return _race_runs(params, [rng], config.horizon, config.record_series, start)[0]
    M, N = params.M, params.N
    horizon = config.horizon
    if start is None:
        held, initial = np.zeros((N, M), dtype=bool), 0
    else:
        held, initial = start.entries.T.astype(bool), start.all_ones_count  # held[j, i]: entry (i, j) is one
    stop_on_hit = horizon is None
    tau = 0.0 if initial else None
    t = 0.0
    n_events = 0
    spare_time = 0.0
    state = held
    gains: list[np.ndarray] = []
    losses: list[np.ndarray] = []

    if not (stop_on_hit and tau is not None):
        for t0, t1 in _windows(params, horizon):
            gained, lost, events, spare, state = _epoch_window(
                params, rng, state, t0, t1, stop_on_hit, carry=t1 != horizon
            )
            n_events += events
            spare_time += spare
            gains.append(gained)
            losses.append(lost)
            t = t1
            if tau is None and gained.size:
                tau = float(gained.min())
                if stop_on_hit:
                    t = tau
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


def _check_matrix_run(params: MatrixParams, horizon: float | None, start: MatrixState | None) -> None:
    """The refusals of :func:`simulate_matrix`, raised before any draw."""
    M, N = params.M, params.N
    if start is not None and (start.M != M or start.N != N):
        raise ValueError("start state shape does not match parameters")
    # Every window holds the N x M state at lambda_m > 0, where the first one
    # builds a cell per entry, and from a start; else M + N (see _race_runs).
    check_budget(M * N if params.lambda_m > 0 or start is not None else M + N, "cells in the state alone", "shrink M or N")
    cells_per_time = _cells_per_time(params)
    if horizon is not None:
        check_budget(horizon * max(params.total_rate, cells_per_time), "expected events", "shorten the run")
    if horizon is None and (start is None or start.all_ones_count == 0):
        reach = analytics.steady_allones_probability(params)
        if reach < MIN_REACH_PROBABILITY:
            raise ValueError(
                f"{params}: a column fills between two of its resets with probability "
                f"{reach:.3g} (< {MIN_REACH_PROBABILITY:g}); the first full column is "
                "beyond simulation"
            )
        if start is None or not start.entries.any():
            # By time t at most N + Poisson(p*t) epochs have started, each
            # filling with probability reach, so P(tau <= t) <= (N + p*t)*reach
            # and the median of tau is at least (1/(2*reach) - N)/p.
            median_floor = (0.5 / reach - N) / params.p if reach > 0 else math.inf
            check_budget(median_floor * cells_per_time, "expected events", "give a horizon")


def _cells_per_time(params: MatrixParams) -> float:
    """Epoch cells per unit time: row rings and resets, and with entry
    clocks an M-wide row of first rings per epoch."""
    return params.q + params.p * (params.M if params.lambda_m > 0 else 1)


def _windows(params: MatrixParams, horizon: float | None):
    """The ``(t0, t1)`` of a matrix run's windows, each twice as long as the
    last up to the full width (see ``_WINDOW_CELLS``), to the horizon or,
    without one, on until the run stops at its hit."""
    M, N = params.M, params.N
    cells_per_time = _cells_per_time(params)
    if params.lambda_m == 0:
        # A window draws the first and last rings of its M + N clocks
        # whatever its span, so it spans as many rings and resets.
        width = max(_WINDOW_CELLS, M + N) / cells_per_time
        span = _FIRST_WINDOW_CELLS / cells_per_time if horizon is None else width
    elif horizon is None:
        # A hit window holds the N*M cells of its carried epochs whatever
        # its span, so it spans as many reset cells.
        width = max(_WINDOW_CELLS, M * N) / cells_per_time
        span = max(_FIRST_WINDOW_CELLS, M * N) / cells_per_time
    else:
        width = span = _WINDOW_CELLS / (params.q + params.p)
    t = 0.0
    while t != horizon:
        t1 = t + span if horizon is None else min(t + span, horizon)
        span = min(2 * span, width)
        yield t, t1
        t = t1


def _epoch_window(
    params: MatrixParams,
    rng: np.random.Generator,
    filled: np.ndarray,
    t0: float,
    t1: float,
    stop_on_hit: bool,
    carry: bool,
) -> tuple[np.ndarray, np.ndarray, int, float, np.ndarray | None]:
    """One window ``[t0, t1)`` of a matrix run with entry clocks, from the
    N x M state ``filled`` at ``t0``.

    Column j's epochs run between ``t0``, its resets and ``t1``. In an
    epoch from s, entry (i, j) is set at the first ring of row i after s
    or at the entry's own first ring, s + Exp(lambda_m/M), whichever is
    earlier (at s if it is one at ``t0`` and s is ``t0``), and the column
    is full from the last of these times to the epoch's end. The window
    draws its rings and resets as Poisson counts with uniform labels and
    times, and k cells per epoch (see :func:`_entry_fill`).

    Returns the times columns became full (columns full at ``t0`` are
    carried, not counted) and the times full columns were reset (carried
    ones included), which change the full count by their sizes; the
    events up to the window's end; the summed time in which entry clocks
    ring Poisson-many times uncounted (after a drawn first ring, or over
    the epoch where none was drawn); and the state at ``t1`` (only under
    ``carry``, else ``None``). Under ``stop_on_hit`` the window ends at its
    first full column, if any, and then carries no state out (see
    :func:`_carried_out`).
    """
    M, N = params.M, params.N
    # Labels are floor(u * count), which is far cheaper per call than
    # Generator.integers.
    span = t1 - t0
    ring_t = t0 + span * np.sort(rng.random(rng.poisson(params.q * span)))
    ring_row = (rng.random(ring_t.size) * M).astype(np.intp)
    reset_t = t0 + span * np.sort(rng.random(rng.poisson(params.p * span)))
    reset_col = (rng.random(reset_t.size) * N).astype(np.intp)

    starts, cols, ends, last = _epochs(N, t0, t1, reset_t, reset_col)
    fill, drawn, undrawn, kept = _entry_fill(
        params, rng, filled, ring_t, ring_row, starts, ends, last if carry else None, t0, stop_on_hit
    )
    gained, lost, end, n_events = _window_end(fill, ends, ring_t, reset_t, t0, t1, stop_on_hit)
    spare = 0.0
    state = None
    if carry and end == t1:
        state, waits, first = _carried_out(
            params, rng, filled, ring_t, ring_row, starts, cols, last, t0, t1, *kept
        )
        undrawn -= np.bincount(waits, minlength=undrawn.size)
        rings, spare = _ring_terms(ends[waits], first[:, None])
        n_events += rings
    # A hit window keeps its first rings until its end is known; rows
    # that drew none ring Poisson-many times over their epochs.
    ends = np.minimum(ends, end)
    for terms in drawn:
        if stop_on_hit:
            terms = _ring_terms(ends[terms[0]], terms[1])
        n_events += terms[0]
        spare += terms[1]
    spare += float(undrawn @ np.maximum(ends - starts, 0.0))
    return gained, lost, n_events, spare, state


def _window_end(fill, ends, ring_t, reset_t, t0, t1, stop_on_hit):
    """Where a window whose epochs fill at ``fill`` and end at ``ends`` ends:
    at ``t1``, or under ``stop_on_hit`` at its first full column. Returns the
    times columns became full and full columns were reset up to that end,
    the end, and the row rings and resets up to it."""
    valid = fill < ends
    gained = fill[valid & (fill > t0)]
    end = float(gained.min()) if stop_on_hit and gained.size else t1
    gained = gained[gained <= end]
    lost = ends[valid & (ends < end)]
    n_events = int(np.searchsorted(ring_t, end, "right") + np.searchsorted(reset_t, end, "right"))
    return gained, lost, end, n_events


def _epochs(N, t0, t1, reset_t, reset_col):
    """A window's epochs: epoch j < N is column j's from ``t0``, epoch N + r
    the one from reset r. Returns their starts, columns and ends, and which
    of them are their column's last."""
    starts = np.concatenate((np.full(N, t0), reset_t))
    cols = np.concatenate((np.arange(N), reset_col))
    order = np.argsort(cols, kind="stable")  # column by column, each in time order
    succ = cols[order[1:]] == cols[order[:-1]]
    before, after = order[:-1][succ], order[1:][succ]  # an epoch and the next of its column
    ends = np.full(starts.size, t1)
    ends[before] = starts[after]
    last = np.ones(starts.size, dtype=bool)
    last[before] = False
    return starts, cols, ends, last


@lru_cache(maxsize=64)
def _candidate_rows(params: MatrixParams) -> int:
    """How many rows of an epoch draw their entry clocks (see
    :func:`_entry_fill`): the least k with ``(1 - (k/M)**(lambda_m/q))**k``
    at most 1e-3, about the chance that a long epoch needs the others,
    and M where no k < M gives that."""
    M = params.M
    k = np.arange(1, M)
    with np.errstate(invalid="ignore"):  # 0 * inf where lambda_m/q overflows
        miss = (-np.expm1(params.lambda_m / params.q * np.log(k / M))) ** k
    k = k[miss <= 1e-3]
    return int(k[0]) if k.size else M


def _entry_fill(params, rng, filled, ring_t, ring_row, starts, ends, last, t0, keep):
    """Fill times of a window's epochs when entries have clocks of their own.

    In the epoch from s, entry (i, j) is set at R_i, row i's first ring
    after s (``t0`` for an entry one at ``t0`` in a carried epoch), or at
    E_i, its own clock's first ring, whichever is earlier, and the epoch
    fills at the last of these. Each epoch sorts its R, and only its k rows
    with the latest R (k from :func:`_candidate_rows`) draw E at first:
    every other row is set by T, the (k+1)-th latest R, so the epoch fills
    at L, the last of the k set times, if L is at T or later, and not
    before its ``ends`` if L is at its end or later. Else it draws its
    other rows' E as well and fills at the last of all M. The choice of
    rows and of this fallback reads R and the drawn E only, and the other
    rows' clocks are independent of both, so the law is exact for any k;
    k = M draws every cell. A row that draws no E rings Poisson-many times
    over its epoch, whatever the fill.

    Epochs go in blocks of ``_WINDOW_CELLS // M`` (one at least) that never
    mix carried and reset epochs, so every per-cell array, R included,
    lives in one block of at most ``_WINDOW_CELLS`` cells. Carried epochs
    with nothing set share one row of first rings after ``t0``. A block of
    reset epochs builds only its own rows of next rings, from the window's
    rings after its first reset.

    Returns the fill times; the drawn first rings as ``(epochs, rings)``
    pairs, one row per epoch in order of R, summed into their terms (see
    :func:`_ring_terms`) unless ``keep`` (a window that may stop at a hit,
    whose end is not known yet); how many rows of each epoch drew none;
    and, for :func:`_carried_out`, the first rings drawn in the ``last``
    epochs (when given): the k candidates' of each, then the epochs that
    fell back and their other rows'.
    """
    M, N = params.M, params.N
    scale = M / params.lambda_m
    k = _candidate_rows(params)
    fill = np.empty(starts.size)
    undrawn = np.full(starts.size, M - k)
    drawn, tops, backs = [], [], [(np.empty(0, np.intp), np.empty((0, M - k)))]
    step = max(1, _WINDOW_CELLS // M)
    carried_rings = np.full(M, np.inf)  # each row's first ring in the window
    np.minimum.at(carried_rings, ring_row, ring_t)
    reset_t = starts[N:]
    after = np.searchsorted(ring_t, reset_t, "right")  # each reset's first ring
    for lo in [*range(0, N, step), *range(N, starts.size, step)]:
        hi = min(lo + step, N if lo < N else starts.size)
        if lo >= N:
            a, b = lo - N, hi - N  # the block's resets
            # R[r, i]: row i's first ring after reset a + r. Each ring
            # after reset a goes to the last of the block's resets before it,
            # and a backward running minimum carries later rings to earlier
            # resets.
            R = np.full((b - a, M), np.inf)
            inside = slice(after[a], None)
            np.minimum.at(R, (np.searchsorted(reset_t[a + 1 : b], ring_t[inside]), ring_row[inside]), ring_t[inside])
            np.minimum.accumulate(R[::-1], axis=0, out=R[::-1])
        elif filled[lo:hi].any():
            R = np.where(filled[lo:hi], t0, carried_rings)
        else:
            R = carried_rings[None]
        R = np.sort(R, axis=1)  # a row per epoch, or one row they share
        s = starts[lo:hi, None]
        first = s + rng.exponential(scale, size=(hi - lo, k))
        fill[lo:hi] = np.minimum(R[:, M - k :], first).max(axis=1)
        epochs = [(np.arange(lo, hi), first)]
        if k < M:
            more = fill[lo:hi] < np.minimum(R[:, M - k - 1], ends[lo:hi])
            if more.any():
                back = np.flatnonzero(more)
                rest = s[back] + rng.exponential(scale, size=(back.size, M - k))
                fill[lo + back] = np.maximum(fill[lo + back], np.minimum(R[back % len(R), : M - k], rest).max(axis=1))
                epochs.append((lo + back, rest))
                undrawn[lo + back] = 0
                if last is not None:
                    backs.append((lo + back[last[lo + back]], rest[last[lo + back]]))
        if last is not None:
            tops.append(first[last[lo:hi]])
        drawn += epochs if keep else [_ring_terms(ends[e], first) for e, first in epochs]
    return fill, drawn, undrawn, (np.concatenate([np.empty((0, k)), *tops]), *map(np.concatenate, zip(*backs)))


def _carried_out(params, rng, filled, ring_t, ring_row, starts, cols, last, t0, t1, tops, back_epochs, backs):
    """The column states at ``t1`` of a window with entry clocks that ran to
    its end, from each column's ``last`` epoch (see :func:`_entry_fill`).

    Entry (i, j) is set iff row i rang in the epoch before ``t1``, it was
    one at ``t0`` in a column not reset since, or its own clock's first
    ring E came before ``t1``. The rows unrung by ``t1`` are the epoch's u
    latest in order of R, and exchangeable, so the r-th last of them in
    row order takes the E drawn for the r-th latest R, if any: a
    candidate's (``tops``), or another row's in an epoch that fell back
    (``backs``). Those left draw E now. Per-cell arrays live in blocks of
    at most ``_WINDOW_CELLS`` cells.

    Returns the states, the epochs and rows of the entries that drew now,
    and their first rings.
    """
    M = params.M
    k = _candidate_rows(params)
    rang = np.full(M, -np.inf)  # each row's last ring before t1
    before = int(ring_t.searchsorted(t1))
    np.maximum.at(rang, ring_row[:before], ring_t[:before])
    epochs = np.flatnonzero(last)  # carried ones first, each column once
    fell = np.full(starts.size, -1)
    fell[back_epochs] = np.arange(back_epochs.size)
    state = np.empty_like(filled)
    waits = [(np.empty(0, np.intp),) * 2]
    step = max(1, _WINDOW_CELLS // M)
    for lo in range(0, epochs.size, step):
        b = epochs[lo : lo + step]
        rung = rang > starts[b, None]
        carried = b < filled.shape[0]
        rung[carried] = filled[b[carried]] | (rang >= t0)
        e, i = np.divmod(np.flatnonzero(~rung), M)  # epoch by epoch, in row order
        if e.size:
            u = np.bincount(e, minlength=b.size)
            r = np.repeat(np.cumsum(u), u) - np.arange(e.size)  # from the last
            E = np.full(e.size, np.nan)
            top = r <= k
            E[top] = tops[lo + e[top], k - r[top]]
            on = ~top & (fell[b[e]] >= 0)
            E[on] = backs[fell[b[e[on]]], M - r[on]]
            rung[e, i] = E < t1
            wait = np.isnan(E)
            waits.append((b[e[wait]], i[wait]))
        state[cols[b]] = rung
    waits, rows = np.concatenate(waits, axis=1)
    first = starts[waits] + rng.exponential(M / params.lambda_m, waits.size)
    state[cols[waits], rows] = first < t1
    return state, waits, first


def _ring_terms(ends, first):
    """Entry clocks' first rings ``first``, a row per epoch (or per cell),
    before the rows' ``ends``, and the summed time after those rings, in
    which their further rings are Poisson."""
    gap = ends[:, None] - first
    return int(np.count_nonzero(gap >= 0)), float(np.maximum(gap, 0.0, out=gap).sum())


def _race_block_size(params: MatrixParams) -> int:
    """How many lambda_m = 0 runs share a block: as many as keep the block's
    stacked per-clock arrays, two of M + N cells per run, within
    ``_WINDOW_CELLS`` cells (27 at M + N = 300), and one at least."""
    return max(1, _WINDOW_CELLS // (2 * (params.M + params.N)))


class _RaceBooks:
    """What the running lambda_m = 0 runs of a block carry from window to
    window, a row per run: its place in the block; each row's last ring and
    then each column's last reset (-inf for none), as a row of
    ``last_at``; a start's entries ``held[j, i]`` or ``None``; whether it
    lays its rings out (a series, or start entries held); its first hit
    (nan for none yet) and events; and the times its full count rose and
    fell in the windows that laid its rings out. ``read_off`` marks a run
    whose last window read its end count off ``last_at`` instead."""

    def __init__(self, size, M, N, held, initial, series):
        self.index = np.arange(size)
        self.last_at = np.full((size, M + N), -np.inf)
        self.held = [held] * size
        self.laid = np.full(size, series or held is not None)
        self.tau = np.full(size, 0.0 if initial else np.nan)
        self.events = np.zeros(size, dtype=np.int64)
        self.gains = [[] for _ in range(size)]
        self.losses = [[] for _ in range(size)]
        self.read_off = np.zeros(size, dtype=bool)

    def keep(self, kept: np.ndarray) -> None:
        """Keep the runs where ``kept`` holds, in order."""
        for name, value in vars(self).items():
            setattr(self, name, value[kept] if isinstance(value, np.ndarray) else
                    [x for x, k in zip(value, kept.tolist()) if k])

    def runs(self, which, M, initial, series, end_time) -> list[Trajectory]:
        """The trajectories of the runs ``which``, ended at ``end_time``
        (``None``: at their first hit)."""
        last_at = self.last_at[which]
        # Entry (i, j) is one iff row i rang after column j's last reset.
        read_off = (last_at[:, M:] < last_at[:, :M].min(axis=1, keepdims=True)).sum(axis=1)
        out = []
        columns = zip(which.tolist(), self.tau[which].tolist(), self.events[which].tolist(),
                      self.read_off[which].tolist(), read_off.tolist())
        for k, tau, events, counted, count in columns:
            gains, losses = self.gains[k], self.losses[k]
            end_value = count if counted else initial + sum(g.size for g in gains) - sum(l.size for l in losses)
            times = values = None
            if series:
                times, values = _count_series(initial, gains, losses)
            out.append(Trajectory(
                tau=None if math.isnan(tau) else tau, end_time=tau if end_time is None else end_time,
                end_value=end_value, n_events=events, series_times=times, series_values=values,
            ))
        return out


def _race_runs(params: MatrixParams, rngs, horizon, series: bool, start: MatrixState | None) -> list[Trajectory]:
    """The lambda_m = 0 runs of one block of replicates, one per generator in
    ``rngs``, in order; :func:`_check_matrix_run` has passed them.

    The runs share their windows, and a run leaves the block at its hit.
    Each window draws every run's clocks on the run's own stream
    (:func:`_race`), and reads what it can as arrays over the block
    (:func:`_race_window`).
    """
    M, N = params.M, params.N
    held, initial = (None, 0) if start is None else (start.entries.T.astype(bool), start.all_ones_count)
    books = _RaceBooks(len(rngs), M, N, held, initial, series)
    runs = [None] * len(rngs)
    end_time = None
    if horizon is not None or not initial:
        for t0, end_time in _windows(params, horizon):
            ended = _race_window(params, rngs, books, t0, end_time, horizon is None, end_time != horizon, series)
            if ended.any():
                done = np.flatnonzero(ended)
                for b, run in zip(books.index[done], books.runs(done, M, initial, series, None)):
                    runs[b] = run
                books.keep(~ended)
                rngs = [rng for rng, gone in zip(rngs, ended.tolist()) if not gone]
                if not rngs:
                    break
    running = np.arange(len(books.index))
    for b, run in zip(books.index, books.runs(running, M, initial, series, None if horizon is None else end_time)):
        runs[b] = run
    return runs


def _race_batch(params: MatrixParams, n_replicates: int, master_seed: int, horizon, series: bool, start):
    """Runs ``0 .. n_replicates - 1`` of a lambda_m = 0 batch, drawn block by
    block (see :func:`_race_block_size`), each on its own stream. Refused,
    as each run alone would be, at the first run."""
    SimulationConfig(master_seed, 0, horizon, series)  # refuses a horizon as each run's config would
    _check_matrix_run(params, horizon, start)
    size = _race_block_size(params)
    for lo in range(0, n_replicates, size):
        rngs = [replicate_rng(master_seed, r) for r in range(lo, min(lo + size, n_replicates))]
        yield from _race_runs(params, rngs, horizon, series, start)


def _race_window(params, rngs, books: _RaceBooks, t0: float, t1: float,
                 stop_on_hit: bool, carry: bool, series: bool) -> np.ndarray:
    """One window ``[t0, t1)`` of the running lambda_m = 0 runs of a block,
    one per generator in ``rngs``, from their ``books`` at ``t0``; returns
    which of them stopped at their hit.

    The clocks are drawn race-first (see :func:`_race`). A run that records
    no series and holds no start entries reads only the first and last
    rings, as arrays over the block: its first fill, while it has none, by
    the carried-epoch rule (:func:`_carried_fill`), or where the carried
    epochs leave it open by laying its rings out and searching every epoch
    (:func:`_laid_window`, stopped at the first fill); its events, the
    clocks that ring, those that ring more than once and the rings between;
    and each clock's last ring. One that stops at its hit reads its
    laid-out rings up to the hit instead. A series run or a run from a start
    lays its rings out in every window.
    """
    M = params.M
    first, last, placing = _race(params, rngs, t0, t1)
    last_at, laid = books.last_at, books.laid
    read = np.isnan(books.tau) & ~laid
    open_rings, found = {}, np.empty(0, dtype=np.intp)
    if read.any():
        fill, open_ = _carried_fill(M, last_at, first, t1)  # each run's first fill, inf for none
        fill[~read] = np.inf
        for k in (read & open_).nonzero()[0]:
            open_rings[k] = _race_rings(M, (first[k], last[k], *placing[k]), t1)
            gained = _laid_window(M, (last_at[k], None), open_rings[k], t0, t1, stop_on_hit=True, carry=False)[0]
            fill[k] = gained.min() if gained.size else np.inf
        found = (fill < np.inf).nonzero()[0]
        books.tau[found] = fill[found]
    rung = first < t1
    # Per clock, whether it rings and whether it rings twice: summed as
    # bytes, which numpy sums along a row faster than booleans.
    events = (rung.view(np.int8) + (last > first).view(np.int8)).sum(axis=1)
    events += [rows.size + cols.size for rows, cols in placing]
    state = np.where(rung, last, last_at)  # each clock that rang, at its last ring
    ended = np.zeros(len(rngs), dtype=bool)
    if stop_on_hit:
        ended[found] = True
        for k in found:  # the run ends at its first fill, its clocks at their last rings up to it
            events[k], at = 0, last_at[k].copy()
            for (times, clocks), kind in zip(open_rings.get(k) or _race_rings(M, (first[k], last[k], *placing[k]), t1),
                                             (at[:M], at[M:])):
                upto = times <= fill[k]
                np.maximum.at(kind, clocks[upto], times[upto])
                events[k] += np.count_nonzero(upto)
            state[k] = at
    events[laid] = 0  # laid out below, with the state they carry in
    books.events += events
    state[laid] = last_at[laid]
    books.last_at = last_at = state
    books.read_off = ~laid
    for k in laid.nonzero()[0]:
        rings = _race_rings(M, (first[k], last[k], *placing[k]), t1)
        gained, lost, events, state = _laid_window(M, (last_at[k], books.held[k]), rings, t0, t1, stop_on_hit, carry)
        books.events[k] += events
        books.gains[k].append(gained)
        books.losses[k].append(lost)
        if state is not None:
            last_at[k], books.held[k] = state
            laid[k] = series or books.held[k] is not None
        if np.isnan(books.tau[k]) and gained.size:
            books.tau[k] = gained.min()
            ended[k] = stop_on_hit
    return ended


def _race(params, rngs, t0, t1):
    """The row rings and column resets of a lambda_m = 0 window ``[t0, t1)``
    for a block of runs, each drawn race-first on its own stream in ``rngs``.

    A Poisson clock of rate r on the window is fixed by its first ring
    ``t0 + Exp(1/r)``, its last ring, looking back from ``t1``,
    ``max(t1 - Exp(1/r), first)`` (none where the first is at ``t1`` or
    later), and a Poisson number of uniform rings strictly between the two.
    The M rows (r = q/M) and then the N columns (r = p/N) are the window's
    clocks. Each run draws in one fixed order, the same in a block as
    alone: every clock's wait for its first ring and every clock's wait
    back from ``t1`` for its last ring, as one ``standard_exponential((2,
    M + N))``, then the rows' rings between, as one Poisson count, r times
    their summed gaps ``last - first``, and as many uniforms that place them
    on those gaps, and then the columns' the same way. The waits are scaled
    and clipped, and the gaps summed, as arrays over the block.

    Returns ``(first, last, placing)``: two ``(runs, M + N)`` arrays, each
    run's first and last ring of each clock, rows then columns, both ``t1``
    for a clock that does not ring in the window, and each run's placing
    uniforms of its rows and of its columns (see :func:`_race_rings`).
    """
    M, N = params.M, params.N
    waits = np.empty((len(rngs), 2, M + N))
    for rng, out in zip(rngs, waits):
        rng.standard_exponential(out=out)
    # Each clock's mean wait. One above 1e300 (p/N below 1e-300) is cut to
    # it: no window lasts long enough for either to ring, and a unit
    # exponential times 1e300 stays finite.
    scale = np.full(M + N, M / params.q)
    scale[M:] = min(N / params.p, 1e300)
    waits *= scale
    first, last = waits[:, 0], waits[:, 1]
    first += t0
    np.minimum(first, t1, out=first)
    np.subtract(t1, last, out=last)
    np.minimum(last, math.nextafter(t1, -math.inf), out=last)  # one that rounds to t1 comes just before
    np.maximum(last, first, out=last)
    means = np.add.reduceat(last - first, (0, M), axis=1) * (params.q / M, params.p / N)
    placing = [(rng.random(rng.poisson(rows)), rng.random(rng.poisson(cols)))
               for rng, (rows, cols) in zip(rngs, means.tolist())]
    return first, last, placing


def _carried_fill(M, last_at, first, t1):
    """The first fill of each run of a block that its carried epochs decide,
    from each run's state ``last_at`` and its window's ``first`` rings.

    Carried epoch j, from column j's last reset c_j, fills at the last
    first ring in the window of the rows whose last ring before the window
    is at or before c_j: a prefix maximum over the rows in order of their
    last ring, read by one search per column. An epoch fills no
    earlier the later it starts, so a run's first fill is its least carried
    one before its column's first reset, if there is one (inf if not).
    Returns those, and which runs it leaves open: none of their carried
    epochs fills before its reset, and every row rings in the window (a
    carried fill is a first ring or -inf, never inf).
    """
    row_first = first[:, :M]
    if (last_at[:, :M] == -np.inf).all():  # no row has rung: each carried epoch waits for every row
        carried = row_first.max(axis=1, keepdims=True)
        every = carried[:, 0]
    else:
        carried = np.empty((len(first), last_at.shape[1] - M))
        every = np.empty(len(first))
        for k, (last_ring, reset_at, row_first_k, carried_k) in enumerate(
            zip(last_at[:, :M], last_at[:, M:], row_first, carried)
        ):
            by_last = np.argsort(last_ring)  # rows in order of their last ring
            fills = np.maximum.accumulate(np.concatenate(([-np.inf], row_first_k[by_last])))
            # numpy searches sorted keys from the last one's place, several
            # times faster than unsorted ones at N in the thousands.
            by_reset = np.argsort(reset_at)
            carried_k[by_reset] = fills[np.searchsorted(last_ring[by_last], reset_at[by_reset], "right")]
            every[k] = fills[-1]
    fill = np.where(carried < first[:, M:], carried, np.inf).min(axis=1)
    return fill, (fill == np.inf) & (every < t1)


def _laid_window(M, state, rings, t0, t1, stop_on_hit, carry):
    """A lambda_m = 0 window of one run from its ``state`` (last rings and
    held entries), its :func:`_race_rings` put in time order and every
    epoch's fill searched (:func:`_ring_fill`). Returns what
    :func:`_window_end` gives, but the end, and the state at ``t1`` (only
    under ``carry`` and where the window ran to its end, else ``None``)."""
    ring_t, ring_row, reset_t, reset_col = _time_order(M, rings)
    starts, cols, ends, last = _epochs(state[0].size - M, t0, t1, reset_t, reset_col)
    fill, state = _ring_fill(M, _ring_pairs(M, state, ring_row.dtype), ring_t, ring_row, starts, cols, last, carry)
    gained, lost, end, n_events = _window_end(fill, ends, ring_t, reset_t, t0, t1, stop_on_hit)
    return gained, lost, n_events, _last_rings(M, state) if state is not None and end == t1 else None


def _race_rings(M, race, t1):
    """Every ring of one run's :func:`_race` rows and every reset of its
    columns, ``race`` being ``(first, last, rows' uniforms, columns'
    uniforms)``, clock by clock: ``[(times, rows), (times, columns)]``.

    A clock rings at its first and last ring, and each uniform ``u`` of its
    kind places a ring ``u`` of the way along their gaps laid end to end,
    clock by clock.
    """
    first, last, *placing = race
    out = []
    for clocks, u in zip((slice(0, M), slice(M, None)), placing):
        f, l = first[clocks], last[clocks]
        rung = (f < t1).nonzero()[0]
        twice = (l > f).nonzero()[0]  # a last ring after the first is before t1
        edges = np.zeros(f.size + 1)
        np.cumsum(l - f, out=edges[1:])
        x = np.sort(u) * edges[-1]
        cut = x.searchsorted(edges)
        at = np.arange(f.size).repeat(cut[1:] - cut[:-1])  # edges[at] <= x < edges[at + 1]
        between = np.minimum(f[at] + (x - edges[at]), l[at])  # rounding takes none past its clock's last
        out.append((np.concatenate((f[rung], l[twice], between)), np.concatenate((rung, twice, at))))
    return out


def _time_order(M, rings):
    """:func:`_race_rings` as :func:`_ring_fill` and :func:`_epochs` take
    them: ``(ring_t, ring_row, reset_t, reset_col)``, each in time order.
    Row labels go in 16 bits where M allows, which numpy radix-sorts when
    :func:`_ring_fill` groups the rings by row."""
    out = []
    for (times, clocks), label in zip(rings, (np.uint16 if M <= 1 << 16 else np.intp, np.intp)):
        order = np.argsort(times)
        out += [times[order], clocks[order].astype(label, copy=False)]
    return out


def _ring_pairs(M, state, label):
    """A lambda_m = 0 ``state``, a run's row of ``_RaceBooks.last_at`` and
    its held entries, as :func:`_ring_fill` takes it: the rows that have
    rung and their last rings, in time order, the rows as ``label``."""
    last_at, held = state
    rows = np.argsort(last_at[:M])[np.count_nonzero(last_at[:M] == -np.inf) :]
    return last_at[rows], rows.astype(label), last_at[M:], held


def _last_rings(M, pairs):
    """The state that :func:`_ring_fill` returns, as ``_RaceBooks`` keeps it."""
    past_t, past_row, reset_at, held = pairs
    last_at = np.concatenate((np.full(M, -np.inf), reset_at))
    last_at[past_row] = past_t
    return last_at, held


def _ring_fill(M, state, ring_t, ring_row, starts, cols, last, carry=True):
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
    the window's end, under ``carry``, or else ``None``.
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
    bounds = cut.nonzero()[0]  # rows[bounds[g]:bounds[g + 1]] is one row's rings
    firsts, lasts, rung = order[bounds[:-1]], order[bounds[1:] - 1], rows[bounds[:-1]]
    # waits[a]: the largest nxt[j] over rings j < a (0 for a = 0), where
    # nxt[j] is the next ring of ring j's row, or n if there is none.
    waits = np.zeros(n + 1, dtype=np.intp)
    waits[order[:-1] + 1] = order[1:]
    waits[lasts + 1] = n
    np.maximum.accumulate(waits, out=waits)

    ring_at = np.concatenate((ring_t, [np.inf]))
    after = ring_t.searchsorted(starts, "right")  # each epoch's first ring
    fill = ring_at[np.maximum(waits[after], firsts.max() if rung.size == M else n)]
    if held is not None:
        first_at = np.full(M, np.inf)
        first_at[rung] = ring_t[firsts]
        fill[:N] = np.where(reset_at == -np.inf, np.where(held, -np.inf, first_at).max(axis=1), fill[:N])
    if not carry:
        return fill, None
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


def replicate_runs(params: SingleColumnParams | MatrixParams, n_replicates: int, master_seed: int,
                   horizon: float | None = None, record_series: bool = False, start=None):
    """Independent runs, a generator of ``Trajectory`` in replicate order: run
    ``r`` is :func:`simulate_single_column` or :func:`simulate_matrix`, by the
    type of ``params``, under ``SimulationConfig(master_seed, r, horizon,
    record_series)``, from ``start`` (level 0 or the empty matrix for ``None``).
    A batch that :func:`check_batch_size` refuses raises ``ValueError`` at the
    call; one whose runs are refused, at its first run.

    A lambda_m = 0 matrix batch is drawn in blocks of replicates (27 at
    M + N = 300, see the module docstring): each replicate draws on its own
    stream with the calls, sizes and order it makes alone, and the block
    reads the rest as arrays, so run ``r`` is field for field the run drawn
    alone. Every other batch draws its runs one at a time."""
    check_batch_size(n_replicates)
    if isinstance(params, MatrixParams) and params.lambda_m == 0:
        return _race_batch(params, n_replicates, master_seed, horizon, record_series, start)
    run = simulate_matrix
    if isinstance(params, SingleColumnParams):
        run, start = simulate_single_column, start or 0
    return (run(params, SimulationConfig(master_seed, r, horizon, record_series), start=start)
            for r in range(n_replicates))


def hitting_time_batch(params: SingleColumnParams | MatrixParams, n_replicates: int, master_seed: int, start=None):
    """The first-hit times of :func:`replicate_runs`, as an array in replicate order."""
    return np.array([run.tau for run in replicate_runs(params, n_replicates, master_seed, start=start)])
