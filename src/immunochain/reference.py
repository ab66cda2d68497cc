"""Step semantics of both chains and their Gillespie reference simulators.

The chains' transitions, one event at a time, are defined here:

- :func:`enumerate_rates` lists the single column's moves out of a count
  ``k``: up to ``k+1`` at rate ``alpha*q*(1 - k/M)`` and, for ``k > 0``,
  the reset to 0 at rate ``p``.
- :func:`apply_event` applies one :class:`MatrixEvent` to a
  :class:`MatrixState`: a row set (``ROW_SET``, rate ``q/M`` per
  row), a column reset (``COLUMN_ZERO``, rate ``p/N`` per column) or an
  entry set (``ENTRY_SET``, rate ``lambda_m/M`` per entry).
  :func:`compose_closed_form` gives the result of alternating row-set and
  column-reset steps in closed form, the combinatorial fact the reset
  epochs and the time-reversal race rest on; it is a second reference
  for :func:`apply_event`.

Each chain's Gillespie simulator steps on these rules.

- :func:`matrix_gillespie` steps through :func:`apply_event`. The total
  rate ``q + p + N*lambda_m`` is the same in every state, so each step
  draws one exponential holding time, one uniform for the event class
  (row set, column reset, entry set, in proportion to their rates) and
  one for its row, column or entry. Events that leave the matrix as it
  was, such as a reset of an empty column, are kept and counted: every
  clock rings whatever the state.
- :func:`column_gillespie` steps on :func:`enumerate_rates`: an
  exponential holding time at the total outgoing rate, then one uniform
  picks the move in proportion to its rate.

The library draws matrix runs from per-column reset epochs and
single-column runs from regenerative climbs (:mod:`immunochain.simulate`);
this module is the reference those paths are checked against. It shares
no simulation code with them, and the package does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import MatrixParams, MatrixState, SingleColumnParams
from .rng import replicate_rng
from .simulate import SimulationConfig, Trajectory

__all__ = [
    "MatrixEvent",
    "ROW_SET",
    "COLUMN_ZERO",
    "ENTRY_SET",
    "enumerate_rates",
    "apply_event",
    "compose_closed_form",
    "column_gillespie",
    "matrix_gillespie",
]

ROW_SET = "row_set"
COLUMN_ZERO = "column_zero"
ENTRY_SET = "entry_set"


@dataclass(frozen=True)
class MatrixEvent:
    """One timestamped transition of the matrix chain.

    ``kind`` is one of ``row_set`` (uses ``row``), ``column_zero`` (uses
    ``col``) or ``entry_set`` (uses both). Indices are 0-based.
    """

    kind: str
    row: int | None = None
    col: int | None = None
    time: float = 0.0

    def __post_init__(self):
        if self.kind not in (ROW_SET, COLUMN_ZERO, ENTRY_SET):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"event time must be nonnegative, got {self.time!r}")


def enumerate_rates(state: int, params: SingleColumnParams) -> list[tuple[int, float]]:
    """Outgoing transitions of the single-column chain at state ``k``.

    Returns ``[(k+1, alpha*q*(1-k/M))]`` while an upward move is possible
    plus ``[(0, p)]`` while a reset changes the state. The reset from 0
    is a self-loop and is omitted, so holding times at 0 depend only on
    the upward rate.
    """
    k = state
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= params.M:
        raise ValueError(f"state must be an integer in [0, {params.M}], got {k!r}")
    out: list[tuple[int, float]] = []
    if k < params.M:
        out.append((k + 1, params.alpha * params.q * (1.0 - k / params.M)))
    if k > 0:
        out.append((0, params.p))
    return out


def apply_event(state: MatrixState, event: MatrixEvent) -> MatrixState:
    """Apply one matrix transition, returning a new state.

    ``row_set`` writes ones across row ``event.row``; ``column_zero``
    clears column ``event.col``; ``entry_set`` sets a single entry.
    Raises ``ValueError`` on out-of-range indices.
    """
    M, N = state.M, state.N
    entries = state.entries.copy()
    if event.kind == ROW_SET:
        j = event.row
        if j is None or not 0 <= j < M:
            raise ValueError(f"row index {j!r} out of range for M={M}")
        entries[j, :] = 1
    elif event.kind == COLUMN_ZERO:
        i = event.col
        if i is None or not 0 <= i < N:
            raise ValueError(f"column index {i!r} out of range for N={N}")
        entries[:, i] = 0
    else:  # ENTRY_SET
        i, j = event.row, event.col
        if i is None or not 0 <= i < M:
            raise ValueError(f"row index {i!r} out of range for M={M}")
        if j is None or not 0 <= j < N:
            raise ValueError(f"column index {j!r} out of range for N={N}")
        entries[i, j] = 1
    return MatrixState(entries)


def compose_closed_form(
    state: MatrixState,
    additions: Sequence[Iterable[int]],
    deletions: Sequence[Iterable[int]],
) -> MatrixState:
    """Closed-form result of T alternating (row-set, column-zero) steps.

    Step ``t`` first sets every row in ``additions[t]`` to ones, then
    zeroes every column in ``deletions[t]``. The composition collapses
    combinatorially: entry (i, j) ends up 1 exactly when

    * row i was last set at some step t and column j is not zeroed at
      step t or later, or
    * row i is never set, column j is never zeroed, and the starting
      matrix had a 1 there.

    Must agree bit-exactly with sequentially replaying the same events
    through :func:`apply_event`; the test suite enforces this.
    """
    if len(additions) != len(deletions):
        raise ValueError("additions and deletions must have equal length")
    M, N = state.M, state.N
    T = len(additions)
    add_sets = [frozenset(int(i) for i in s) for s in additions]
    del_sets = [frozenset(int(i) for i in s) for s in deletions]
    for s in add_sets:
        if any(not 0 <= i < M for i in s):
            raise ValueError("row index out of range in additions")
    for s in del_sets:
        if any(not 0 <= i < N for i in s):
            raise ValueError("column index out of range in deletions")

    # Suffix unions of deletions: cols_zeroed_from[t] = union of del_sets[t:].
    cols_zeroed_from: list[frozenset[int]] = [frozenset()] * (T + 1)
    for t in range(T - 1, -1, -1):
        cols_zeroed_from[t] = cols_zeroed_from[t + 1] | del_sets[t]

    last_set_step: dict[int, int] = {}
    for t, s in enumerate(add_sets):
        for i in s:
            last_set_step[i] = t

    entries = np.zeros((M, N), dtype=np.uint8)
    untouched_cols = np.array([j not in cols_zeroed_from[0] for j in range(N)])
    for i in range(M):
        t = last_set_step.get(i)
        if t is None:
            entries[i, :] = state.entries[i, :] * untouched_cols
        else:
            killed = cols_zeroed_from[t]
            for j in range(N):
                if j not in killed:
                    entries[i, j] = 1
    return MatrixState(entries)


def column_gillespie(params: SingleColumnParams, config: SimulationConfig, start: int = 0) -> Trajectory:
    """One single-column run, stepped on :func:`enumerate_rates`.

    ``config`` and ``start`` mean what they mean to
    :func:`simulate.simulate_single_column`, and the run draws from the
    stream keyed by ``(master_seed, replicate_index)``, though not the same
    draws. A run without a horizon steps until it reaches M, however long
    that takes; one with a horizon steps to the horizon.
    """
    if not 0 <= start <= params.M:
        raise ValueError(f"start must lie in [0, {params.M}], got {start!r}")
    rng = replicate_rng(config.master_seed, config.replicate_index)

    k, t = start, 0.0
    tau = 0.0 if k == params.M else None
    times, values = [0.0], [k]
    while config.horizon is not None or tau is None:
        moves = enumerate_rates(k, params)
        total = sum(rate for _, rate in moves)
        dt = rng.exponential(1.0 / total)
        if config.horizon is not None and t + dt > config.horizon:
            t = config.horizon
            break
        t += dt
        u = rng.random() * total
        for target, rate in moves:
            if u < rate:
                break
            u -= rate
        k = target
        times.append(t)
        values.append(k)
        if tau is None and k == params.M:
            tau = t

    return Trajectory(
        tau=tau,
        end_time=t,
        end_value=k,
        n_events=len(times) - 1,
        series_times=np.array(times) if config.record_series else None,
        series_values=np.array(values, dtype=np.int64) if config.record_series else None,
    )


def matrix_gillespie(
    params: MatrixParams, config: SimulationConfig, start: MatrixState | None = None
) -> tuple[Trajectory, list[MatrixEvent], MatrixState]:
    """One matrix run, its events in time order and the matrix at its end.

    ``config`` and ``start`` mean what they mean to
    :func:`simulate.simulate_matrix`, and the run draws from the stream
    keyed by ``(master_seed, replicate_index)``, though not the same draws.
    A run without a horizon steps until a column fills, however long that
    takes; one with a horizon steps to the horizon.
    """
    M, N = params.M, params.N
    state = MatrixState.zeros(M, N) if start is None else start
    if (state.M, state.N) != (M, N):
        raise ValueError("start state shape does not match parameters")
    rng = replicate_rng(config.master_seed, config.replicate_index)
    total = params.total_rate
    row_share = params.q / total
    row_or_reset_share = (params.q + params.p) / total

    t = 0.0
    tau = 0.0 if state.all_ones_count else None
    events: list[MatrixEvent] = []
    times, values = [0.0], [state.all_ones_count]
    while config.horizon is not None or tau is None:
        dt = rng.exponential(1.0 / total)
        if config.horizon is not None and t + dt > config.horizon:
            t = config.horizon
            break
        t += dt
        u_class, u_index = rng.random(2)
        if u_class < row_share:
            event = MatrixEvent(ROW_SET, row=int(u_index * M), time=t)
        elif u_class < row_or_reset_share:
            event = MatrixEvent(COLUMN_ZERO, col=int(u_index * N), time=t)
        else:
            i, j = divmod(int(u_index * M * N), N)
            event = MatrixEvent(ENTRY_SET, row=i, col=j, time=t)
        events.append(event)
        state = apply_event(state, event)
        count = state.all_ones_count
        if count != values[-1]:
            times.append(t)
            values.append(count)
        if tau is None and count:
            tau = t

    trajectory = Trajectory(
        tau=tau,
        end_time=t,
        end_value=values[-1],
        n_events=len(events),
        series_times=np.array(times) if config.record_series else None,
        series_values=np.array(values, dtype=np.int64) if config.record_series else None,
    )
    return trajectory, events, state
