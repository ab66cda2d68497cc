"""Gillespie reference simulators of both chains.

Each chain is stepped one event at a time on its own transition rules.

- The matrix chain steps through :func:`models.apply_event`. The total
  rate ``q + p + N*lambda_m`` is the same in every state, so each step
  draws one exponential holding time, one uniform for the event class
  (row set, column reset, entry set, in proportion to their rates) and
  one for its row, column or entry. Events that leave the matrix as it
  was, such as a reset of an empty column, are kept and counted: every
  clock rings whatever the state.
- The single column steps on :func:`models.enumerate_rates`: an
  exponential holding time at the total outgoing rate, then one uniform
  picks the move in proportion to its rate.

The library draws matrix runs from per-column reset epochs and
single-column runs from regenerative climbs (:mod:`immunochain.simulate`);
this module is the reference those paths are checked against. It shares
no simulation code with them, and the package does not import it.
"""

from __future__ import annotations

import numpy as np

from .models import (
    COLUMN_ZERO,
    ENTRY_SET,
    ROW_SET,
    MatrixEvent,
    MatrixParams,
    MatrixState,
    SingleColumnParams,
    apply_event,
    enumerate_rates,
)
from .rng import replicate_rng
from .simulate import STOP_COLUMN_REACHES_M, STOP_FIRST_FULL_COLUMN, SimulationConfig, Trajectory

__all__ = ["column_gillespie", "matrix_gillespie"]


def column_gillespie(params: SingleColumnParams, config: SimulationConfig, start: int = 0) -> Trajectory:
    """One single-column run, stepped on :func:`models.enumerate_rates`.

    ``config`` and ``start`` mean what they mean to
    :func:`simulate.simulate_single_column`, and the run draws from the
    stream keyed by ``(master_seed, replicate_index)``, though not the same
    draws. A ``column_reaches_m`` run without a horizon steps until it
    reaches M, however long that takes.
    """
    if config.stop_condition == STOP_FIRST_FULL_COLUMN:
        raise ValueError("first_full_column applies to the matrix chain; use column_reaches_m")
    if not 0 <= start <= params.M:
        raise ValueError(f"start must lie in [0, {params.M}], got {start!r}")
    rng = replicate_rng(config.master_seed, config.replicate_index)
    stop_on_hit = config.stop_condition == STOP_COLUMN_REACHES_M

    k, t = start, 0.0
    tau = 0.0 if k == params.M else None
    times, values = [0.0], [k]
    while not (stop_on_hit and tau is not None):
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
    A ``first_full_column`` run without a horizon steps until a column
    fills, however long that takes.
    """
    if config.stop_condition == STOP_COLUMN_REACHES_M:
        raise ValueError("column_reaches_m applies to the single-column chain; use first_full_column")
    M, N = params.M, params.N
    state = MatrixState.zeros(M, N) if start is None else start
    if (state.M, state.N) != (M, N):
        raise ValueError("start state shape does not match parameters")
    rng = replicate_rng(config.master_seed, config.replicate_index)
    stop_on_hit = config.stop_condition == STOP_FIRST_FULL_COLUMN
    total = params.total_rate
    row_share = params.q / total
    row_or_reset_share = (params.q + params.p) / total

    t = 0.0
    tau = 0.0 if state.all_ones_count else None
    events: list[MatrixEvent] = []
    times, values = [0.0], [state.all_ones_count]
    while not (stop_on_hit and tau is not None):
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
        if state.all_ones_count != values[-1]:
            times.append(t)
            values.append(state.all_ones_count)
        if tau is None and state.all_ones_count:
            tau = t

    trajectory = Trajectory(
        tau=tau,
        end_time=t,
        end_value=state.all_ones_count,
        n_events=len(events),
        series_times=np.array(times) if config.record_series else None,
        series_values=np.array(values, dtype=np.int64) if config.record_series else None,
    )
    return trajectory, events, state
