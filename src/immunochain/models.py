"""Parameter records, chain states, and transition semantics.

Two continuous-time Markov models of gradual learning under resets are
defined here.

Single-column chain
    A count ``k`` in ``{0, ..., M}`` of learned attributes. It moves
    ``k -> k+1`` at rate ``alpha*q*(1 - k/M)`` and resets ``k -> 0`` at
    rate ``p`` (for ``k > 0``; the reset from 0 is a self-loop and is
    omitted because self-loops do not change a chain's law).

Matrix chain
    An ``M x N`` binary matrix. Independent exponential clocks trigger
    three event kinds:

    * ``row_set``    - a whole row becomes 1,   rate ``q/M`` per row;
    * ``column_zero``- a whole column becomes 0, rate ``p/N`` per column;
    * ``entry_set``  - one entry becomes 1,      rate ``lambda_m/M`` per entry.

    Column ``j`` models one component; its ``M`` entries are the
    attributes still to be learned for it.

Indices are 0-based throughout. All types are plain values and the
operations are pure functions, safe to call from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SingleColumnParams",
    "MatrixParams",
    "ColumnState",
    "MatrixState",
    "MatrixEvent",
    "ROW_SET",
    "COLUMN_ZERO",
    "ENTRY_SET",
    "row_set",
    "column_zero",
    "entry_set",
    "enumerate_rates",
    "apply_event",
    "compose_closed_form",
]

# A single-column state is just the count of ones; kept as a plain int.
ColumnState = int

ROW_SET = "row_set"
COLUMN_ZERO = "column_zero"
ENTRY_SET = "entry_set"


@dataclass(frozen=True)
class SingleColumnParams:
    """Validated parameters of the single-column chain.

    Attributes
    ----------
    M : int
        Number of attributes (states run 0..M).
    alpha : float
        Speed multiplier of the upward updates.
    p : float
        Reset rate, in (0, 1); ``q = 1 - p`` exactly.
    """

    M: int
    alpha: float
    p: float

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly in (0, 1), got {self.p!r}")
        if not self.alpha * self.q > 0.0:
            raise ValueError(f"alpha*q underflows to 0 at alpha={self.alpha!r}, p={self.p!r}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def a(self) -> float:
        """Balance exponent p*M / (alpha*q); controls the zeros/ones regime."""
        return self.p * self.M / (self.alpha * self.q)

    @property
    def uniformization_rate(self) -> float:
        """Common total rate p + alpha*q of the uniformized jump chain."""
        return self.p + self.alpha * self.q

    @classmethod
    def with_a(cls, M: int, a: float, alpha: float = 1.0) -> "SingleColumnParams":
        """Parameters with a prescribed balance exponent ``a``.

        Solves ``p*M = a*alpha*(1-p)`` for p, which keeps ``a`` fixed as
        M varies - the scaling regime of the asymptotic statements.
        """
        if a <= 0:
            raise ValueError(f"a must be positive, got {a!r}")
        p = a * alpha / (M + a * alpha)
        return cls(M=M, alpha=alpha, p=p)


@dataclass(frozen=True)
class MatrixParams:
    """Validated parameters of the M x N matrix chain.

    ``lambda_m`` is the per-entry learning rate (the mutation channel);
    ``lambda_m = 0`` switches that channel off entirely.
    """

    M: int
    N: int
    p: float
    lambda_m: float = 0.0

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly in (0, 1), got {self.p!r}")
        if not (np.isfinite(self.lambda_m) and self.lambda_m >= 0):
            raise ValueError(f"lambda_m must be nonnegative, got {self.lambda_m!r}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def q_tilde(self) -> float:
        """Combined per-attribute fill rate q + lambda_m."""
        return self.q + self.lambda_m

    @property
    def b(self) -> float:
        return self.p * self.M / (self.q * self.N)

    @property
    def b_tilde(self) -> float:
        return self.p * self.M / (self.q_tilde * self.N)

    @property
    def total_rate(self) -> float:
        """Total event rate q + p + N*lambda_m, constant over states."""
        return self.p + self.q + self.N * self.lambda_m


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


def row_set(row: int, time: float = 0.0) -> MatrixEvent:
    return MatrixEvent(ROW_SET, row=row, time=time)


def column_zero(col: int, time: float = 0.0) -> MatrixEvent:
    return MatrixEvent(COLUMN_ZERO, col=col, time=time)


def entry_set(row: int, col: int, time: float = 0.0) -> MatrixEvent:
    return MatrixEvent(ENTRY_SET, row=row, col=col, time=time)


@dataclass(frozen=True, eq=False)
class MatrixState:
    """Binary matrix state with cached per-column one-counts.

    The cache exists because the only observable the simulator needs per
    event is "is some column full", which is O(1) with counts. Arrays
    are marked read-only; build new states through the constructors or
    :func:`apply_event`.
    """

    entries: np.ndarray
    column_counts: np.ndarray

    @classmethod
    def zeros(cls, M: int, N: int) -> "MatrixState":
        if M < 1 or N < 1:
            raise ValueError("matrix dimensions must be positive")
        return cls._wrap(np.zeros((M, N), dtype=np.uint8))

    @classmethod
    def from_entries(cls, entries) -> "MatrixState":
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("entries must be a nonempty 2-D array")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("entries must be 0/1 valued")
        return cls._wrap(arr.astype(np.uint8))

    @classmethod
    def _wrap(cls, entries: np.ndarray) -> "MatrixState":
        counts = entries.sum(axis=0, dtype=np.int64)
        entries.flags.writeable = False
        counts.flags.writeable = False
        return cls(entries=entries, column_counts=counts)

    @property
    def M(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def all_ones_count(self) -> int:
        """Number of columns that are entirely ones."""
        return int(np.count_nonzero(self.column_counts == self.M))

    def counts_consistent(self) -> bool:
        """Full recount of the cache; used by consistency checks."""
        return bool(np.array_equal(self.entries.sum(axis=0), self.column_counts))

    def to_index(self) -> int:
        """Pack the matrix into an integer, bit ``i*N + j`` for entry (i, j)."""
        bits = self.entries.reshape(-1)
        out = 0
        for pos in np.flatnonzero(bits):
            out |= 1 << int(pos)
        return out

    @classmethod
    def from_index(cls, M: int, N: int, index: int) -> "MatrixState":
        if not 0 <= index < (1 << (M * N)):
            raise ValueError("state index out of range")
        flat = np.fromiter(((index >> pos) & 1 for pos in range(M * N)), dtype=np.uint8, count=M * N)
        return cls._wrap(flat.reshape(M, N))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixState):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.entries.shape, self.entries.tobytes()))


def enumerate_rates(state: ColumnState, params: SingleColumnParams) -> list[tuple[int, float]]:
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
    return MatrixState._wrap(entries)


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
    return MatrixState._wrap(entries)
