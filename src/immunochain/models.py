"""Parameter records and the matrix state of both chains.

Two continuous-time Markov models of gradual learning under resets are
parametrized here.

Single-column chain
    A count ``k`` in ``{0, ..., M}`` of learned attributes. It moves
    ``k -> k+1`` at rate ``alpha*q*(1 - k/M)`` and resets ``k -> 0`` at
    rate ``p`` (for ``k > 0``; the reset from 0 is a self-loop and is
    omitted because self-loops do not change a chain's law).

Matrix chain
    An ``M x N`` binary matrix. Independent exponential clocks set a
    whole row to 1 (rate ``q/M`` per row), zero a whole column (rate
    ``p/N`` per column) and set one entry to 1 (rate ``lambda_m/M`` per
    entry). Column ``j`` models one component; its ``M`` entries are the
    attributes still to be learned for it.

The step semantics, one event at a time, live with the Gillespie
references in :mod:`immunochain.reference`. Indices are 0-based
throughout. All types are plain immutable values, safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SingleColumnParams", "MatrixParams", "MatrixState"]


def _as_float(value, name: str) -> float:
    """A parameter as a float; ``ValueError`` for an integer beyond double precision."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} has {len(str(value))} digits, beyond double precision") from None


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
        if not (np.isfinite(_as_float(self.alpha, "alpha")) and self.alpha > 0):
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
        """Balance exponent p*M / (alpha*q); controls the zeros/ones regime.
        ``ValueError`` for an M beyond double precision."""
        return self.p * _as_float(self.M, "M") / (self.alpha * self.q)

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
    ``lambda_m = 0`` switches that channel off entirely. ``b`` and
    ``b_tilde`` raise ``ValueError`` for an M or N beyond double precision.
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
        if not (np.isfinite(_as_float(self.lambda_m, "lambda_m")) and self.lambda_m >= 0):
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
        return self._balance(self.q)

    @property
    def b_tilde(self) -> float:
        return self._balance(self.q_tilde)

    def _balance(self, fill_rate: float) -> float:
        return self.p * _as_float(self.M, "M") / (fill_rate * _as_float(self.N, "N"))

    @property
    def total_rate(self) -> float:
        """Total event rate q + p + N*lambda_m, constant over states."""
        return self.p + self.q + self.N * self.lambda_m


@dataclass(frozen=True, eq=False)
class MatrixState:
    """Binary ``M x N`` matrix state of the matrix chain.

    ``entries`` is a read-only uint8 array; the constructor takes it over
    and marks it so. Build states through :meth:`zeros`,
    :meth:`from_entries` or :meth:`from_index`, which check their input.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    @classmethod
    def zeros(cls, M: int, N: int) -> "MatrixState":
        if M < 1 or N < 1:
            raise ValueError("matrix dimensions must be positive")
        return cls(np.zeros((M, N), dtype=np.uint8))

    @classmethod
    def from_entries(cls, entries) -> "MatrixState":
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("entries must be a nonempty 2-D array")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("entries must be 0/1 valued")
        return cls(arr.astype(np.uint8))

    @property
    def M(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def column_counts(self) -> np.ndarray:
        """Number of ones in each column."""
        return self.entries.sum(axis=0, dtype=np.int64)

    @property
    def all_ones_count(self) -> int:
        """Number of columns that are entirely ones."""
        return int(np.count_nonzero(self.entries.all(axis=0)))

    def to_index(self) -> int:
        """Pack the matrix into an integer, bit ``i*N + j`` for entry (i, j)."""
        bits = self.entries.reshape(-1)
        out = 0
        for pos in np.flatnonzero(bits):
            out |= 1 << int(pos)
        return out

    @classmethod
    def from_index(cls, M: int, N: int, index: int) -> "MatrixState":
        if M < 1 or N < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 0 <= index < (1 << (M * N)):
            raise ValueError("state index out of range")
        flat = np.fromiter(((index >> pos) & 1 for pos in range(M * N)), dtype=np.uint8, count=M * N)
        return cls(flat.reshape(M, N))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixState):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.entries.shape, self.entries.tobytes()))

