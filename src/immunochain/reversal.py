"""Perfect sampling of the matrix chain's stationary law by time reversal.

Look back in time from a stationary moment. Reversed Poisson clocks are
Poisson clocks with the same rates, so the time back to the most recent
ring of each label is exponential: R_i ~ Exp(q/M) for row i,
C_j ~ Exp(p/N) for column j and E_ij ~ Exp(lambda_m/M) for entry (i, j),
all independent. Entry (i, j) is one now exactly when row i or the entry
itself rang more recently than column j was last zeroed::

    A_ij = 1  iff  min(R_i, E_ij) < C_j

Every clock rings almost surely in finite backward time, so this race
is an exact draw from the stationary law with no step loop. Building the
entry clocks incrementally (the clock at a larger lambda_m is the
minimum of the smaller one and an independent increment) couples the
draws across entry rates so that they are entrywise monotone.

A draw that needs only the all-ones count integrates the entry clocks
out. Given the row and column clocks, the columns are independent:
column j is full when each of the m_j rows with R_i > C_j has its own
entry clock below C_j, with probability ``(1 - exp(-lambda_m C_j / M))^m_j``
(1 when m_j = 0), so one uniform per column decides it after O(M + N)
clock draws.
"""

from __future__ import annotations

import numpy as np

from .models import MatrixParams, MatrixState
from .rng import as_generator, replicate_rng
from .simulate import check_budget

__all__ = [
    "sample_invariant",
    "sample_invariant_count",
    "sample_invariant_histogram",
    "sample_invariant_coupled",
]

_BLOCK = 8192


def _race(params: MatrixParams, lambda_values, rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """``n`` backward races per entry rate, sharing row and column clocks.

    Returns one ``(n, M, N)`` boolean array per value of the nondecreasing
    ``lambda_values``. The stream is consumed as row clocks, column
    clocks, then one block of entry-clock increments per rate increase
    (none while the rate is 0). :func:`~immunochain.simulate.check_budget`
    charges the races their ``n*M*N`` entry cells per rate, times the number
    of rates, before any clock is drawn, as a matrix run's state is charged.
    """
    M, N = params.M, params.N
    check_budget(n * M * N * len(lambda_values), "entry cells of the races", "shrink M or N")
    row_rings = rng.exponential(scale=M / params.q, size=(n, M))[:, :, None]
    col_rings = rng.exponential(scale=N / params.p, size=(n, N))[:, None, :]
    first = row_rings
    out = []
    prev = 0.0
    for lam in lambda_values:
        if lam > prev:
            first = np.minimum(first, rng.exponential(scale=M / (lam - prev), size=(n, M, N)))
            prev = lam
        out.append(first < col_rings)
    return out


def sample_invariant(params: MatrixParams, seed: int | np.random.Generator) -> MatrixState:
    """One exact draw from the stationary law of the matrix chain.

    ``seed`` may be an integer or a Generator (which is advanced). A draw
    is charged its ``M*N`` entry cells (see :func:`_race`).
    """
    (ones,) = _race(params, [params.lambda_m], as_generator(seed), 1)
    return MatrixState.from_entries(ones[0])


def sample_invariant_count(params: MatrixParams, seed: int | np.random.Generator) -> int:
    """All-ones column count of one exact stationary draw, without the matrix.

    ``seed`` may be an integer or a Generator (which is advanced). The
    stream is consumed as row clocks, column clocks, then one uniform per
    column, so the count has the law of ``sample_invariant(...).all_ones_count``
    but not its value for the same seed. A draw is charged its ``M + N``
    clocks by :func:`~immunochain.simulate.check_budget` before any is drawn.
    """
    M, N = params.M, params.N
    check_budget(M + N, "clocks of one draw", "shrink M or N")
    rng = as_generator(seed)
    row_rings = np.sort(rng.exponential(scale=M / params.q, size=M))
    col_rings = rng.exponential(scale=N / params.p, size=N)
    unset = M - np.searchsorted(row_rings, col_rings, "right")  # rows older than the reset
    # A reset clock too slow for a double draws C_j = inf: then m_j = 0, and
    # the 0 * inf of lambda_m = 0 makes nan, whose 0th power is 1.
    with np.errstate(over="ignore", invalid="ignore"):
        full_prob = (-np.expm1(-params.lambda_m / M * col_rings)) ** unset
    return int(np.count_nonzero(rng.random(N) < full_prob))


def sample_invariant_histogram(params: MatrixParams, n_draws: int, master_seed: int) -> np.ndarray:
    """Counts over all 2^(M*N) states from repeated stationary draws.

    Draws from a single replicate stream keyed by ``(master_seed, 0)`` in
    blocks of races, so the batch is deterministic in
    ``(master_seed, n_draws)``. State indices follow
    :meth:`MatrixState.to_index` (bit ``i*N + j`` is entry (i, j)). Meant
    for the total-variation comparisons against the dense oracle;
    requires M*N <= 20. The batch is charged its ``n_draws*M*N`` entry
    cells by :func:`~immunochain.simulate.check_budget` before any draw.
    """
    M, N = params.M, params.N
    if M * N > 20:
        raise ValueError("histogram over all states needs M*N <= 20")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    check_budget(n_draws * M * N, "entry cells of the histogram's draws", "draw fewer")
    rng = replicate_rng(master_seed, 0)
    bits = 1 << np.arange(M * N, dtype=np.int64)
    counts = np.zeros(1 << (M * N), dtype=np.int64)
    for start in range(0, n_draws, _BLOCK):
        n = min(_BLOCK, n_draws - start)
        (ones,) = _race(params, [params.lambda_m], rng, n)
        counts += np.bincount(ones.reshape(n, M * N) @ bits, minlength=counts.size)
    return counts


def sample_invariant_coupled(
    params: MatrixParams,
    lambda_values,
    seed: int | np.random.Generator,
) -> list[MatrixState]:
    """Coupled stationary draws across increasing entry rates.

    All draws share the row and column clocks, and the entry clocks grow
    incrementally with the rate, so the draw at a larger lambda_m
    dominates entrywise. Each draw has the stationary law of the chain
    with that lambda_m (params.p, M, N fixed); with one rate equal to
    ``params.lambda_m`` it is the draw :func:`sample_invariant` makes
    from the same seed. The draws are charged their ``M*N`` entry cells
    times the number of rates (see :func:`_race`).
    """
    lams = [float(l) for l in lambda_values]
    if not lams:
        raise ValueError("need at least one lambda value")
    if any(l < 0 for l in lams):
        raise ValueError("lambda values must be nonnegative")
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda values must be nondecreasing")
    races = _race(params, lams, as_generator(seed), 1)
    return [MatrixState.from_entries(ones[0]) for ones in races]
