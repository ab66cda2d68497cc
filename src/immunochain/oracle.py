"""Independent brute-force ground truth on small instances.

Everything here favours obvious correctness over speed: dense linear
algebra for stationary laws and first-passage moments, and exact integer
arithmetic for the single-column first passage (the elimination a dense
solve would do, on the generator scaled to integer rates, checked against
plain Fraction elimination in the tests) and for the coupon-collector
count (the Stirling recurrence, itself checked against full enumeration in
the tests). These are the references the closed forms and samplers are
validated against before being trusted at scale, so none of them share
code with the quantities they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np

from .models import MatrixParams, SingleColumnParams

__all__ = [
    "DenseGenerator",
    "single_column_generator",
    "matrix_generator",
    "stationary_solve",
    "hitting_moments",
    "single_column_hitting_means",
    "single_column_hitting_moments_exact",
    "coupon_enumerate",
]

_ROW_SUM_TOL = 1e-12
_RESIDUAL_TOL = 1e-10

# State spaces above this are too big to enumerate densely.
_MAX_STATES = 1 << 16

# The exact first passage is refused above this M: its integers grow
# linearly in M and its cost about as M**3, to hours at M = 10**4.
_MAX_EXACT_M = 512


@dataclass
class DenseGenerator:
    """Dense CTMC generator: off-diagonal rates with diagonal = -row sum."""

    states: list
    rate_matrix: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.rate_matrix, dtype=float)
        n = len(self.states)
        if Q.shape != (n, n):
            raise ValueError(f"rate matrix shape {Q.shape} does not match {n} states")
        off = Q.copy()
        np.fill_diagonal(off, 0.0)
        if (off < 0).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q.sum(axis=1)).max() > _ROW_SUM_TOL * scale:
            raise ValueError("generator rows must sum to zero")
        self.rate_matrix = Q

    @property
    def n_states(self) -> int:
        return len(self.states)


def single_column_generator(params: SingleColumnParams) -> DenseGenerator:
    """Dense generator of the single-column chain on states 0..M."""
    M = params.M
    Q = np.zeros((M + 1, M + 1))
    for k in range(M + 1):
        if k < M:
            Q[k, k + 1] += params.alpha * params.q * (1.0 - k / M)
        if k > 0:
            Q[k, 0] += params.p
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return DenseGenerator(states=list(range(M + 1)), rate_matrix=Q)


def matrix_generator(params: MatrixParams) -> DenseGenerator:
    """Dense generator of the matrix chain over all 2^(M*N) binary states.

    States are integers whose bit ``i*N + j`` is entry (i, j), matching
    ``MatrixState.to_index``. Only feasible for M*N <= 16.
    """
    M, N = params.M, params.N
    if M * N > 16:
        raise ValueError(f"matrix state space 2^{M * N} exceeds the enumeration cap")
    n = 1 << (M * N)
    row_bits = [sum(1 << (i * N + j) for j in range(N)) for i in range(M)]
    col_bits = [sum(1 << (i * N + j) for i in range(M)) for j in range(N)]
    q_row = params.q / M
    p_col = params.p / N
    lam_entry = params.lambda_m / M

    Q = np.zeros((n, n))
    for s in range(n):
        for i in range(M):
            t = s | row_bits[i]
            if t != s:
                Q[s, t] += q_row
        for j in range(N):
            t = s & ~col_bits[j]
            if t != s:
                Q[s, t] += p_col
        if lam_entry > 0:
            for pos in range(M * N):
                bit = 1 << pos
                if not s & bit:
                    Q[s, s | bit] += lam_entry
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return DenseGenerator(states=list(range(n)), rate_matrix=Q)


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label of every vertex (Tarjan).

    Iterative, so a long chain of states cannot exhaust Python's
    recursion limit. ``succ[v]`` lists the heads of the edges out of v.
    """
    n = len(succ)
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, heads = work[-1]
            for w in heads:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if label[w] < 0:  # still on the stack: same component as v
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return label


def _closed_classes(Q: np.ndarray) -> tuple[int, np.ndarray]:
    """Closed communicating classes of the positive-rate digraph.

    Returns ``(count, member_mask)`` where the mask marks states that
    belong to some closed class (the recurrent states).
    """
    edges = Q > 0
    np.fill_diagonal(edges, False)
    labels = np.array(_strong_components([np.flatnonzero(row).tolist() for row in edges]))
    src, dst = np.nonzero(edges)
    has_exit = np.zeros(labels.max() + 1, dtype=bool)
    has_exit[labels[src][labels[src] != labels[dst]]] = True
    closed = ~has_exit
    return int(np.count_nonzero(closed)), closed[labels]


def stationary_solve(generator: DenseGenerator) -> np.ndarray:
    """Solve pi Q = 0, sum(pi) = 1 by state-elimination (GTH).

    The chain must have a unique closed communicating class (transient
    states are allowed and receive mass zero). Chains with several closed
    classes have no unique stationary law and are rejected.

    The Grassmann-Taksar-Heyman elimination uses no subtractions, so
    every entry of the result carries a small relative error even when
    it is many orders of magnitude below the largest - which plain LU
    cannot guarantee and which the entrywise comparisons here need.
    """
    Q = generator.rate_matrix
    n = generator.n_states
    if n > _MAX_STATES:
        raise ValueError("state space too large for a dense solve")
    n_closed, recurrent = _closed_classes(Q)
    if n_closed != 1:
        raise ValueError(
            f"chain has {n_closed} closed communicating classes; stationary law is not unique"
        )
    # Order the closed class first so every elimination pivot is positive;
    # transient states then provably receive zero mass on back-substitution.
    order = np.concatenate([np.flatnonzero(recurrent), np.flatnonzero(~recurrent)])
    A = Q[np.ix_(order, order)].copy()
    np.fill_diagonal(A, 0.0)

    outflow = np.zeros(n)  # total rate of state m into lower states at elimination
    for m in range(n - 1, 0, -1):
        s = A[m, :m].sum()
        if s <= 0.0:
            raise ValueError("elimination pivot vanished; chain structure is degenerate")
        outflow[m] = s
        A[m, :m] /= s
        A[:m, :m] += np.outer(A[:m, m], A[m, :m])

    pi_ordered = np.zeros(n)
    pi_ordered[0] = 1.0
    for m in range(1, n):
        pi_ordered[m] = pi_ordered[:m] @ A[:m, m] / outflow[m]
    pi_ordered /= pi_ordered.sum()

    pi = np.zeros(n)
    pi[order] = pi_ordered
    residual = float(np.abs(pi @ Q).max())
    if residual > _RESIDUAL_TOL:
        raise ValueError(f"stationary residual {residual:.3e} exceeds {_RESIDUAL_TOL}")
    return pi


def _reaches(Q: np.ndarray, target: set[int]) -> np.ndarray:
    """Boolean mask of states from which the target set is reachable."""
    n = Q.shape[0]
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    reached = np.zeros(n, dtype=bool)
    stack = list(target)
    for s in target:
        reached[s] = True
    preds = [np.flatnonzero(off[:, v] > 0) for v in range(n)]
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if not reached[u]:
                reached[u] = True
                stack.append(int(u))
    return reached


def hitting_moments(generator: DenseGenerator, target_set) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of the continuous-time hitting time.

    Solves the absorbing linear systems ``Q m = -1`` and ``Q s = -2m``
    restricted to non-target states; entries on the target are zero.
    Returns ``(mean_vector, second_moment_vector)`` indexed like
    ``generator.states``.

    Double precision limits this generic solve: when the moments are
    astronomically large the relative accuracy degrades with the
    condition number. :func:`single_column_hitting_moments_exact` covers
    that regime for the single-column chain with exact rationals.
    """
    Q = generator.rate_matrix
    n = generator.n_states
    target = {int(t) for t in target_set}
    if not target:
        raise ValueError("target set must be nonempty")
    if any(not 0 <= t < n for t in target):
        raise ValueError("target indices out of range")
    if not _reaches(Q, target).all():
        raise ValueError("target is not reachable from every state")
    rest = [s for s in range(n) if s not in target]
    mean = np.zeros(n)
    second = np.zeros(n)
    if rest:
        Qtt = Q[np.ix_(rest, rest)]
        try:
            m = np.linalg.solve(Qtt, -np.ones(len(rest)))
            s = np.linalg.solve(Qtt, -2.0 * m)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"first-passage system is singular: {exc}") from exc
        mean[rest] = m
        second[rest] = s
    return mean, second


def _first_passage_integers(params: SingleColumnParams, rhs: list[int]) -> tuple[list[int], int]:
    """Solve ``-Q x = rhs`` off the target M in integers: ``x_i = X[i] / det``.

    ``rhs`` holds an integer right-hand side for each start state 0..M-1.
    The float rates are taken at their exact dyadic values, and scaling the
    generator by ``S = den(alpha) * den(p) * M`` makes every rate an
    integer: ``U_k = num(alpha) * (den(p) - num(p)) * (M - k)`` up from k
    and ``P = num(p) * den(alpha) * M`` back to 0. Eliminating from M-1
    downward gives ``x_i = (C_i + D_i * x_0) / Den_i``, closed by the
    equation at 0, with integer ``C_i``, ``D_i`` over the running product
    ``Den_i = prod_{j >= i} (U_j + P)``. The product of the pivots is the
    determinant ``det = U_0 * (Den_1 - D_1)`` of the scaled system, so by
    Cramer's rule every ``X[i] = det * x_i`` is an integer; the equations
    read upward from 0 give each one by an exact division by ``U_i``. No
    step takes a gcd, and the same equations give ``X[M] = 0`` as a check.
    """
    M = int(params.M)
    if M > _MAX_EXACT_M:
        raise ValueError(f"M={M} exceeds {_MAX_EXACT_M} for the exact first-passage solve")
    an, ad = Fraction(params.alpha).as_integer_ratio()
    pn, pd = Fraction(params.p).as_integer_ratio()
    b = [ad * pd * M * r for r in rhs]
    up = [an * (pd - pn) * (M - k) for k in range(M)]
    reset = pn * ad * M
    C, D, Den = 0, 0, 1
    for i in range(M - 1, 0, -1):
        C, D, Den = b[i] * Den + up[i] * C, up[i] * D + reset * Den, (up[i] + reset) * Den
    det = up[0] * (Den - D)
    X = [b[0] * Den + up[0] * C]
    X.append(X[0] - b[0] * (Den - D))  # U_0 * (x_0 - x_1) = b_0, times det / U_0
    for i in range(1, M):
        X.append(((up[i] + reset) * X[i] - reset * X[0] - b[i] * det) // up[i])
    if X.pop() != 0:
        raise ArithmeticError("exact first-passage solve does not reach 0 at M")
    return X, det


def single_column_hitting_means(params: SingleColumnParams) -> np.ndarray:
    """Exact mean hitting times of M from starts 0..M-1, correctly rounded.

    The same integer solve as :func:`single_column_hitting_moments_exact`,
    read as doubles: int true division rounds correctly, so each entry
    equals ``float`` of the exact Fraction without building one.
    """
    numerators, det = _first_passage_integers(params, [1] * params.M)
    return np.array([x / det for x in numerators])


def single_column_hitting_moments_exact(
    params: SingleColumnParams, with_second_moment: bool = True
) -> tuple[list[Fraction], list[Fraction] | None]:
    """Exact first-passage moments of the single-column chain, to state M.

    Solves the continuous-time systems ``Q m = -1`` and ``Q s = -2m`` with
    no roundoff at all (the float rates are taken at their exact dyadic
    values), by fraction-free integer elimination (Bareiss 1968) of the
    generator scaled to integer rates: O(M) steps from state M-1 downward
    and one closing equation at 0, then every unknown as an integer over
    the system's determinant (see ``_first_passage_integers``). Only the
    returned entries are reduced to lowest terms. This is the reference
    for regimes where the moments overflow what a double-precision dense
    solve can certify.

    Returns ``(means, second_moments)`` as Fractions indexed by start
    state 0..M (zero at the absorbed state M). The second-moment solve
    puts ``2m`` over the lcm of the means' denominators; it roughly
    doubles the cost and can be skipped when only means are compared.
    The integers grow linearly in M, so the cost grows about as M**3:
    M above ``_MAX_EXACT_M`` raises ``ValueError`` at once.
    """
    M = params.M
    X, det = _first_passage_integers(params, [1] * M)
    means = [Fraction(x, det) for x in X] + [Fraction(0)]
    if not with_second_moment:
        return means, None
    common = lcm(*(m.denominator for m in means))
    rhs = [2 * m.numerator * (common // m.denominator) for m in means[:M]]
    Y, det = _first_passage_integers(params, rhs)
    den = det * common
    seconds = [Fraction(y, den) for y in Y] + [Fraction(0)]
    return means, seconds


def _surjection_count_dp(n_urns: int, k: int) -> int:
    """Exact count of surjections [k] -> [n_urns] via the Stirling recurrence."""
    # S(r, j): surjection-partition table row by row; exact integers.
    prev = [1] + [0] * n_urns  # r = 0
    for _ in range(k):
        cur = [0] * (n_urns + 1)
        for j in range(1, n_urns + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    surj = prev[n_urns]
    for j in range(2, n_urns + 1):
        surj *= j
    return surj


def _surjection_count_brute(n_urns: int, k: int) -> int:
    """Count surjective draw tuples by full enumeration (tiny cases only).

    Not on any production path: it is the tests' reference for
    :func:`_surjection_count_dp`.
    """
    full = frozenset(range(n_urns))
    return sum(1 for tup in product(range(n_urns), repeat=k) if frozenset(tup) == full)


def coupon_enumerate(N: int, k: int) -> Fraction:
    """Exact probability that k uniform draws from N urns hit every urn.

    Counts surjective draw sequences in exact integer arithmetic through
    the Stirling-number recurrence, O(N*k) integer steps; the tests pin it
    to full enumeration of the ``N**k`` draw tuples on small cases.
    Returns a Fraction; floats appear only at comparison boundaries in
    callers.
    """
    if N < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    if k > 100_000:
        raise ValueError("k too large for exact enumeration")
    if k < N:
        return Fraction(0)
    return Fraction(_surjection_count_dp(N, k), N**k)
