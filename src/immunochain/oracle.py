"""Independent brute-force ground truth on small instances.

Everything here favours obvious correctness over speed: dense linear
algebra for closed classes, stationary laws and first-passage moments,
and exact integer arithmetic for the single-column first passage (the
elimination a dense solve would do, on the generator scaled to integer
rates, checked against plain Fraction elimination in the tests) and for
the coupon-collector count (the Stirling recurrence, itself checked
against full enumeration in the tests). These are the references the
closed forms and samplers are validated against before being trusted at
scale, so none of them share code with the quantities they check.

The stationary solve also takes a stack of generators over the same
states. The stack is the same elimination, run over a leading axis: one
generator is a stack of one, so GTH stays the only stationary solver,
and a stack only spares the per-call cost of solving many small chains.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, lcm, log2

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

# Dense work is refused above this many states (M*N <= 12 for the matrix),
# before any n x n array exists: the GTH solve's n**3 takes 12 s at 2048
# states and 90 s at 4096 on a 2-vCPU x86-64 host.
_MAX_STATES = 1 << 12

# The exact first passage is refused above this M: its integers grow
# linearly in M and its cost about as M**3, to hours at M = 10**4.
_MAX_EXACT_M = 512

# The exact moments are refused when M * b**2 exceeds this, b the summed
# bit lengths of the scaled pivots (about the determinant's): each returned
# Fraction takes one gcd, quadratic in b. A tiny p has a long dyadic
# denominator: at M = 128, p = 1e-320, b is 138k bits, M * b**2 = 2.4e12,
# and both moments take about 27 s. (M, alpha, p) = (512, 1, 0.1), at
# 5.4e11, takes 6 s on a 2-vCPU x86-64 host.
_MAX_EXACT_COST = 10**12


@dataclass
class DenseGenerator:
    """Dense CTMC generator: off-diagonal rates with diagonal = -row sum.

    ``rate_matrix`` is one ``(n, n)`` generator over ``states`` or a
    ``(k, n, n)`` stack of k >= 1 generators over the same states. Every
    check runs on each member: finite rates, nonnegative off the diagonal,
    rows summing to zero relative to the member's largest rate.
    """

    states: list
    rate_matrix: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.rate_matrix, dtype=float)
        n = len(self.states)
        if Q.ndim not in (2, 3) or Q.shape[-2:] != (n, n) or Q.size == 0:
            raise ValueError(f"rate matrix shape {Q.shape} is not {n} x {n} or a nonempty stack of {n} x {n}")
        if not np.isfinite(Q).all():
            raise ValueError("rates must be finite")
        if ((Q < 0) & ~np.eye(n, dtype=bool)).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        scale = np.maximum(1.0, np.abs(Q).max(axis=(-2, -1)))
        if (np.abs(Q.sum(axis=-1)).max(axis=-1) > _ROW_SUM_TOL * scale).any():
            raise ValueError("generator rows must sum to zero")
        self.rate_matrix = Q

    @property
    def n_states(self) -> int:
        return len(self.states)


def _check_dense(n_states: int) -> None:
    if n_states > _MAX_STATES:
        raise ValueError(f"{n_states} states exceed the dense cap of {_MAX_STATES}")


def single_column_generator(params: SingleColumnParams | Sequence[SingleColumnParams]) -> DenseGenerator:
    """Dense generator of the single-column chain on states 0..M.

    Given a sequence of parameter records that share one M, returns their
    generators in order as one ``(k, M + 1, M + 1)`` stack.
    """
    stacked = not isinstance(params, SingleColumnParams)
    members = list(params) if stacked else [params]
    if not members or any(m.M != members[0].M for m in members):
        raise ValueError("a stack of single-column generators needs one or more chains that share one M")
    M = members[0].M
    _check_dense(M + 1)
    k, diag = np.arange(M), np.arange(M + 1)
    Q = np.zeros((len(members), M + 1, M + 1))
    Q[:, k, k + 1] = np.array([m.alpha * m.q for m in members])[:, None] * (1.0 - k / M)
    Q[:, 1:, 0] = np.array([m.p for m in members])[:, None]
    Q[:, diag, diag] -= Q.sum(axis=2)
    return DenseGenerator(states=list(range(M + 1)), rate_matrix=Q if stacked else Q[0])


def matrix_generator(params: MatrixParams) -> DenseGenerator:
    """Dense generator of the matrix chain over all 2^(M*N) binary states.

    States are integers whose bit ``i*N + j`` is entry (i, j), matching
    ``MatrixState.to_index``. Refused when 2^(M*N) exceeds ``_MAX_STATES``.
    """
    M, N = params.M, params.N
    if M * N > log2(_MAX_STATES):
        raise ValueError(f"matrix state space 2^{M * N} exceeds the dense cap of {_MAX_STATES} states")
    n = 1 << (M * N)
    s = np.arange(n)[:, None]
    entry_bits = 1 << np.arange(M * N)
    grid = entry_bits.reshape(M, N)  # a row's or column's mask is the sum of its bits

    Q = np.zeros((n, n))
    # Within one move kind every target of a state is distinct. A row fill
    # that sets one entry shares its target with that entry's move, and gets
    # the row rate first, then the entry rate.
    for targets, rate in (
        (s | grid.sum(axis=1), params.q / M),
        (s & ~grid.sum(axis=0), params.p / N),
        (s | entry_bits, params.lambda_m / M),
    ):
        src, move = np.nonzero(targets != s)
        Q[src, targets[src, move]] += rate
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return DenseGenerator(states=list(range(n)), rate_matrix=Q)


def _reachability(Q: np.ndarray) -> np.ndarray:
    """``reach[..., s, t]``: t is reachable from s along positive rates (s
    from itself), for one generator or each of a stack.

    Squares the 0/1 one-step matrices, identity included, until they stop
    changing: about log2(d) + 1 products for digraphs of diameter d.
    """
    reach = (Q > 0).astype(np.float32)
    diag = np.arange(Q.shape[-1])
    reach[..., diag, diag] = 1.0
    while True:
        longer = (reach @ reach > 0).astype(np.float32)
        if np.array_equal(longer, reach):
            return reach > 0
        reach = longer


def _closed_classes(Q: np.ndarray) -> tuple[int | np.ndarray, np.ndarray]:
    """Closed communicating classes of the positive-rate digraph.

    Returns ``(count, member_mask)`` where the mask marks states that
    belong to some closed class (the recurrent states): those that every
    state they reach reaches back. Each class is counted at its lowest
    state. On a ``(k, n, n)`` stack the count is an array of k counts and
    the mask is ``(k, n)``.
    """
    reach = _reachability(Q)
    back = np.swapaxes(reach, -1, -2)
    recurrent = ~(reach > back).any(axis=-1)  # reaches no state that does not reach back
    counts = (recurrent & (np.argmax(reach & back, axis=-1) == np.arange(Q.shape[-1]))).sum(axis=-1)
    return (int(counts) if Q.ndim == 2 else counts), recurrent


def stationary_solve(generator: DenseGenerator) -> np.ndarray:
    """Solve pi Q = 0, sum(pi) = 1 by state-elimination (GTH).

    The chain must have a unique closed communicating class (transient
    states are allowed and receive mass zero). Chains with several closed
    classes have no unique stationary law and are rejected.

    The Grassmann-Taksar-Heyman elimination uses no subtractions, so
    every entry of the result carries a small relative error even when
    it is many orders of magnitude below the largest - which plain LU
    cannot guarantee and which the entrywise comparisons here need.

    A ``(k, n, n)`` stack is solved as one: the same elimination over a
    leading axis, each member in its own order, into a ``(k, n)`` array
    whose row i is what member i gives alone. One generator is a stack of
    one. The whole stack is refused if any member is.
    """
    Q = generator.rate_matrix
    stack = Q if Q.ndim == 3 else Q[None]
    k, n = stack.shape[:2]
    _check_dense(n)
    n_closed, recurrent = _closed_classes(stack)
    if (n_closed != 1).any():
        raise ValueError(
            f"chain has {n_closed[n_closed != 1][0]} closed communicating classes; stationary law is not unique"
        )
    # Order each member's closed class first so every elimination pivot is
    # positive; transient states then provably receive zero mass on
    # back-substitution.
    member = np.arange(k)[:, None]
    order = np.argsort(~recurrent, axis=1, kind="stable")
    A = stack[member[:, :, None], order[:, :, None], order[:, None, :]]
    diag = np.arange(n)
    A[:, diag, diag] = 0.0

    outflow = np.zeros((k, n))  # total rate of state m into lower states at elimination
    for m in range(n - 1, 0, -1):
        s = A[:, m, :m].sum(axis=1)
        if not s.min() > 0.0:
            raise ValueError("elimination pivot vanished; chain structure is degenerate")
        outflow[:, m] = s
        A[:, m, :m] /= s[:, None]
        A[:, :m, :m] += A[:, :m, m, None] * A[:, None, m, :m]

    pi_ordered = np.zeros((k, n))
    pi_ordered[:, 0] = 1.0
    for m in range(1, n):
        pi_ordered[:, m] = (pi_ordered[:, None, :m] @ A[:, :m, m, None])[:, 0, 0] / outflow[:, m]
    pi_ordered /= pi_ordered.sum(axis=1, keepdims=True)

    pi = np.zeros((k, n))
    pi[member, order] = pi_ordered
    residual = np.abs(pi[:, None, :] @ stack).max()
    if not residual <= _RESIDUAL_TOL:  # a NaN residual fails too
        raise ValueError(f"stationary residual {residual:.3e} exceeds {_RESIDUAL_TOL}")
    return pi if Q.ndim == 3 else pi[0]


def hitting_moments(generator: DenseGenerator, target_set) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of the continuous-time hitting time.

    Solves the absorbing linear systems ``Q m = -1`` and ``Q s = -2m``
    restricted to non-target states; entries on the target are zero.
    Returns ``(mean_vector, second_moment_vector)`` indexed like
    ``generator.states``. The target must be reachable from every state.

    Double precision limits this generic solve: when the moments are
    astronomically large the relative accuracy degrades with the
    condition number. :func:`single_column_hitting_moments_exact` covers
    that regime for the single-column chain with exact rationals.
    """
    Q = generator.rate_matrix
    if Q.ndim != 2:
        raise ValueError("hitting_moments takes one generator, not a stack")
    n = generator.n_states
    _check_dense(n)
    target = {int(t) for t in target_set}
    if not target:
        raise ValueError("target set must be nonempty")
    if any(not 0 <= t < n for t in target):
        raise ValueError("target indices out of range")
    if not _reachability(Q)[:, list(target)].any(axis=1).all():
        raise ValueError("target is not reachable from every state")
    rest = [s for s in range(n) if s not in target]
    mean, second = np.zeros(n), np.zeros(n)
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


def _scaled_rates(params: SingleColumnParams) -> tuple[int, list[int], int]:
    """The generator times ``S = den(alpha) * den(p) * M``: ``(S, U, P)``,
    integer rates ``U_k`` up from k and ``P`` back to 0."""
    M = int(params.M)
    if M > _MAX_EXACT_M:
        raise ValueError(f"M={M} exceeds {_MAX_EXACT_M} for the exact first-passage solve")
    an, ad = Fraction(params.alpha).as_integer_ratio()
    pn, pd = Fraction(params.p).as_integer_ratio()
    return ad * pd * M, [an * (pd - pn) * (M - k) for k in range(M)], pn * ad * M


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
    scale, up, reset = _scaled_rates(params)
    M = len(up)
    b = [scale * r for r in rhs]
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
    equals ``float`` of the exact Fraction without building one. Means
    beyond double precision raise ``ValueError``.
    """
    numerators, det = _first_passage_integers(params, [1] * params.M)
    try:
        return np.array([x / det for x in numerators])
    except OverflowError:
        raise ValueError(f"{params}: the exact mean hitting time overflows double precision")


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
    M above ``_MAX_EXACT_M`` raises ``ValueError`` at once, and so does a
    point whose estimated Fraction cost exceeds ``_MAX_EXACT_COST``.
    """
    M = params.M
    _, up, reset = _scaled_rates(params)
    bits = sum((u + reset).bit_length() for u in up)
    if M * bits**2 > _MAX_EXACT_COST:
        raise ValueError(
            f"{params}: the exact moments' integers reach about {bits} bits, and M * bits**2 = "
            f"{M * bits**2:.1e} exceeds {_MAX_EXACT_COST:.0e}"
        )
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
    return prev[n_urns] * factorial(n_urns)


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
