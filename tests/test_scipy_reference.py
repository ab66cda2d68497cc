"""The package's stdlib numerics pinned against scipy, their test-only reference.

The package imports no scipy module (a subprocess test in
``test_simulate.py`` checks that). Each replacement is compared here with
the scipy routine it stands in for, at a tolerance fixed before the run.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import gammaln
from scipy.stats import chi2, chisquare, norm

from immunochain.analytics import invariant_pmf
from immunochain.models import MatrixParams, SingleColumnParams
from immunochain.oracle import _closed_classes, matrix_generator, single_column_generator
from immunochain.rng import replicate_rng
from immunochain.stats import _chi2_sf, chi_square_gof, estimate_mean

EPS = np.finfo(float).eps


def closed_classes_scipy(Q):
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    adj = csr_matrix(off > 0)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    src, dst = adj.nonzero()
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[labels[src][labels[src] != labels[dst]]] = True
    closed = ~has_exit
    return int(np.count_nonzero(closed)), closed[labels]


def random_rates(rng, n):
    """A generator-shaped matrix whose digraph mixes closed classes and transient states."""
    density = rng.choice([0.02, 0.05, 0.1, 0.2, 0.5])
    rates = rng.random((n, n)) * (rng.random((n, n)) < density)
    if rng.random() < 0.5:
        # Cut the states into blocks and let edges only run down the block
        # order, so the last blocks are often several separate closed classes.
        block = np.sort(rng.integers(0, 4, size=n))
        rates *= block[:, None] <= block[None, :]
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates


def test_closed_classes_match_connected_components():
    rng = replicate_rng(20_260, 0)
    several_closed = with_transient = 0
    for _ in range(1500):
        Q = random_rates(rng, int(rng.integers(1, 40)))
        count, mask = _closed_classes(Q)
        ref_count, ref_mask = closed_classes_scipy(Q)
        assert count == ref_count
        np.testing.assert_array_equal(mask, ref_mask)
        several_closed += count >= 2
        with_transient += not mask.all()
    # The sample must exercise both structures the solve depends on.
    assert several_closed > 300 and with_transient > 300


@pytest.mark.parametrize("M", [64, 128])
def test_closed_classes_on_long_single_column_chains(M):
    # Reaching M from 0 takes M steps, so the closure needs log2(M) + 1 squarings.
    Q = single_column_generator(SingleColumnParams(M=M, alpha=1.0, p=0.3)).rate_matrix
    count, mask = _closed_classes(Q)
    assert (count, mask.tolist()) == (1, [True] * (M + 1))
    ref_count, ref_mask = closed_classes_scipy(Q)
    assert count == ref_count
    np.testing.assert_array_equal(mask, ref_mask)


@pytest.mark.parametrize("M, N", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2), (2, 5)])
def test_closed_classes_on_matrix_chains_with_transient_states(M, N):
    # Without the entry channel, a pattern whose rows and columns cannot be
    # ordered by fill and reset times is never reached again once left.
    Q = matrix_generator(MatrixParams(M=M, N=N, p=0.3, lambda_m=0.0)).rate_matrix
    count, mask = _closed_classes(Q)
    ref_count, ref_mask = closed_classes_scipy(Q)
    assert count == ref_count == 1
    np.testing.assert_array_equal(mask, ref_mask)
    assert mask[0] and mask[-1] and not mask.all()


DOFS = [*range(1, 60), 100, 200, 500, 1000]


@pytest.mark.parametrize("dof", DOFS)
def test_chi2_sf_matches_scipy(dof):
    qs = np.concatenate([np.logspace(-12, -1, 12), np.linspace(0.05, 0.95, 19), 1 - np.logspace(-12, -1, 12)])
    xs = np.concatenate([chi2.isf(qs, dof), [1e-12, 1e-3, 0.5, 2.0 * dof + 1e3]])
    for x in xs:
        ref = float(chi2.sf(x, dof))
        if ref > 1e-12:
            assert abs(_chi2_sf(float(x), dof) - ref) <= 1e-12 * ref, (x, dof)


def test_chi2_sf_edges():
    assert _chi2_sf(0.0, 3) == 1.0
    assert _chi2_sf(math.inf, 3) == 0.0
    assert math.isnan(_chi2_sf(1.0, 0))
    assert math.isnan(_chi2_sf(math.nan, 3))


def test_chi_square_gof_p_value_matches_scipy():
    counts = np.array([480, 310, 140, 55, 15])
    probs = np.array([0.5, 0.3, 0.13, 0.05, 0.02])
    stat, dof, p_value = chi_square_gof(counts, probs)
    ref = chisquare(counts, probs * counts.sum())
    assert stat == pytest.approx(ref.statistic, rel=1e-14)
    assert dof == 4
    assert abs(p_value - ref.pvalue) <= 1e-12 * ref.pvalue


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.99999, 0.999999])
def test_estimate_mean_z_matches_norm_ppf(level):
    # Sample s.d. 2 over sqrt(4) = 2, so the half width is z exactly.
    est = estimate_mean([-3.0, 1.0, 1.0, 1.0], level=level)
    ref = float(norm.ppf(0.5 * (1.0 + level)))
    assert abs(est.half_width - ref) <= 2 * np.spacing(ref)


def invariant_pmf_gammaln(params):
    M, beta = params.M, params.a
    k = np.arange(M + 1)
    log_pi = (gammaln(M + 1) - gammaln(M + 1 - k) + gammaln(beta + M - k) - gammaln(beta + M)
              + math.log(params.p / params.uniformization_rate))
    pi = np.exp(log_pi)
    return pi / pi.sum()


@pytest.mark.parametrize("M", [1, 2, 5, 64, 512, 1000, 10_000])
def test_invariant_pmf_matches_gammaln_form(M):
    for alpha in (0.5, 1.0, 2.0):
        for p in (0.001, 0.1, 0.5, 0.9):
            params = SingleColumnParams(M=M, alpha=alpha, p=p)
            got, ref = invariant_pmf(params), invariant_pmf_gammaln(params)
            # log pi_k adds four log-Gamma values, each of which both libraries
            # round to a few ulp of its own size; exp turns that absolute error
            # in log pi into a relative one, so the tolerance is 32 ulp of the
            # largest log-Gamma, floored at 1e-12.
            tol = max(1e-12, 32 * EPS * math.lgamma(params.a + M + 1))
            live = ref > 1e-300
            assert np.all(np.abs(got - ref)[live] <= tol * ref[live]), (M, alpha, p)
            assert np.all(got[~live] < 1e-290)
