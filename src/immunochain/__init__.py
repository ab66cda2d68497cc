"""Continuous-time Markov models of gradual learning under resets.

Exact simulation (matrix runs from per-column reset epochs,
single-column runs from regenerative climbs), closed-form stationary and
hitting-time analysis, perfect stationary sampling by time reversal, a
brute-force validation oracle, and a Monte Carlo replication harness.

The chains' step semantics (events, rates, closed-form event
composition) and both Gillespie simulators, the references the epochs
and the climbs are tested against, are :mod:`immunochain.reference`; it
is imported on its own, never by the package.
"""

from .models import MatrixParams, MatrixState, SingleColumnParams
from .analytics import (
    ClosedFormReport,
    collection_time_laplace,
    coupon_done_by_draws,
    coupon_done_by_time,
    coupon_tail_bounds,
    hitting_time_mean_asymptotic,
    hitting_time_mean_exact,
    hitting_time_means_exact,
    hitting_time_variance_exact,
    identify_parameters,
    invariant_pmf,
    steady_allones_count,
    steady_allones_count_reports,
    steady_allones_probability,
    transition_time_prediction,
    zero_count_ratio,
    zero_count_ratio_asymptotic,
)
from .simulate import (
    SimulationConfig,
    Trajectory,
    hitting_time_batch,
    simulate_matrix,
    simulate_single_column,
)
from .reversal import (
    sample_invariant,
    sample_invariant_count,
    sample_invariant_coupled,
    sample_invariant_histogram,
)
from .oracle import (
    DenseGenerator,
    coupon_enumerate,
    hitting_moments,
    matrix_generator,
    single_column_generator,
    single_column_hitting_means,
    single_column_hitting_moments_exact,
    stationary_solve,
)
from .stats import (
    EstimateWithCI,
    TransitionWindow,
    chi_square_gof,
    detect_transition,
    empirical_distribution,
    empirical_tv,
    estimate_mean,
    occupation_fractions,
)
from .rng import replicate_rng

__version__ = "0.1.0"
