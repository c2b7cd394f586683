"""Moment-based discretization of empirical distributions.

The core operation turns raw data into an N-point discrete distribution
whose first ``2N - 1`` moments match the sample moments exactly: the
Golub-Welsch rule of the Jacobi matrix of the data's empirical measure,
built by Lanczos.
Baseline discretizers, a CRRA portfolio application, and a Monte Carlo
accuracy harness round out the package.
"""

from .errors import (
    DegenerateDataError,
    InfeasibleError,
    InputError,
    NpgqError,
    NumericalError,
    UnboundedError,
)
from .moments import (
    AffineTransform,
    GaussianMixture,
    Sample,
    sample_moments,
)
from .quadrature import (
    DiscreteDistribution,
    discretize_data,
    expectation,
)
from .baselines import (
    MaxEntSolution,
    gauss_hermite_discretize,
    kde_pdf,
    maxent_discretize,
    maxent_solve,
)
from .portfolio import (
    PortfolioSolution,
    solve_portfolio,
    solve_portfolios,
    theoretical_portfolio,
)
from .experiments import (
    DEFAULT_MIXTURE,
    DEFAULT_RISK_FREE,
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    parse_config,
    replication_rng,
    run_experiment,
    sample_mixture,
)

__version__ = "0.1.0"
