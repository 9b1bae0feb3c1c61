"""Bayesian optimization with adaptive exploration and uncertainty penalization."""

from .acquisition import (
    AcquisitionParams,
    adaptive_acquisition_batch,
    complexity_factor,
    expected_improvement,
)
from .adaptive import (
    AdaptiveState,
    integrated_variance_mc,
    record_integrated_variance,
    record_prediction_error,
    update_kappa,
    update_lambda,
)
from .benchmarks import (
    GaussianMixtureSpec,
    TestFunction,
    ackley,
    gaussian_mixture_eval,
    get_test_function,
    levy,
    make_gaussian_mixture,
    rosenbrock,
)
from .errors import (
    AdaptiveBOError,
    DimensionMismatchError,
    NonPositiveDefiniteError,
    NumericalError,
    SearchFailureError,
    UnsupportedDimensionError,
)
from .gp import (
    Dataset,
    FittedGP,
    GPConfig,
    KernelParams,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    TrialTrace,
    run_experiment,
    run_trial,
)
from .metrics import compute_metrics, regret_curve, summarize
from .search import Domain, SearchConfig, propose_next, sobol_samples

__version__ = "0.1.0"
