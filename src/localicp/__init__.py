"""Causal parent discovery from multi-environment data under locally linear models."""

from .dataset import EnvironmentData, MultiEnvDataset, from_arrays
from .datagen import (
    GroundTruth,
    IndependentGenConfig,
    SemGenConfig,
    gen_independent,
    gen_lorenz,
    gen_sem,
    split_environments,
)
from .discovery import (
    DiscoveryResult,
    HeterogeneityInput,
    discover,
    heterogeneity_index,
    infinite_env_limit,
    power_bound,
)
from .errors import CapacityError, DivergenceError, InvalidInputError, ShapeError
from .experiments import (
    NetworkResult,
    Scenario,
    TrialMetrics,
    binomial_test_greater,
    clopper_pearson,
    network_detect,
    run_trials,
)
from .invariance import SubsetTestReport, TestConfig, mc_pvalue, phi_S, sample_null_ratio, test_statistic

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DiscoveryResult",
    "DivergenceError",
    "EnvironmentData",
    "GroundTruth",
    "HeterogeneityInput",
    "IndependentGenConfig",
    "InvalidInputError",
    "MultiEnvDataset",
    "NetworkResult",
    "Scenario",
    "SemGenConfig",
    "ShapeError",
    "SubsetTestReport",
    "TestConfig",
    "TrialMetrics",
    "binomial_test_greater",
    "clopper_pearson",
    "discover",
    "from_arrays",
    "gen_independent",
    "gen_lorenz",
    "gen_sem",
    "heterogeneity_index",
    "infinite_env_limit",
    "mc_pvalue",
    "network_detect",
    "phi_S",
    "power_bound",
    "run_trials",
    "sample_null_ratio",
    "split_environments",
    "test_statistic",
]
