"""Self-checks of the test's statistical guarantees.

Two empirical properties are exercised on simulated null data:

* the scaled squared residual norm at the true parent set follows a
  chi-squared law with ``n - |parents| - 1`` degrees of freedom (intercept
  included), checked by a Kolmogorov-Smirnov test;
* the rejection frequency of the subset test at the true parent set stays
  within three binomial standard errors of the nominal level.

The KS test imports scipy.stats on first use, so importing this module does
not load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .datagen import IndependentGenConfig, gen_independent
from .dataset import MultiEnvDataset
from .errors import InvalidInputError
from .experiments import derived_seed
from .invariance import TestConfig, phi_S

__all__ = [
    "null_test_pvalues",
    "rejection_rate",
    "residual_chi2_sample",
    "residual_ks_pvalue",
    "run_calibration",
]

# Null design of the rejection-rate check: normal covariates, 30 environments
# of 30 samples.
NULL_SAMPLES, NULL_ENVS = 30, 30
# Design of the residual check: 30 samples, 2 parents, target noise 2.
RESID_SAMPLES, RESID_PARENTS, RESID_SIGMA_Y = 30, 2, 2.0


def null_test_pvalues(replications: int, seed: int, mc_samples: int = 100) -> np.ndarray:
    """p-values of the subset test at the true parents on fresh null datasets."""
    gen_cfg = IndependentGenConfig(num_envs=NULL_ENVS, samples_per_env=NULL_SAMPLES)
    out = np.empty(replications)
    for r in range(replications):
        rep_seed = derived_seed(seed, r)
        dataset, truth = gen_independent(gen_cfg, rep_seed)
        config = TestConfig(alpha=0.5, mc_samples=mc_samples, seed=rep_seed)
        report = phi_S(dataset.with_intercept(), truth.parent_set, config)
        out[r] = report.p_value
    return out


def rejection_rate(pvalues: np.ndarray, alpha: float) -> float:
    return float(np.mean(pvalues <= alpha))


def residual_chi2_sample(replications: int, seed: int) -> tuple[np.ndarray, int]:
    """Scaled squared residual norms at the true parents, one per environment.

    Returns the sample and the theoretical degrees of freedom
    ``RESID_SAMPLES - RESID_PARENTS - 1`` (intercept included).
    """
    n, k = RESID_SAMPLES, RESID_PARENTS
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    beta = rng.uniform(1.0, 5.0, k)
    x = rng.normal(0.5, 2.0, size=(replications, n, k))
    noise = RESID_SIGMA_Y * rng.standard_normal((replications, n))
    y = np.einsum("rnk,k->rn", x, beta) + noise
    dataset = MultiEnvDataset(x.transpose(1, 2, 0), y.T, (n,) * replications, k).with_intercept()
    # Only the residuals are read, so one Monte-Carlo draw is enough.
    report = phi_S(dataset, tuple(range(1, k + 1)), TestConfig(mc_samples=1))
    return np.asarray(report.residual_norms_sq) / RESID_SIGMA_Y**2, n - k - 1


def residual_ks_pvalue(values: np.ndarray, dof: int) -> float:
    from scipy import stats

    return float(stats.kstest(values, stats.chi2(dof).cdf).pvalue)


def run_calibration(
    alpha: float,
    mc_samples: int,
    replications: int,
    seed: int,
) -> dict:
    """Run both suites; each entry reports the measured quantity and pass/fail."""
    if replications < 1:
        raise InvalidInputError(f"replications must be at least 1, got {replications}")
    TestConfig(alpha=alpha, mc_samples=mc_samples, seed=seed)  # rejects alpha outside [0, 1)
    pvalues = null_test_pvalues(replications, seed, mc_samples=mc_samples)
    rate = rejection_rate(pvalues, alpha)
    se = math.sqrt(alpha * (1.0 - alpha) / replications)
    rate_ok = abs(rate - alpha) <= 3.0 * se

    values, dof = residual_chi2_sample(max(2000, replications), seed + 1)
    ks_p = residual_ks_pvalue(values, dof)
    ks_ok = ks_p > 0.01

    return {
        "checks": [
            {
                "name": "null_rejection_rate",
                "alpha": alpha,
                "measured": rate,
                "tolerance": 3.0 * se,
                "replications": replications,
                "passed": rate_ok,
            },
            {
                "name": "residual_chi2_law",
                "dof": dof,
                "ks_pvalue": ks_p,
                "passed": ks_ok,
            },
        ],
        "passed": rate_ok and ks_ok,
    }
