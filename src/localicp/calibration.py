"""Self-checks of the test's statistical guarantees.

Two empirical properties are exercised on simulated null data:

* the scaled squared residual norm at the true parent set follows a
  chi-squared law with ``n - |parents| - 1`` degrees of freedom (intercept
  included), checked by a Kolmogorov-Smirnov test;
* the rejection frequency of the subset test at the true parent set stays
  within three binomial standard errors of the nominal level.

The KS test needs numpy and the standard library only: the chi-squared CDF
and the exact law of the KS statistic are computed here.
"""

from __future__ import annotations

import math

import numpy as np

from .datagen import IndependentGenConfig, gen_independent
from .dataset import MultiEnvDataset
from .errors import check_counts
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


def _chi2_cdf(x: np.ndarray, dof: int) -> np.ndarray:
    """The regularized lower incomplete gamma ``P(dof / 2, x / 2)``: its series below
    ``a + 1``, one minus its continued fraction above (Numerical Recipes §6.2)."""
    a, x = dof / 2.0, np.asarray(x, dtype=float) / 2.0
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) - x - math.lgamma(a))
    low = x < a + 1
    term = total = np.full(int(low.sum()), 1.0 / a)
    ap = a
    while np.any(term > total * 2**-53):
        ap += 1
        term = term * x[low] / ap
        total = total + term
    b = x[~low] + 1.0 - a
    frac = d = 1.0 / b
    c, i, delta = np.inf, 0, 0.0
    while np.any(np.abs(delta - 1.0) > 2**-51):  # modified Lentz
        i, b = i + 1, b + 2.0
        d, c = 1.0 / (b - i * (i - a) * d), b - i * (i - a) / c
        delta = d * c
        frac = frac * delta
    out = np.empty_like(x)
    out[low], out[~low] = front[low] * total, 1.0 - front[~low] * frac
    return out


def _kolmogorov_sf(n: int, d: float) -> float:
    """``P(D_n >= d)`` for the two-sided KS statistic, exactly: Durbin's matrix power as in
    Marsaglia, Tsang & Wang (2003), its scale kept in logs.  Above ``n d^2 = 18`` the tail
    is below ``2 exp(-36)`` (Massart's DKW bound) and reads 0; ``D_n >= 1 / (2n)`` always."""
    if n * d <= 0.5 or n * d * d > 18:
        return float(n * d <= 0.5)
    k = math.floor(n * d) + 1
    m, h = 2 * k - 1, k - n * d
    diff = np.subtract.outer(np.arange(m), np.arange(m)) + 1  # i - j + 1
    hmat = (diff >= 0).astype(float)
    hmat[:, 0] -= h ** np.arange(1, m + 1)
    hmat[-1] -= h ** np.arange(m, 0, -1)
    hmat[-1, 0] += max(2 * h - 1, 0) ** m
    hmat *= np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, m + 1))))[np.maximum(diff, 0)]
    power, log_scale = np.eye(m), 0.0
    for bit in bin(n)[2:]:  # hmat^n = power * exp(log_scale), from the leading bit down
        power = power @ power @ hmat if bit == "1" else power @ power
        top = np.abs(power).max()
        power, log_scale = power / top, 2 * log_scale + math.log(top)
    log_cdf = math.log(power[k - 1, k - 1]) + log_scale + math.lgamma(n + 1) - n * math.log(n)
    return max(0.0, 1.0 - math.exp(log_cdf))


def residual_ks_pvalue(values: np.ndarray, dof: int) -> float:
    """Two-sided Kolmogorov-Smirnov p-value of ``values`` against chi-squared(``dof``)."""
    cdf = _chi2_cdf(np.sort(values), dof)
    steps = np.arange(cdf.size + 1) / cdf.size  # the levels of the empirical CDF
    return _kolmogorov_sf(cdf.size, max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


def run_calibration(
    alpha: float,
    mc_samples: int,
    replications: int,
    seed: int,
) -> dict:
    """Run both suites; each entry reports the measured quantity and pass/fail."""
    check_counts(replications=replications)
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
