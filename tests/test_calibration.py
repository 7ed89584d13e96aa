import re

import numpy as np
import pytest
from scipy import stats

from localicp.calibration import (
    _chi2_cdf,
    _kolmogorov_sf,
    residual_chi2_sample,
    residual_ks_pvalue,
    run_calibration,
)
from localicp.errors import InvalidInputError

# scipy is the oracle here only; the package does not import it.


@pytest.mark.parametrize("dof", [1, 2, 3, 10, 27, 100])
def test_chi2_cdf_matches_scipy(dof):
    x = np.concatenate([np.linspace(0.0, 3 * dof + 30, 2001), [1e-300, 1e-10, 500.0]])
    assert np.abs(_chi2_cdf(x, dof) - stats.chi2.cdf(x, dof)).max() <= 1e-13


@pytest.mark.parametrize("seed", range(5))
def test_ks_pvalue_matches_scipy_on_calibrate_samples(seed):
    # The calibrate command's shape: 2000 scaled residual norms against chi2(27).
    values, dof = residual_chi2_sample(2000, seed)
    for scale in (1.0, 1.01, 1.03):
        expected = stats.kstest(values * scale, stats.chi2(dof).cdf).pvalue
        assert residual_ks_pvalue(values * scale, dof) == pytest.approx(expected, abs=1e-7)


def test_ks_pvalue_matches_scipy_on_small_samples():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 20, 100):
        for scale in (1.0, 1.2, 2.0):
            values = scale * rng.chisquare(5, size=n)
            expected = stats.kstest(values, stats.chi2(5).cdf).pvalue
            assert residual_ks_pvalue(values, 5) == pytest.approx(expected, abs=1e-10)


def test_kolmogorov_law_at_its_ends():
    # D_n is at least 1 / (2n), so its tail there is 1; at D = 1 it is 0.
    assert _kolmogorov_sf(10, 0.05) == 1.0
    for n in (1, 2, 5, 17):
        assert _kolmogorov_sf(n, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert _kolmogorov_sf(n, 0.9) == pytest.approx(stats.kstwo.sf(0.9, n), abs=1e-14)
    # Above n d^2 = 18 the tail is below 2 exp(-36).
    assert _kolmogorov_sf(2000, 0.1) == 0.0


@pytest.mark.parametrize("replications", [True, 2.5])
def test_run_calibration_refuses_a_non_count(replications):
    message = f"replications must be a positive integer, got {replications!r}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        run_calibration(alpha=0.1, mc_samples=10, replications=replications, seed=0)
