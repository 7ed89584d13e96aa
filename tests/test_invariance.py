import itertools
import math

import numpy as np
import pytest
import scipy.stats

from localicp import linalg
from localicp.datagen import (
    IndependentGenConfig,
    LorenzGenConfig,
    gen_independent,
    gen_lorenz,
    split_environments,
)
from localicp.dataset import from_arrays
from localicp.errors import InvalidInputError
from localicp.invariance import (
    TestConfig,
    _fit_environments,
    mc_pvalue,
    phi_S,
    sample_null_ratio,
    subset_rng,
)
from localicp.invariance import test_statistic as min_max_statistic


class TestStatistic:
    def test_min_max_ratio(self):
        assert min_max_statistic([1.0, 2.0, 4.0]) == 0.25

    def test_all_zero_is_infinite(self):
        assert math.isinf(min_max_statistic([0.0, 0.0]))

    def test_equal_norms(self):
        assert min_max_statistic([3.0, 3.0, 3.0]) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            min_max_statistic([])
        with pytest.raises(InvalidInputError):
            min_max_statistic([1.0, -0.5])
        with pytest.raises(InvalidInputError):
            min_max_statistic([1.0, np.nan])


class TestNullRatio:
    def test_all_zero_dofs(self):
        rng = np.random.default_rng(0)
        assert np.isinf(sample_null_ratio([0, 0, 0], rng, size=3)).all()

    def test_single_environment_is_one(self):
        rng = np.random.default_rng(0)
        draws = sample_null_ratio([7], rng, size=100)
        np.testing.assert_array_equal(draws, np.ones(100))

    def test_zero_dof_environment_forces_zero_ratio(self):
        rng = np.random.default_rng(0)
        draws = sample_null_ratio([0, 5], rng, size=50)
        np.testing.assert_array_equal(draws, np.zeros(50))

    def test_two_env_mean_matches_simulation_oracle(self):
        draws = sample_null_ratio([10, 10], np.random.default_rng(5), size=100_000)
        # Independent oracle: direct two-chi-squared simulation via scipy.
        orng = np.random.default_rng(987654321)
        a = scipy.stats.chi2.rvs(10, size=100_000, random_state=orng)
        b = scipy.stats.chi2.rvs(10, size=100_000, random_state=orng)
        oracle = np.minimum(a, b) / np.maximum(a, b)
        se = math.hypot(draws.std() / math.sqrt(draws.size), oracle.std() / math.sqrt(oracle.size))
        assert abs(draws.mean() - oracle.mean()) < 3 * se


class TestMcPvalue:
    def test_infinite_statistic(self):
        assert mc_pvalue(math.inf, [3, 3], 100, np.random.default_rng(0)) == 1.0

    def test_statistic_below_all_draws(self):
        assert mc_pvalue(0.0, [10, 10], 100, np.random.default_rng(0)) == 1 / 101

    def test_monotone_in_statistic_for_fixed_seed(self):
        dofs = [8, 8, 8]
        grid = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        pvals = [mc_pvalue(t, dofs, 200, np.random.default_rng(77)) for t in grid]
        assert pvals == sorted(pvals)

    def test_null_uniformity_bound(self):
        # Statistic drawn from the same law as the reference draws; by
        # exchangeability P(p <= alpha) <= alpha (up to a 99% binomial band).
        dofs = [12, 12, 12]
        reps = 10_000
        rng = np.random.default_rng(31)
        stats_draws = sample_null_ratio(dofs, rng, size=reps)
        pvals = np.array(
            [mc_pvalue(t, dofs, 100, np.random.default_rng((131, i))) for i, t in enumerate(stats_draws)]
        )
        for alpha in (0.05, 0.1):
            rate = float(np.mean(pvals <= alpha))
            band = 2.576 * math.sqrt(alpha * (1 - alpha) / reps)
            assert rate <= alpha + band


def make_dataset(rng, n, num_envs, beta_by_env, noise_std=1.0, d=None):
    d = d if d is not None else len(beta_by_env[0])
    covs, tgts = [], []
    for e in range(num_envs):
        x = rng.normal(size=(n, d))
        beta = np.asarray(beta_by_env[e % len(beta_by_env)], dtype=float)
        covs.append(x)
        tgts.append(x @ beta + noise_std * rng.normal(size=n))
    return from_arrays(covs, tgts)


class TestPhiS:
    def test_null_acceptance_rate(self):
        rng = np.random.default_rng(2024)
        alpha = 0.1
        accepted = 0
        reps = 200
        for i in range(reps):
            data = make_dataset(rng, n=30, num_envs=10, beta_by_env=[[2.0, 1.0, 0.0]])
            report = phi_S(data.with_intercept(), (1, 2), TestConfig(alpha=alpha, seed=i))
            accepted += not report.rejected
        se = math.sqrt(alpha * (1 - alpha) / reps)
        assert accepted / reps >= 1 - alpha - 3 * se

    def test_interpolation_regime_never_rejects(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=3, num_envs=4, beta_by_env=[[1.0, 2.0]])
        report = phi_S(data.with_intercept(), (1, 2), TestConfig(seed=1))
        assert math.isinf(report.statistic)
        assert report.p_value == 1.0
        assert not report.rejected
        assert all(d == 0 for d in report.dofs)

    def test_power_against_heterogeneous_omitted_parent(self):
        # Two environment types with very different coefficients on the
        # omitted parent; residual-scale ratio is far from 1.
        rng = np.random.default_rng(99)
        rejected = 0
        reps = 100
        for i in range(reps):
            data = make_dataset(
                rng, n=50, num_envs=10, beta_by_env=[[3.0, 1.0], [0.0, 1.0]]
            )
            report = phi_S(data.with_intercept(), (2,), TestConfig(alpha=0.1, seed=i))
            rejected += report.rejected
        assert rejected / reps >= 0.95

    def test_scale_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng, n=25, num_envs=6, beta_by_env=[[1.5, -0.5]])
        scaled = from_arrays(
            [e.covariates for e in data.environments],
            [4.0 * e.target for e in data.environments],
        )
        cfg = TestConfig(seed=123)
        a = phi_S(data.with_intercept(), (1,), cfg)
        b = phi_S(scaled.with_intercept(), (1,), cfg)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.rejected == b.rejected

    def test_rejects_bad_subsets(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng, n=10, num_envs=3, beta_by_env=[[1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            phi_S(data, (0,), TestConfig())
        with pytest.raises(InvalidInputError):
            phi_S(data, (3,), TestConfig())

    def test_single_environment_rejected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2))
        data = from_arrays([x], [x @ np.array([1.0, 1.0])])
        with pytest.raises(InvalidInputError):
            phi_S(data, (1,), TestConfig())

    def test_deterministic_and_order_free_stream(self):
        rng = np.random.default_rng(77)
        data = make_dataset(rng, n=20, num_envs=5, beta_by_env=[[1.0, 2.0, 0.5]])
        cfg = TestConfig(seed=9)
        first = phi_S(data.with_intercept(), (1, 3), cfg)
        again = phi_S(data.with_intercept(), (1, 3), cfg)
        assert first == again

    def test_per_env_path_matches_report_fields(self):
        # Environments of unequal size are zero-padded in the batched fit;
        # the padding must not count towards the degrees of freedom.
        rng = np.random.default_rng(13)
        covs = [rng.normal(size=(n, 2)) for n in (12, 17, 25)]
        tgts = [x @ np.array([1.0, 2.0]) + rng.normal(size=x.shape[0]) for x in covs]
        data = from_arrays(covs, tgts).with_intercept()
        report = phi_S(data, (1, 2), TestConfig(seed=4))
        assert report.dofs == (12 - 3, 17 - 3, 25 - 3)
        assert 0 < report.statistic <= 1.0
        assert 0 < report.p_value <= 1.0


def _per_env_oracle(dataset, cols):
    """Residual norms and Gram ranks fitted one environment at a time."""
    norms, ranks = [], []
    for env in dataset.environments:
        x = env.covariates[:, cols]
        r = linalg.residuals(x, env.target, linalg.least_squares(x, env.target))
        norms.append(float(r @ r))
        ranks.append(linalg.numerical_rank(x.T @ x))
    return np.array(norms), np.array(ranks)


def _lorenz_ragged():
    series = gen_lorenz(LorenzGenConfig(horizon=1000), 3)
    windows = split_environments(series, 2, window=20, warmup=500, num_envs=25)
    covs = [e.covariates[: 16 + i % 5] for i, e in enumerate(windows.environments)]
    tgts = [e.target[: 16 + i % 5] for i, e in enumerate(windows.environments)]
    return from_arrays(covs, tgts).with_intercept()


def _collinear():
    rng = np.random.default_rng(8)
    covs, tgts = [], []
    for n in (12, 17, 25, 9):
        x = rng.normal(size=(n, 3))
        covs.append(np.column_stack([x, 2.0 * x[:, 0]]))
        tgts.append(x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n))
    return from_arrays(covs, tgts).with_intercept()


def _interpolating():
    rng = np.random.default_rng(9)
    covs = [rng.normal(size=(n, 5)) for n in (3, 4, 6, 8)]
    tgts = [rng.normal(size=x.shape[0]) for x in covs]
    return from_arrays(covs, tgts).with_intercept()


def _no_intercept():
    rng = np.random.default_rng(10)
    covs = [rng.normal(size=(n, 3)) for n in (5, 11, 7)]
    tgts = [x @ np.array([0.5, 0.0, 1.0]) + rng.normal(size=x.shape[0]) for x in covs]
    return from_arrays(covs, tgts)


def _straddling_certificate():
    # Eleven columns with Gram condition numbers from 1e9 to 2e11, around the
    # certificate's threshold 1 / (11 * eps * 1e4), about 4e10.  The bound
    # overestimates the condition number by at most 11 ** 1.5, so the full
    # column set is certified in some environments of the batch and not in
    # others.  The noise is orthogonal to the columns and the range stops at
    # 2e11: with noise along the weak directions, or near 1e12, the
    # per-environment reference and the SVD solve already differ by more than
    # the tolerance.
    rng = np.random.default_rng(11)
    covs, tgts = [], []
    for cond in np.geomspace(1e9, 2e11, 8):
        q1, _ = np.linalg.qr(rng.normal(size=(30, 11)))
        q2, _ = np.linalg.qr(rng.normal(size=(11, 11)))
        x = (q1 * np.geomspace(1.0, cond ** -0.5, 11)) @ q2.T
        noise = rng.normal(size=30)
        covs.append(x)
        tgts.append(x @ rng.normal(size=11) + noise - q1 @ (q1.T @ noise))
    return from_arrays(covs, tgts)


def _collinear_among_full_rank():
    # One environment whose first covariate is identically zero, so its Gram
    # matrix has an exact zero pivot whenever that column is in the subset:
    # the Cholesky factorization of the whole batch raises, and the full-rank
    # environments beside it are fitted by the SVD too.
    rng = np.random.default_rng(12)
    covs = [rng.normal(size=(n, 3)) for n in (10, 14, 20, 15)]
    covs[0][:, 0] = 0.0
    tgts = [x @ np.array([1.0, -1.0, 2.0]) + rng.normal(size=x.shape[0]) for x in covs]
    return from_arrays(covs, tgts).with_intercept()


@pytest.mark.parametrize(
    "make",
    [
        _lorenz_ragged,
        _collinear,
        _interpolating,
        _no_intercept,
        _straddling_certificate,
        _collinear_among_full_rank,
    ],
)
def test_batched_fit_matches_per_env_oracle(make):
    # Every column subset of the physical matrix, so the intercept column is
    # also left out and the empty subset is fitted without any column.
    data = make()
    width = data.environments[0].covariates.shape[1]
    yty = np.array([e.target @ e.target for e in data.environments])
    for k in range(width + 1):
        for cols in map(list, itertools.combinations(range(width), k)):
            norms, ranks = _fit_environments(data, cols)
            ref_norms, ref_ranks = _per_env_oracle(data, cols)
            assert ranks.tolist() == ref_ranks.tolist(), cols
            # Scaled by y'y: an exact fit's RSS is itself rounding noise.
            assert np.all(np.abs(norms - ref_norms) <= 1e-12 * yty), cols


def _independent():
    data, _ = gen_independent(IndependentGenConfig(num_envs=20, dimension=5), 4)
    return data.with_intercept()


def _lorenz_windows():
    series = gen_lorenz(LorenzGenConfig(horizon=2000), 5)
    return split_environments(series, 4, window=20, warmup=500, num_envs=75).with_intercept()


def _refuse_cholesky(gram):
    raise np.linalg.LinAlgError("Cholesky refused")


@pytest.mark.parametrize("make", [_independent, _lorenz_windows])
def test_cholesky_fit_matches_svd_fit(make, monkeypatch):
    # With the factorization refused every environment takes the SVD solve,
    # which is the reference for the certified Cholesky solve.
    data = make()
    width = data.environments[0].covariates.shape[1]
    yty = np.array([e.target @ e.target for e in data.environments])
    subsets = [list(c) for k in range(width + 1) for c in itertools.combinations(range(width), k)]
    fast = [_fit_environments(data, cols) for cols in subsets]
    monkeypatch.setattr(np.linalg, "cholesky", _refuse_cholesky)
    for cols, (norms, ranks) in zip(subsets, fast):
        ref_norms, ref_ranks = _fit_environments(data, cols)
        assert ranks.tolist() == ref_ranks.tolist(), cols
        assert np.all(np.abs(norms - ref_norms) <= 1e-12 * yty), cols


def test_subset_rng_depends_on_subset_and_seed():
    a = subset_rng(1, (1, 2)).integers(0, 2**32)
    b = subset_rng(1, (1, 3)).integers(0, 2**32)
    c = subset_rng(2, (1, 2)).integers(0, 2**32)
    d = subset_rng(1, (1, 2)).integers(0, 2**32)
    assert a == d
    assert len({a, b, c}) == 3


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TestConfig(alpha=1.0)
    with pytest.raises(InvalidInputError):
        TestConfig(mc_samples=0)
    TestConfig(alpha=0.0)  # degenerate never-reject level is admitted
