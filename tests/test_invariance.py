import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.stats

from localicp import invariance, linalg
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
    _reference_draws,
    fit_subsets,
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
        assert mc_pvalue(math.inf, [3, 3], 100, 0) == 1.0

    def test_rejects_negative_seed_or_dofs(self):
        with pytest.raises(InvalidInputError):
            mc_pvalue(0.5, [-1, 2], 10, 0)
        with pytest.raises(InvalidInputError):
            mc_pvalue(0.5, [1, 2], 10, -1)

    def test_statistic_below_all_draws(self):
        assert mc_pvalue(0.0, [10, 10], 100, 0) == 1 / 101

    def test_monotone_in_statistic_for_fixed_seed(self):
        dofs = [8, 8, 8]
        grid = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        pvals = [mc_pvalue(t, dofs, 200, 77) for t in grid]
        assert pvals == sorted(pvals)

    @pytest.mark.parametrize("dofs", [(4, 9, 6), (0, 5), (0, 0, 0)])
    def test_sorted_count_matches_direct_count(self, dofs):
        # The binary search over the sorted draws must count exactly the
        # draws at or below the statistic: a statistic equal to a draw
        # counts it (ties go against the statistic), and the +inf draws of
        # all-zero dofs never count.
        b, seed = 50, 3
        rng = np.random.default_rng(np.random.SeedSequence([seed, *dofs]))
        draws = sample_null_ratio(dofs, rng, size=b)
        grid = [0.0, 0.2, 0.5, 1.0, *draws[np.isfinite(draws)][:5]]
        for t in grid:
            expected = (1 + int(np.count_nonzero(draws <= t))) / (b + 1)
            assert mc_pvalue(t, dofs, b, seed) == expected

    def test_memoized_draws_are_sorted_and_read_only(self):
        # The level test keeps its draws in the caller's memo, sorted and
        # read-only, and a reused memo gives the scalar p-value again.
        rng = np.random.default_rng(5)
        data = from_arrays([rng.normal(size=(n, 1)) for n in (8, 9)], [rng.normal(size=n) for n in (8, 9)])
        fit = (np.array([[0.3, 1.0]]), np.array([[1, 1]]))
        config = TestConfig(mc_samples=20, seed=1)
        nulls = {}
        first = invariance.test_subsets(data, [(1,)], config, nulls=nulls, fit=fit)[0].p_value
        draws = nulls[(7, 8)]
        assert not draws.flags.writeable
        with pytest.raises(ValueError):
            draws[0] = 0.0
        assert np.all(np.diff(draws) >= 0)
        assert invariance.test_subsets(data, [(1,)], config, nulls=nulls, fit=fit)[0].p_value == first
        assert nulls[(7, 8)] is draws
        assert mc_pvalue(0.3, [7, 8], 20, 1) == first

    def test_null_uniformity_bound(self):
        # Statistic drawn from the same law as the reference draws; by
        # exchangeability P(p <= alpha) <= alpha (up to a 99% binomial band).
        dofs = [12, 12, 12]
        reps = 10_000
        rng = np.random.default_rng(31)
        stats_draws = sample_null_ratio(dofs, rng, size=reps)
        pvals = np.array(
            [mc_pvalue(t, dofs, 100, 131 + i) for i, t in enumerate(stats_draws)]
        )
        for alpha in (0.05, 0.1):
            rate = float(np.mean(pvals <= alpha))
            band = 2.576 * math.sqrt(alpha * (1 - alpha) / reps)
            assert rate <= alpha + band


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_reference_draws_seed_the_listed_entropy(seed, monkeypatch):
    # The uint32 entropy must seed the stream that SeedSequence([seed, *dofs])
    # seeds: one 32-bit word below 2^32, two for a 64-bit seed, then the dofs.
    dofs = (0, 7, 3, 0, 12)
    streams = []
    original = invariance.sample_null_ratio

    def recording(dofs, rng, size):
        streams.append(rng.bit_generator.seed_seq)
        return original(dofs, rng, size)

    monkeypatch.setattr(invariance, "sample_null_ratio", recording)
    draws = _reference_draws(seed, np.array(dofs), 40)
    listed = np.random.SeedSequence([seed, *dofs])
    assert np.array_equal(streams[0].generate_state(8), listed.generate_state(8))
    expected = original(dofs, np.random.default_rng(np.random.SeedSequence([seed, *dofs])), 40)
    assert np.array_equal(draws, np.sort(expected)) and not draws.flags.writeable


def _assert_reports_match_scalar_path(data, subsets, config, fit):
    """Each report of ``test_subsets`` equals the one-row statistic and p-value."""
    reports = invariance.test_subsets(data, subsets, config, fit=fit)
    assert [r.subset for r in reports] == [tuple(s) for s in subsets]
    for report, norms, ranks in zip(reports, *fit):
        dofs = np.maximum(np.subtract(data.sample_sizes, ranks), 0)
        norms = np.where(dofs == 0, 0.0, norms)
        statistic = min_max_statistic(norms)
        p = mc_pvalue(statistic, dofs, config.mc_samples, config.seed)
        assert report.dofs == tuple(dofs.tolist())
        assert report.residual_norms_sq == tuple(norms.tolist())
        assert report.statistic == statistic and report.p_value == p
        assert report.rejected == (p <= config.alpha)
    return reports


def test_level_reports_match_the_scalar_path(monkeypatch):
    # One level of ten subsets with five distinct finite dof vectors (two of
    # them shared by several rows), zero-dof rows, a rank above n_e that is
    # clipped, and a row that interpolates every environment (+inf, p = 1).
    rng = np.random.default_rng(21)
    sizes = (6, 9, 9, 12)
    data = from_arrays(
        [rng.normal(size=(n, 5)) for n in sizes], [rng.normal(size=n) for n in sizes]
    ).with_intercept()
    subsets = list(itertools.combinations(range(1, 6), 2))
    ranks = np.array(
        [[3, 3, 3, 3], [3, 3, 3, 3], [2, 3, 3, 3], [6, 3, 3, 3], [6, 9, 9, 12],
         [7, 3, 3, 3], [3, 3, 3, 3], [3, 2, 3, 1], [1, 1, 1, 1], [3, 3, 3, 3]]
    )
    norms = rng.uniform(0.5, 2.0, size=ranks.shape)
    drawn = []
    original = invariance.sample_null_ratio

    def counting(dofs, rng, size):
        drawn.append(tuple(dofs))
        return original(dofs, rng, size)

    monkeypatch.setattr(invariance, "sample_null_ratio", counting)
    config = TestConfig(alpha=0.3, mc_samples=50, seed=4)
    reports = _assert_reports_match_scalar_path(data, subsets, config, (norms, ranks))
    assert math.isinf(reports[4].statistic) and reports[4].p_value == 1.0
    assert reports[3].statistic == 0.0 and reports[3].p_value == 1.0
    assert reports[0].dofs == reports[1].dofs and reports[3].dofs == reports[5].dofs
    assert len({r.p_value for r in reports}) > 2
    # The level drew each finite dof vector once; the scalar calls drew again.
    nulls = {}
    drawn.clear()
    invariance.test_subsets(data, subsets, config, nulls=nulls, fit=(norms, ranks))
    assert len(drawn) == len(set(drawn)) == len(nulls) == 5
    invariance.test_subsets(data, subsets, config, nulls=nulls, fit=(norms, ranks))
    assert len(drawn) == 5


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

    def test_null_acceptance_with_one_interpolated_environment(self):
        # n_e = 3 in the first environment leaves it zero dof at the true
        # parents with intercept, so the statistic and every draw are 0.
        # A tie is no evidence against invariance and must not reject.
        alpha, reps = 0.1, 200
        rejected = 0
        for i in range(reps):
            rng = np.random.default_rng(i)
            covs = [rng.normal(size=(n, 2)) for n in (3, 30, 30, 30, 30)]
            tgts = [x @ np.array([2.0, 1.0]) + rng.normal(size=len(x)) for x in covs]
            report = phi_S(from_arrays(covs, tgts).with_intercept(), (1, 2), TestConfig(seed=i))
            assert report.dofs == (0, 27, 27, 27, 27)
            rejected += report.rejected
        se = math.sqrt(alpha * (1 - alpha) / reps)
        assert rejected / reps <= alpha + 3 * se

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
        with pytest.raises(InvalidInputError, match=r"subset \(0,\) is not contained in 1..2"):
            phi_S(data, (0,), TestConfig())
        with pytest.raises(InvalidInputError, match=r"subset \(3,\) is not contained in 1..2"):
            phi_S(data, (3,), TestConfig())
        with pytest.raises(InvalidInputError, match=r"repeated indices: \(2, 2\)"):
            phi_S(data, (2, 2), TestConfig())
        # One bad subset among good ones fails the whole level the same way.
        with pytest.raises(InvalidInputError, match=r"subset \(1, 3\) is not contained"):
            invariance.test_subsets(data, [(1, 2), (3, 1)], TestConfig())

    def test_single_environment_rejected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2))
        data = from_arrays([x], [x @ np.array([1.0, 1.0])])
        with pytest.raises(InvalidInputError, match="at least two environments"):
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
    # matrix has an exact zero pivot whenever that column is in the subset.
    # That pair goes to the SVD; the full-rank environments beside it keep
    # the Cholesky solve (test_one_failing_pivot_stays_local).
    rng = np.random.default_rng(12)
    covs = [rng.normal(size=(n, 3)) for n in (10, 14, 20, 15)]
    covs[0][:, 0] = 0.0
    tgts = [x @ np.array([1.0, -1.0, 2.0]) + rng.normal(size=x.shape[0]) for x in covs]
    return from_arrays(covs, tgts).with_intercept()


ORACLE_DATASETS = [
    _lorenz_ragged,
    _collinear,
    _interpolating,
    _no_intercept,
    _straddling_certificate,
    _collinear_among_full_rank,
]


def _levels(width):
    """Every set of the columns 0..width-1, as one (S, k) array per size k."""
    return [
        np.array(list(itertools.combinations(range(width), k)), dtype=np.intp)
        for k in range(width + 1)
    ]


def _width_and_yty(data):
    yty = np.array([e.target @ e.target for e in data.environments])
    return data.environments[0].covariates.shape[1], yty


@pytest.mark.parametrize("make", ORACLE_DATASETS)
def test_batched_fit_matches_per_env_oracle(make):
    # Every column subset of the physical matrix, so the intercept column is
    # also left out and the empty subset is fitted without any column; each
    # size is fitted in one call.
    data = make()
    width, yty = _width_and_yty(data)
    for level in _levels(width):
        for cols, norms, ranks in zip(level, *_fit_environments(data, level)):
            ref_norms, ref_ranks = _per_env_oracle(data, list(cols))
            assert ranks.tolist() == ref_ranks.tolist(), cols
            # Scaled by y'y: an exact fit's RSS is itself rounding noise.
            assert np.all(np.abs(norms - ref_norms) <= 1e-12 * yty), cols


@pytest.mark.parametrize("make", [_collinear, _interpolating])
def test_fitted_levels_match_the_scalar_path(make):
    # Rank-deficient and interpolated environments, one fitted level at a time.
    data = make()
    config = TestConfig(seed=6)
    for k in range(data.num_covariates + 1):
        subsets = list(itertools.combinations(range(1, data.num_covariates + 1), k))
        _assert_reports_match_scalar_path(data, subsets, config, fit_subsets(data, subsets))


def _qr_oracle(dataset, cols):
    """Residual norms from a QR factorization of each environment's design.

    Unlike the normal equations, the error of ``y - Q Q'y`` grows with the
    condition number of X, not of X'X, so this stays a reference where the
    Gram matrix is too ill-conditioned for ``_per_env_oracle``.  Full column
    rank only.
    """
    norms = []
    for env in dataset.environments:
        q, _ = np.linalg.qr(env.covariates[:, cols])
        r = env.target - q @ (q.T @ env.target)
        norms.append(float(r @ r))
    return np.array(norms)


def _straddling_to_1e12():
    # As _straddling_certificate, with Gram condition numbers up to 1e12.
    rng = np.random.default_rng(14)
    covs, tgts = [], []
    for cond in np.geomspace(1e9, 1e12, 8):
        q1, _ = np.linalg.qr(rng.normal(size=(30, 11)))
        q2, _ = np.linalg.qr(rng.normal(size=(11, 11)))
        x = (q1 * np.geomspace(1.0, cond ** -0.5, 11)) @ q2.T
        noise = rng.normal(size=30)
        covs.append(x)
        tgts.append(x @ rng.normal(size=11) + noise - q1 @ (q1.T @ noise))
    return from_arrays(covs, tgts)


def test_ill_conditioned_fit_matches_qr_oracle():
    # Every column set is of full rank, so the fit must give rank |cols| and
    # the QR residual within 1e-12 of y'y, on Gram conditions where the
    # normal equations of _per_env_oracle can miss that bound themselves.
    data = _straddling_to_1e12()
    width, yty = _width_and_yty(data)
    for level in _levels(width)[1:]:
        for cols, norms, ranks in zip(level, *_fit_environments(data, level)):
            assert np.all(ranks == len(cols)), cols
            assert np.all(np.abs(norms - _qr_oracle(data, list(cols))) <= 1e-12 * yty), cols


def _independent():
    data, _ = gen_independent(IndependentGenConfig(num_envs=20, dimension=5), 4)
    return data.with_intercept()


def _lorenz_windows():
    series = gen_lorenz(LorenzGenConfig(horizon=2000), 5)
    return split_environments(series, 4, window=20, warmup=500, num_envs=75).with_intercept()


@pytest.mark.parametrize("make", [_independent, _lorenz_windows])
def test_cholesky_fit_matches_svd_fit(make, monkeypatch):
    # With an infinite margin no environment is certified and every one
    # takes the SVD solve, which is the reference for the Cholesky solve.
    data = make()
    width, yty = _width_and_yty(data)
    fast = [_fit_environments(data, level) for level in _levels(width)]
    monkeypatch.setattr(invariance, "CHOLESKY_MARGIN", math.inf)
    for level, (norms, ranks) in zip(_levels(width), fast):
        ref_norms, ref_ranks = _fit_environments(data, level)
        assert ranks.tolist() == ref_ranks.tolist(), level
        assert np.all(np.abs(norms - ref_norms) <= 1e-12 * yty), level


@pytest.mark.parametrize("make", ORACLE_DATASETS + [_lorenz_windows])
def test_batch_does_not_change_a_subsets_bits(make, monkeypatch):
    # Every physical column becomes a candidate, so column sets without the
    # intercept go through fit_subsets too.  A level fitted in one call, in
    # chunks of one subset, and subset by subset must give the same bits.
    data = make()
    width = data.environments[0].covariates.shape[1]
    data = dataclasses.replace(data, num_covariates=width, intercept_added=False)
    whole = [_fit_environments(data, level) for level in _levels(width)]
    monkeypatch.setattr(invariance, "FIT_CHUNK_DOUBLES", 1)
    for level, (norms, ranks) in zip(_levels(width), whole):
        subsets = [tuple(cols + 1) for cols in level]
        chunked = fit_subsets(data, subsets)
        alone = [fit_subsets(data, [s]) for s in subsets]
        for fit in (chunked, tuple(np.concatenate(part) for part in zip(*alone))):
            assert np.array_equal(fit[0], norms)
            assert np.array_equal(fit[1], ranks)


def test_one_failing_pivot_stays_local(monkeypatch):
    # Only the environment whose column is zero fails its pivot; the others
    # of the same subset keep the Cholesky solve.  The SVD gets exactly the
    # singular (column set, environment) pairs and the E empty-set pairs.
    data = _collinear_among_full_rank()
    width = data.environments[0].covariates.shape[1]
    singular = sum(
        int(np.sum(_per_env_oracle(data, list(cols))[1] < len(cols)))
        for level in _levels(width)[1:]
        for cols in level
    )
    assert singular > 0
    seen = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        seen.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for level in _levels(width):
        _fit_environments(data, level)
    assert sum(seen) == singular + data.num_envs


def _parent_fit(dataset, cols):
    """The fit of one column set as it was before subsets were batched.

    Kept as the reference for the batched kernel: one batched Cholesky,
    certified per environment, else the batched SVD, on the environments of
    one column set.
    """
    xs = np.moveaxis(dataset.covariates, -1, 0)  # (E, n_max, width)
    y = dataset.target.T  # (E, n_max)
    x = xs[:, :, cols]
    gram = np.einsum("eni,enj->eij", x, x)
    xty = np.einsum("eni,en->ei", x, y)
    tol = len(cols) * np.finfo(np.float64).eps
    beta = np.zeros_like(xty)
    ranks = np.full(len(gram), len(cols))
    uncertified = np.ones(len(gram), dtype=bool)
    if cols:
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            pass
        else:
            gram_norm = np.sqrt(np.einsum("eij,eij->e", gram, gram))
            bound = gram_norm * np.einsum("eij,eij->e", l_inv, l_inv) * tol * invariance.CHOLESKY_MARGIN
            uncertified = ~(bound < 1.0)
            beta = np.einsum("eji,ej->ei", l_inv, np.einsum("eij,ej->ei", l_inv, xty))
    if uncertified.any():
        u, s, vt = np.linalg.svd(gram[uncertified])
        smax = s[:, :1]
        keep = s > tol * np.where(smax > 0, smax, 1.0)
        ranks[uncertified] = keep.sum(axis=1)
        s_inv = np.where(keep, 1.0, 0.0)
        np.divide(s_inv, s, out=s_inv, where=keep)
        uty = np.einsum("enj,en->ej", u, xty[uncertified])
        beta[uncertified] = np.einsum("eji,ej->ei", vt * s_inv[:, :, None], uty)
    resid = y - np.einsum("eni,ei->en", x, beta)
    norms = np.einsum("en,en->e", resid, resid)
    return norms, ranks


@pytest.mark.parametrize("make", ORACLE_DATASETS + [_independent, _lorenz_windows])
def test_batched_fit_matches_parent_fit(make):
    # The batched kernel against the per-subset kernel it replaced, on every
    # column set: identical ranks, RSS within 1e-12 of y'y.
    data = make()
    width, yty = _width_and_yty(data)
    for level in _levels(width):
        for cols, norms, ranks in zip(level, *_fit_environments(data, level)):
            ref_norms, ref_ranks = _parent_fit(data, list(cols))
            assert ranks.tolist() == ref_ranks.tolist(), cols
            assert np.all(np.abs(norms - ref_norms) <= 1e-12 * yty), cols


def test_subset_rng_depends_on_subset_and_seed():
    a = subset_rng(1, (1, 2)).integers(0, 2**32)
    b = subset_rng(1, (1, 3)).integers(0, 2**32)
    c = subset_rng(2, (1, 2)).integers(0, 2**32)
    d = subset_rng(1, (1, 2)).integers(0, 2**32)
    assert a == d
    assert len({a, b, c}) == 3


@pytest.mark.parametrize("seed", [-1, 1.7, True])
def test_config_rejects_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        TestConfig(seed=seed)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TestConfig(alpha=1.0)
    with pytest.raises(InvalidInputError):
        TestConfig(mc_samples=0)
    TestConfig(alpha=0.0)  # degenerate never-reject level is admitted
