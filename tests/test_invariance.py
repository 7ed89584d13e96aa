import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
import scipy.stats

from localicp import invariance, linalg
from localicp.datagen import (
    IndependentGenConfig,
    gen_independent,
    gen_lorenz,
    split_environments,
)
from localicp.dataset import from_arrays
from localicp.errors import MAX_DOUBLES, CapacityError, InvalidInputError
from localicp.invariance import (
    TestConfig,
    _fit_environments,
    _null_pvalues,
    fit_subsets,
    level_pvalues,
    level_reports,
    mc_pvalue,
    phi_S,
    sample_null_ratio,
    subset_rng,
)
from localicp.invariance import test_statistic as min_max_statistic


def _own(data):
    """The dataset's own target as the fit takes it: ``(values, X'y, y'y)`` with ``T = 1``."""
    values = data.target[:, None]
    return (values, *data.target_cross_products(values))


def _fit_own(data, level, fit=_fit_environments):
    """``fit`` (``_fit_environments`` or ``fit_subsets``) of the dataset's own target, norms ``(S, E)``."""
    norms, ranks = fit(data, level, _own(data))
    return norms[..., 0], ranks


def _own_level(data, subsets, config):
    """``level_pvalues`` of the dataset's own target, its arrays at that target as ``level_reports`` takes them."""
    norms, dofs, *tested = level_pvalues(data, subsets, config, _own(data))
    return norms[..., 0], dofs, *(a[:, 0] for a in tested)


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

    @pytest.mark.parametrize("dofs", [[17] * 30, [5, 9, 17, 5], [0, 4, 4], [0, 3, 8], [6]])
    def test_draws_equal_the_zero_filled_masked_draws(self, dofs):
        # The one draw (a scalar df when the positive dofs are all equal, zero
        # dofs among them or not) must give the bits of filling zeros and
        # drawing the array of positive dofs through a mask.
        def masked(dofs, rng, size):
            df = np.asarray(dofs, dtype=np.int64)
            z = np.zeros((size, df.size))
            positive = df > 0
            z[:, positive] = rng.chisquare(df[positive], size=(size, int(positive.sum())))
            top = z.max(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(top > 0.0, z.min(axis=1) / top, math.inf)

        for seed in range(3):
            expected = masked(dofs, np.random.default_rng(seed), 500)
            np.testing.assert_array_equal(sample_null_ratio(dofs, np.random.default_rng(seed), 500), expected)

    @pytest.mark.parametrize(
        "dofs", [[2.5, 4], [3.0, 4.0], [True, False], ["3", "4"], [True, 3], (3, np.True_), np.array([True, False])]
    )
    def test_rejects_a_dof_that_is_no_integer(self, dofs):
        # [2.5, 4] was drawn as dof 2, and [True, 3] as dofs [1, 3].
        with pytest.raises(InvalidInputError, match="dofs must be non-negative integers"):
            sample_null_ratio(dofs, np.random.default_rng(0), 5)

    @pytest.mark.parametrize("size", [-1, 2.5])
    def test_rejects_a_size_that_is_no_count(self, size):
        with pytest.raises(InvalidInputError, match=re.escape(f"size must be a non-negative integer, got {size!r}")):
            sample_null_ratio([3, 4], np.random.default_rng(0), size)

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

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_rejects_a_seed_that_is_no_integer(self, seed):
        # 1.5 was taken as seed 1.
        with pytest.raises(InvalidInputError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            mc_pvalue(0.5, [3, 4], 50, seed)

    @pytest.mark.parametrize("dofs", [[2**32 + 3, 3], [2**32, 3], [2.5, 4], [True, 4], [3, -1], [2**64, 3]])
    def test_rejects_a_dof_outside_the_32_bit_integers(self, dofs):
        # [2**32 + 3, 3] was drawn from the entropy of [3, 3], its dofs cast to uint32.
        with pytest.raises(InvalidInputError, match=re.escape(f"dofs must be integers in [0, 2^32), got {dofs!r}")):
            mc_pvalue(0.5, dofs, 10, 0)

    def test_takes_the_largest_32_bit_dof_and_numpy_dofs(self):
        assert 0.0 < mc_pvalue(0.5, [2**32 - 1, 3], 10, 0) <= 1.0
        assert mc_pvalue(0.5, np.array([3, 4]), 10, np.uint64(2)) == mc_pvalue(0.5, [3, 4], 10, 2)

    @pytest.mark.parametrize("b", [0, 2.5, True])
    def test_rejects_a_non_count_b(self, b):
        with pytest.raises(InvalidInputError, match=f"b must be a positive integer, got {b!r}"):
            mc_pvalue(0.5, [3, 3], b, 0)

    @pytest.mark.parametrize("statistic", [math.nan, -math.inf, -0.5, 1.5])
    def test_rejects_a_statistic_no_ratio_takes(self, monkeypatch, statistic):
        # A min/max ratio lies in [0, 1], or is +inf on interpolated data;
        # anything else is refused before a draw.
        monkeypatch.setattr(invariance, "sample_null_ratio", None)
        message = f"statistic must lie in [0, 1] or be +inf, got {statistic!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            mc_pvalue(statistic, [5, 5], 100, 0)

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

    def test_rows_sharing_a_dof_vector_share_one_draw(self, monkeypatch):
        # Two rows of one level call share the dof vector (7, 8): they share
        # one draw and each gets the scalar p-value.  A second call draws
        # again and gives the same p-values.
        rng = np.random.default_rng(5)
        data = from_arrays([rng.normal(size=(n, 2)) for n in (8, 9)], [rng.normal(size=n) for n in (8, 9)])
        fit = (np.array([[[0.3], [1.0]], [[1.0], [0.6]]]), np.array([[1, 1], [1, 1]]))
        monkeypatch.setattr(invariance, "fit_subsets", lambda dataset, subsets, targets: fit)
        made = []
        original = invariance._null_pvalues

        def recording(seed, dofs, b, statistics):
            made.append((tuple(dofs.tolist()), np.asarray(statistics).tolist()))
            return original(seed, dofs, b, statistics)

        monkeypatch.setattr(invariance, "_null_pvalues", recording)
        config = TestConfig(mc_samples=20, seed=1)
        first = _own_level(data, [(1,), (2,)], config)[3].tolist()
        assert made == [((7, 8), [[0.3], [0.6]])]
        assert _own_level(data, [(1,), (2,)], config)[3].tolist() == first
        assert made == 2 * [((7, 8), [[0.3], [0.6]])]
        assert [mc_pvalue(t, [7, 8], 20, 1) for t in (0.3, 0.6)] == first

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
    expected = np.sort(original(dofs, np.random.default_rng(np.random.SeedSequence([seed, *dofs])), 40))
    statistics = np.array([0.0, 0.5, 1.0, math.inf, *expected[::8]])
    p_values = _null_pvalues(seed, np.array(dofs), 40, statistics)
    listed = np.random.SeedSequence([seed, *dofs])
    assert np.array_equal(streams[0].generate_state(8), listed.generate_state(8))
    counts = (expected[None] <= statistics[:, None]).sum(1)
    assert np.array_equal(p_values, (1 + counts) / 41) and p_values[3] == 1.0


def _assert_reports_match_scalar_path(data, subsets, config):
    """Each report of ``level_reports`` of the dataset's own target equals the one-row
    statistic and p-value of the fit that ``invariance.fit_subsets`` gives for
    its level."""
    reports = level_reports(subsets, *_own_level(data, subsets, config))
    assert [r.subset for r in reports] == [tuple(s) for s in subsets]
    for report, norms, ranks in zip(reports, *_fit_own(data, subsets, invariance.fit_subsets)):
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
    monkeypatch.setattr(invariance, "fit_subsets", lambda dataset, level, targets: (norms[..., None], ranks))
    config = TestConfig(alpha=0.3, mc_samples=50, seed=4)
    reports = _assert_reports_match_scalar_path(data, subsets, config)
    assert math.isinf(reports[4].statistic) and reports[4].p_value == 1.0
    assert reports[3].statistic == 0.0 and reports[3].p_value == 1.0
    assert reports[0].dofs == reports[1].dofs and reports[3].dofs == reports[5].dofs
    assert len({r.p_value for r in reports}) > 2
    # A level call draws each finite dof vector once; the next call draws
    # the same five vectors again, since no draws outlive a call.
    drawn.clear()
    _own_level(data, subsets, config)
    assert len(drawn) == len(set(drawn)) == 5
    _own_level(data, subsets, config)
    assert len(drawn) == 10 and drawn[5:] == drawn[:5]


def test_targets_share_one_draw_per_dof_vector(monkeypatch):
    # Three targets on one dataset: its own, another, and a zero target whose
    # statistics are all infinite.  A rank-deficient first environment (its
    # first covariate is zero) gives each level up to two dof vectors.
    rng = np.random.default_rng(3)
    sizes = (6, 9, 9, 12)
    covs = [rng.normal(size=(n, 3)) for n in sizes]
    covs[0][:, 0] = 0.0
    data = from_arrays(covs, [rng.normal(size=n) for n in sizes]).with_intercept()
    other = np.where(np.arange(12)[:, None] < np.array(sizes), rng.normal(size=(12, 4)), 0.0)
    ys = np.stack([data.target, other, np.zeros((12, 4))], axis=1)
    targets = (ys, *data.target_cross_products(ys))
    config = TestConfig(mc_samples=40, seed=9)
    drawn = []
    original = invariance._null_pvalues

    def recording(seed, dofs, b, statistics):
        drawn.append(tuple(dofs.tolist()))
        return original(seed, dofs, b, statistics)

    monkeypatch.setattr(invariance, "_null_pvalues", recording)
    shared = 0
    for k in range(4):
        subsets = list(itertools.combinations(range(1, 4), k))
        drawn.clear()
        _, dofs, statistics, p_values, rejected = level_pvalues(data, subsets, config, targets)
        finite = np.isfinite(statistics)
        assert not finite[:, 2].any()
        per_target = [{tuple(dofs[i].tolist()) for i in np.flatnonzero(finite[:, t])} for t in range(3)]
        vectors = set().union(*per_target)
        assert len(drawn) == len(set(drawn)) == len(vectors) >= 1
        shared += sum(map(len, per_target)) - len(vectors)
        # Every cell is tested: an infinite statistic in a drawn row counts
        # every draw, so it gets exactly mc_pvalue's 1.
        for (i, t), p in np.ndenumerate(p_values):
            assert p == mc_pvalue(statistics[i, t], dofs[i], config.mc_samples, config.seed), (subsets[i], t)
        assert np.array_equal(rejected, p_values <= config.alpha)
    # Draws a target would have made on its own were shared with another.
    assert shared > 0


def make_dataset(rng, n, num_envs, beta_by_env, noise_std=1.0, d=None):
    d = d if d is not None else len(beta_by_env[0])
    covs, tgts = [], []
    for e in range(num_envs):
        x = rng.normal(size=(n, d))
        beta = np.asarray(beta_by_env[e % len(beta_by_env)], dtype=float)
        covs.append(x)
        tgts.append(x @ beta + noise_std * rng.normal(size=n))
    return from_arrays(covs, tgts)


def test_null_above_capacity_refused_before_anything_is_fitted_or_drawn(monkeypatch):
    # 2^23 draws in each of 30 environments are 2 GB; phi_S, through
    # level_pvalues, and mc_pvalue refuse them before they fit or draw.
    monkeypatch.setattr(invariance, "fit_subsets", None)
    monkeypatch.setattr(invariance, "sample_null_ratio", None)
    rng = np.random.default_rng(0)
    data = from_arrays([rng.normal(size=(5, 2)) for _ in range(30)], [rng.normal(size=5) for _ in range(30)])
    doubles = f"is {30 * 2**23} doubles per null draw, above the limit of {MAX_DOUBLES} (1 GiB)"
    with pytest.raises(CapacityError, match=re.escape(f"mc_samples={2**23} x 30 environments {doubles}")):
        phi_S(data, (1,), TestConfig(mc_samples=2**23))
    with pytest.raises(CapacityError, match=re.escape(f"b={2**23} x 30 environments {doubles}")):
        mc_pvalue(0.5, [3] * 30, 2**23, 0)


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
        # The message names the subset sorted, as it is tested.
        with pytest.raises(InvalidInputError, match=r"subset \(1, 3\) is not contained"):
            phi_S(data, (3, 1), TestConfig())
        with pytest.raises(InvalidInputError, match=r"subset \(1.5,\) holds an index that is not an integer"):
            phi_S(data, (1.5,), TestConfig())
        with pytest.raises(InvalidInputError, match=r"subset \(2, True\) holds an index that is not"):
            phi_S(data, (2, True), TestConfig())
        # numpy integers are indices.
        assert phi_S(data, (np.int64(2), np.int32(1)), TestConfig()) == phi_S(data, (1, 2), TestConfig())

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
    series = gen_lorenz(1000, 3)
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
        for cols, norms, ranks in zip(level, *_fit_own(data, level)):
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
        _assert_reports_match_scalar_path(data, subsets, config)


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
        for cols, norms, ranks in zip(level, *_fit_own(data, level)):
            assert np.all(ranks == len(cols)), cols
            assert np.all(np.abs(norms - _qr_oracle(data, list(cols))) <= 1e-12 * yty), cols


def _independent():
    data, _ = gen_independent(IndependentGenConfig(num_envs=20, dimension=5), 4)
    return data.with_intercept()


def _lorenz_windows():
    series = gen_lorenz(2000, 5)
    return split_environments(series, 4, window=20, warmup=500, num_envs=75).with_intercept()


def _targets(data):
    """Three targets on ``data``'s covariates, ``(values, X'y, y'y)`` as the fit takes them:
    its own target, its first column (fitted exactly by any set that holds it)
    and noise, all zero past each ``n_e``."""
    rng = np.random.default_rng(15)
    rows = np.arange(len(data.target))[:, None] < np.array(data.sample_sizes)
    values = np.stack([data.target, data.covariates[:, 0], rng.normal(size=rows.shape) * rows], axis=1)
    return (values, *data.target_cross_products(values))


def _large_mean():
    # The collinear covariates with a target of mean 1e3 that the parents and
    # the intercept fit to RSS / y'y near 1e-8, below the guard of the
    # identity y'y - ||z||^2, (w + 1) * eps * RSS_MARGIN = 1.1e-7 for those
    # four columns: their cells take the explicit residual, while the other
    # targets of _targets keep the identity in the same pairs.
    rng = np.random.default_rng(16)
    covs, tgts = [], []
    for n in (12, 17, 25, 9):
        x = rng.normal(size=(n, 3))
        covs.append(np.column_stack([x, 2.0 * x[:, 0]]))
        tgts.append(1e3 + x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=n))
    return from_arrays(covs, tgts).with_intercept()


def _one_exact_environment():
    # The target is the first covariate, up to noise of 1e-6, in the first
    # environment and noisy elsewhere, so among the one-column sets of the
    # physical columns only ({0}, environment 0) has RSS / y'y below the
    # guard: the one cell of that level whose residual, nonzero, is formed
    # explicitly and summed over 20 samples.
    rng = np.random.default_rng(17)
    covs = [rng.normal(size=(n, 3)) for n in (20, 14, 18, 16)]
    tgts = [x @ np.array([1.0, 0.5, -1.0]) + rng.normal(size=len(x)) for x in covs]
    tgts[0] = covs[0][:, 0] + 1e-6 * rng.normal(size=20)
    return from_arrays(covs, tgts).with_intercept()


def _identity_cells(data, level, targets):
    """The ``(S, E)`` mask of certified pairs of the fit of ``level``, and the
    ``(T, S, E)`` mask of the cells whose RSS it takes as ``y'y - ||z||^2``:
    certified, and above the guard."""
    _, xty, yty = targets
    cols = np.asarray(level, dtype=np.intp).T
    eps = np.finfo(np.float64).eps
    z_sq, _, _, certified = invariance._cholesky_solve(data.gram, cols, np.moveaxis(xty[cols], 2, 1), len(cols) * eps)
    guard = (len(cols) + 1) * eps * invariance.RSS_MARGIN * yty[:, None]
    return certified, certified & (yty[:, None] - z_sq > guard)


@pytest.mark.parametrize(
    "make", [_lorenz_ragged, _lorenz_windows, _collinear, _interpolating, _straddling_certificate, _large_mean]
)
def test_rss_identity_matches_the_explicit_residual(make, monkeypatch):
    # With an infinite RSS_MARGIN every cell forms its residual explicitly,
    # the reference for the identity.  A cell that keeps the identity is
    # within 1e-8 of that RSS; every other cell has its bits.  No norm is
    # negative or NaN, and all stay within 1e-12 of y'y of the explicit pass
    # and of the per-environment fit.
    data = make()
    width, yty = _width_and_yty(data)
    fits = [_fit_own(data, level) for level in _levels(width)]
    with monkeypatch.context() as patch:
        patch.setattr(invariance, "RSS_MARGIN", math.inf)
        explicit = [_fit_own(data, level) for level in _levels(width)]
    kept = fell_back = 0
    for level, (norms, ranks), (ref, ref_ranks) in zip(_levels(width), fits, explicit):
        certified, identity = _identity_cells(data, level, _own(data))
        identity = identity[0]
        assert np.array_equal(ranks, ref_ranks)
        assert np.all(norms >= 0.0), level
        assert np.all(np.abs(norms - ref) <= 1e-12 * yty), level
        assert np.all(np.abs(norms - ref)[identity] <= 1e-8 * ref[identity]), level
        assert np.array_equal(norms[~identity], ref[~identity]), level
        for cols, row in zip(level, norms):
            assert np.all(np.abs(row - _per_env_oracle(data, list(cols))[0]) <= 1e-12 * yty), cols
        kept, fell_back = kept + identity.sum(), fell_back + (certified & ~identity).sum()
    assert kept > 0
    if make is _large_mean:
        # The parents and the intercept leave RSS / y'y below the guard.
        assert fell_back > 0


def test_trap_datasets_hold_the_cells_they_pin():
    # _one_exact_environment: one level with exactly one explicit cell of the
    # dataset's own target, which a fit of three targets sums with others.
    # _large_mean: a pair where the dataset's own target forms its residual
    # explicitly and the noise target keeps the identity.
    data = _one_exact_environment()
    width = data.environments[0].covariates.shape[1]
    assert (~_identity_cells(data, _levels(width)[1], _own(data))[1]).sum() == 1
    data = _large_mean()
    targets = _targets(data)
    cells = [_identity_cells(data, level, targets)[1] for level in _levels(data.num_covariates + 1)]
    assert any((~c[0] & c[2]).any() for c in cells)


def _assert_each_target_fits_as_alone(data, level, targets, norms, ranks):
    """Target t of a T-target fit has the bits of target t fitted on its own."""
    values, xty, yty = targets
    assert norms.shape == ranks.shape + (values.shape[1],)
    for t in range(values.shape[1]):
        alone = _fit_environments(data, level, (values[:, t : t + 1], xty[:, t : t + 1], yty[t : t + 1]))
        assert np.array_equal(alone[0][..., 0], norms[..., t]), (level, t)
        assert np.array_equal(alone[1], ranks), (level, t)


@pytest.mark.parametrize("make", [_independent, _lorenz_windows, _collinear, _interpolating])
def test_cholesky_fit_matches_svd_fit(make, monkeypatch):
    # With an infinite margin no environment is certified and every one
    # takes the SVD solve, which is the reference for the Cholesky solve.
    # There, too, each target of a multi-target fit keeps its own bits.
    data = make()
    width, yty = _width_and_yty(data)
    targets = _targets(data)
    fast = [_fit_own(data, level) for level in _levels(width)]
    monkeypatch.setattr(invariance, "CHOLESKY_MARGIN", math.inf)
    for level, (norms, ranks) in zip(_levels(width), fast):
        ref_norms, ref_ranks = _fit_own(data, level)
        assert ranks.tolist() == ref_ranks.tolist(), level
        assert np.all(np.abs(norms - ref_norms) <= 1e-12 * yty), level
        _assert_each_target_fits_as_alone(data, level, targets, *_fit_environments(data, level, targets))


@pytest.mark.parametrize("make", ORACLE_DATASETS + [_lorenz_windows, _one_exact_environment, _large_mean])
def test_batch_does_not_change_a_subsets_bits(make, monkeypatch):
    # Every physical column becomes a candidate, so column sets without the
    # intercept go through fit_subsets too.  A level fitted in one call, in
    # chunks of one subset, and subset by subset must give the same bits;
    # so must each target of a multi-target fit and that target fitted alone,
    # and the dataset's own target must keep its one-target bits.  The guard
    # of the RSS identity is per (pair, target), and a lone explicit cell is
    # summed as in a batch (_one_exact_environment, _large_mean).
    data = make()
    width = data.environments[0].covariates.shape[1]
    data = dataclasses.replace(data, num_covariates=width, intercept_added=False)
    targets, own = _targets(data), _own(data)
    assert np.array_equal(targets[1][:, :1], own[1]) and np.array_equal(targets[2][:1], own[2])
    whole = [_fit_own(data, level) for level in _levels(width)]
    several = [_fit_environments(data, level, targets) for level in _levels(width)]
    monkeypatch.setattr(invariance, "FIT_CHUNK_DOUBLES", 1)
    for level, (norms, ranks), (t_norms, t_ranks) in zip(_levels(width), whole, several):
        subsets = [tuple(cols + 1) for cols in level]
        chunked = _fit_own(data, subsets, fit_subsets)
        alone = [_fit_own(data, [s], fit_subsets) for s in subsets]
        for fit in (chunked, tuple(np.concatenate(part) for part in zip(*alone))):
            assert np.array_equal(fit[0], norms)
            assert np.array_equal(fit[1], ranks)
        assert np.array_equal(t_norms[..., 0], norms) and np.array_equal(t_ranks, ranks)
        _assert_each_target_fits_as_alone(data, level, targets, t_norms, t_ranks)
        chunked = fit_subsets(data, subsets, targets)
        assert np.array_equal(chunked[0], t_norms) and np.array_equal(chunked[1], t_ranks)


def test_one_failing_pivot_stays_local(monkeypatch):
    # Only the environment whose column is zero fails its pivot; the others
    # of the same subset keep the Cholesky solve.  The SVD gets exactly the
    # singular (column set, environment) pairs; the empty set is certified.
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
        _fit_own(data, level)
    assert sum(seen) == singular


def test_empty_column_set_is_an_ordinary_solve(monkeypatch):
    # Without an intercept the empty set is a width-0 Cholesky solve: every
    # pair certified with rank 0, no SVD, and the norms are y'y bit for bit.
    rng = np.random.default_rng(8)
    sizes = (5, 9, 7)
    data = from_arrays([rng.normal(size=(n, 2)) for n in sizes], [rng.normal(size=n) for n in sizes])
    assert not data.intercept_added

    def refusing(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refusing)
    norms, ranks = _fit_own(data, [[]])
    assert ranks.tolist() == [[0, 0, 0]]
    assert np.array_equal(norms[0], (data.target**2).sum(0))


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
        for cols, norms, ranks in zip(level, *_fit_own(data, level)):
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


@pytest.mark.parametrize("alpha", [False, True])
def test_config_rejects_alpha_that_is_not_a_number(alpha):
    with pytest.raises(InvalidInputError, match=f"alpha must be a number, got {alpha!r}"):
        TestConfig(alpha=alpha)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TestConfig(alpha=1.0)
    with pytest.raises(InvalidInputError):
        TestConfig(mc_samples=0)
    TestConfig(alpha=0.0)  # degenerate never-reject level is admitted
