import re
import warnings

import numpy as np
import pytest

from localicp import datagen
from localicp.datagen import (
    LORENZ_INITIAL_STATE,
    IndependentGenConfig,
    SemGenConfig,
    gen_independent,
    gen_lorenz,
    gen_sem,
    next_steps,
    sem_cascade,
    split_environments,
    window_steps,
)
from localicp.dataset import from_arrays
from localicp.errors import (
    MAX_DOUBLES,
    CapacityError,
    DivergenceError,
    InvalidInputError,
    ShapeError,
    check_capacity,
)


class TestIndependent:
    def test_shapes_and_truth_support(self):
        cfg = IndependentGenConfig(num_envs=4, samples_per_env=15, dimension=5, parent_set=(1, 4))
        data, truth = gen_independent(cfg, 0)
        assert data.num_envs == 4
        assert data.num_covariates == 5
        assert all(e.covariates.shape == (15, 5) for e in data.environments)
        assert truth.parent_set == (1, 4)
        for beta in truth.betas:
            assert beta[1] == beta[2] == beta[4] == 0.0
            assert 1.0 <= beta[0] <= 5.0 and 1.0 <= beta[3] <= 5.0

    def test_target_equals_linear_combination_plus_noise(self):
        cfg = IndependentGenConfig(num_envs=3, samples_per_env=40)
        data, truth = gen_independent(cfg, 7)
        for env, beta in zip(data.environments, truth.betas):
            noise = env.target - env.covariates @ np.asarray(beta)
            # noise std is 2; the empirical value should be in a loose band
            assert 0.8 < noise.std() < 4.0

    @pytest.mark.parametrize("family", ["normal", "uniform", "student_t"])
    def test_families_standardized(self, family):
        cfg = IndependentGenConfig(
            num_envs=1,
            samples_per_env=200_000,
            dimension=1,
            parent_set=(1,),
            covariate_family=family,
            sigma_range=(1.0, 1.0),
            mean_range=(0.0, 0.0),
        )
        data, _ = gen_independent(cfg, 11)
        col = data.environments[0].covariates[:, 0]
        assert abs(col.mean()) < 0.02
        assert abs(col.var() - 1.0) < 0.05

    def test_uniform_family_bounded(self):
        cfg = IndependentGenConfig(
            num_envs=2,
            samples_per_env=5000,
            dimension=2,
            parent_set=(1,),
            covariate_family="uniform",
            sigma_range=(1.0, 1.0),
            mean_range=(0.0, 0.0),
        )
        data, _ = gen_independent(cfg, 3)
        bound = np.sqrt(3.0) + 1e-12
        for env in data.environments:
            assert np.abs(env.covariates).max() <= bound

    def test_deterministic_and_prefix_stable(self):
        cfg3 = IndependentGenConfig(num_envs=3, samples_per_env=10)
        cfg5 = IndependentGenConfig(num_envs=5, samples_per_env=10)
        a, _ = gen_independent(cfg3, 42)
        b, _ = gen_independent(cfg5, 42)
        for ea, eb in zip(a.environments, b.environments):
            assert ea.covariates.tobytes() == eb.covariates.tobytes()
            assert ea.target.tobytes() == eb.target.tobytes()
        c, _ = gen_independent(cfg3, 43)
        assert a.environments[0].target.tobytes() != c.environments[0].target.tobytes()

    def test_config_validation(self):
        for parent_set in ((0,), (1.0,), (True,), "12"):
            with pytest.raises(InvalidInputError, match="parent_set .* must hold integers in 1..6"):
                IndependentGenConfig(parent_set=parent_set)
        with pytest.raises(InvalidInputError, match=r"^parent_set \(2, 2\) holds repeated indices$"):
            IndependentGenConfig(parent_set=(2, 2))
        with pytest.raises(InvalidInputError):
            IndependentGenConfig(covariate_family="poisson")
        with pytest.raises(InvalidInputError):
            IndependentGenConfig(covariate_family="student_t", student_t_dof=2)
        with pytest.raises(InvalidInputError):
            IndependentGenConfig(sigma_range=(0.0, 1.0))
        with pytest.raises(InvalidInputError):
            IndependentGenConfig(target_noise_std=0.0)
        for counts in ({"samples_per_env": 10.5}, {"dimension": 0}, {"num_envs": "5"}):
            with pytest.raises(InvalidInputError, match="must be a positive integer"):
                IndependentGenConfig(**counts)
        # Covariates plus target: 2 columns per row at dimension 1.
        IndependentGenConfig(num_envs=1, samples_per_env=MAX_DOUBLES // 2, dimension=1, parent_set=(1,))
        with pytest.raises(CapacityError, match="num_envs=1 x samples_per_env=67108865 x 2 columns"):
            IndependentGenConfig(num_envs=1, samples_per_env=MAX_DOUBLES // 2 + 1, dimension=1, parent_set=(1,))


class TestSem:
    def test_noiseless_cascade_worked_example(self):
        # Single unit of X1 noise, everything else silent, unit coefficients.
        eps = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        x, y = sem_cascade(eps, beta2=1.0, beta3=1.0)
        np.testing.assert_allclose(x[0], [1.0, 1.0, 0.3, 0.06, 1.4, 1.3], atol=1e-15)
        assert y[0] == pytest.approx(1.3, abs=1e-15)

    def test_target_noise_propagates_to_descendants(self):
        eps = np.array([[0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]])
        x, y = sem_cascade(eps, beta2=1.5, beta3=0.5)
        assert y[0] == 2.0
        assert x[0, 4] == 2.0  # X5 inherits Y
        assert x[0, 5] == 2.0  # X6 inherits Y

    def test_cascade_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            sem_cascade(np.zeros((3, 6)), 1.0, 1.0)

    def test_truth_parents_and_betas(self):
        data, truth = gen_sem(SemGenConfig(num_envs=3, samples_per_env=20), 5)
        assert truth.parent_set == (2, 3)
        assert data.num_covariates == 6
        for beta in truth.betas:
            assert beta[0] == beta[3] == beta[4] == beta[5] == 0.0
            assert 1.0 <= beta[1] <= 5.0 and 1.0 <= beta[2] <= 5.0

    def test_fourth_scale_reuses_third_by_default(self):
        cfg = SemGenConfig(num_envs=2, samples_per_env=30)
        data, _ = gen_sem(cfg, 9)
        for e, env in enumerate(data.environments):
            # Replay the environment's own stream: six scales, two
            # coefficients, then the (n, 7) noise block.
            rng = np.random.default_rng(np.random.SeedSequence([9, e]))
            sigma = rng.uniform(*cfg.sigma_range, 6)
            rng.uniform(*cfg.beta_range, 2)
            eps = rng.standard_normal((cfg.samples_per_env, 7))
            x3, x4 = env.covariates[:, 2], env.covariates[:, 3]
            np.testing.assert_allclose(x4 - 0.2 * x3, sigma[2] * eps[:, 3], rtol=1e-12, atol=1e-12)
            assert not np.allclose(x4 - 0.2 * x3, sigma[3] * eps[:, 3])

    def test_zero_heterogeneity_pins_parameters(self):
        cfg = SemGenConfig(num_envs=4, samples_per_env=10, heterogeneity=0.0)
        assert cfg.env_ranges() == ((2.0, 2.0), (1.0, 1.0))
        _, truth = gen_sem(cfg, 1)
        for beta in truth.betas:
            assert beta[1] == 1.0 and beta[2] == 1.0

    def test_heterogeneity_widens_ranges(self):
        cfg = SemGenConfig(heterogeneity=4.0)
        assert cfg.env_ranges() == ((2.0, 6.0), (1.0, 5.0))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SemGenConfig(sigma_y=0.0)
        with pytest.raises(InvalidInputError):
            SemGenConfig(heterogeneity=-1.0)
        with pytest.raises(InvalidInputError, match="num_envs must be a positive integer"):
            SemGenConfig(num_envs=2.0)
        SemGenConfig(num_envs=1, samples_per_env=MAX_DOUBLES // 7)
        with pytest.raises(CapacityError, match="x 7 columns"):
            SemGenConfig(num_envs=1, samples_per_env=MAX_DOUBLES // 7 + 1)


class TestLorenz:
    def test_single_noiseless_step(self):
        # The first step of seed 0 less its own noise draw is the noiseless
        # map's step from the fixed initial state, worked by hand.
        series = gen_lorenz(1, 0)
        eps = np.random.default_rng(np.random.SeedSequence([0])).standard_normal((1, 6))
        np.testing.assert_array_equal(series[0], LORENZ_INITIAL_STATE)
        np.testing.assert_allclose(
            series[1] - eps[0],
            (1.897, 1.5005, 0.962967, 0.9176, 0.9712, 1.0),
            rtol=0,
            atol=1e-12,
        )

    def test_shape_and_determinism(self):
        a = gen_lorenz(200, 12)
        b = gen_lorenz(200, 12)
        assert a.shape == (201, 6)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != gen_lorenz(200, 13).tobytes()

    def test_random_walk_coordinate_is_autonomous(self):
        # Coordinate 6 ignores the chaotic block: increments are the pure
        # noise stream, independent of the other coordinates.
        series = gen_lorenz(100, 4)
        rng = np.random.default_rng(np.random.SeedSequence([4]))
        eps = rng.standard_normal((100, 6))
        np.testing.assert_allclose(np.diff(series[:, 5]), eps[:, 5], atol=1e-12)

    def test_divergence_reported_with_step(self, monkeypatch):
        # With the bound lowered to 3, the first step whose state leaves it is
        # reported in the message, and nothing warns.
        monkeypatch.setattr(datagen, "LORENZ_OVERFLOW", 3.0)
        for seed, step in ((0, 2), (3, 1), (7, 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                message = f"trajectory diverged at step {step} (state magnitude above 3)"
                with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
                    gen_lorenz(50, seed)

    def test_matches_the_array_filling_loop(self, monkeypatch):
        # The step loop writing each state into a preallocated array, with the
        # same divergence check: the list-building loop must give its bits.
        def filled(horizon, seed):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
            eps = rng.standard_normal((horizon, 6))
            out = np.empty((horizon + 1, 6))
            out[0] = LORENZ_INITIAL_STATE
            x1, x2, x3, x4, x5, x6 = LORENZ_INITIAL_STATE
            for t in range(horizon):
                e1, e2, e3, e4, e5, e6 = eps[t].tolist()
                n1 = 0.9 * x1 + 0.1 * x2 + e1
                n2 = 0.28 * x1 - 0.01 * x1 * x3 + 0.99 * x2 + e2
                n3 = 0.01 * x1 * (x2 - x4) + 0.9733 * x3 + e3
                n4 = 0.01 * x1 * (x3 - 2.0 * x5) + 0.9366 * x4 + e4
                n5 = 0.02 * x1 * x4 + 0.96 * x5 + e5
                x1, x2, x3, x4, x5, x6 = n1, n2, n3, n4, n5, x6 + e6
                out[t + 1] = (x1, x2, x3, x4, x5, x6)
            bound = datagen.LORENZ_OVERFLOW
            diverged = np.flatnonzero(~(np.abs(out[1:]) <= bound).all(axis=1)).tolist()
            if diverged:
                raise DivergenceError(f"trajectory diverged at step {diverged[0] + 1} (state magnitude above {bound:g})")
            return out

        for seed in (0, 5, 17, 2024):
            expected, series = filled(2000, seed), gen_lorenz(2000, seed)
            assert series.dtype == expected.dtype and series.flags.c_contiguous
            np.testing.assert_array_equal(series, expected)
        monkeypatch.setattr(datagen, "LORENZ_OVERFLOW", 3.0)
        for seed in (0, 3, 7):
            with pytest.raises(DivergenceError) as want:
                filled(2000, seed)
            with pytest.raises(DivergenceError) as got:
                gen_lorenz(2000, seed)
            assert str(got.value) == str(want.value)

    def test_horizon_validation(self):
        for horizon in (2.5, 0, True):
            with pytest.raises(InvalidInputError, match="horizon must be a positive integer"):
                gen_lorenz(horizon, 0)
        # Noise (horizon x 6) and states ((horizon + 1) x 6) share the ceiling,
        # which is checked before anything is drawn.
        # window_steps applies the same check without simulating the largest.
        largest = (MAX_DOUBLES - 6) // 12
        assert window_steps(largest, 1, 0) == largest
        message = f"a trajectory of {largest + 1} steps needs {12 * largest + 18} doubles, above the limit"
        with pytest.raises(CapacityError, match=f"^{message}"):
            gen_lorenz(largest + 1, 0)
        with pytest.raises(CapacityError, match=rf"^warmup \+ num_envs x window = 0 \+ 1 x {largest + 1}: {message}"):
            window_steps(largest + 1, 1, 0)

    def test_long_noisy_run_stays_bounded(self):
        series = gen_lorenz(8500, 2)
        assert np.isfinite(series).all()


class TestSplitEnvironments:
    def test_windows_and_shifted_target(self):
        steps = 12
        series = np.arange(steps * 2, dtype=float).reshape(steps, 2)
        data = split_environments(series, target=2, window=3, warmup=2, num_envs=3)
        assert data.num_envs == 3
        assert data.num_covariates == 2
        first = data.environments[0]
        np.testing.assert_array_equal(first.covariates, series[2:5])
        np.testing.assert_array_equal(first.target, series[3:6, 1])
        last = data.environments[2]
        np.testing.assert_array_equal(last.covariates, series[8:11])
        np.testing.assert_array_equal(last.target, series[9:12, 1])

    def test_windows_are_disjoint_and_consecutive(self):
        series = np.arange(50, dtype=float).reshape(25, 2)
        data = split_environments(series, target=1, window=4, warmup=1, num_envs=5)
        starts = [int(e.covariates[0, 0]) for e in data.environments]
        assert starts == [2, 10, 18, 26, 34]

    def test_equals_from_arrays_of_window_slices(self):
        series = gen_lorenz(300, 1)
        starts = range(100, 300, 20)
        ref = from_arrays(
            [series[s : s + 20] for s in starts], [series[s + 1 : s + 21, 2] for s in starts]
        )
        data = split_environments(series, target=3, window=20, warmup=100, num_envs=10)
        for a, b in ((data, ref), (data.with_intercept(), ref.with_intercept())):
            assert a.sample_sizes == b.sample_sizes == (20,) * 10
            assert a.covariates.flags.c_contiguous
            assert np.array_equal(a.covariates, b.covariates)
            assert np.array_equal(a.target, b.target)
            assert np.array_equal(a.gram, b.gram)

    def test_too_short_series(self):
        series = np.zeros((10, 3))
        with pytest.raises(ShapeError):
            split_environments(series, target=1, window=5, warmup=0, num_envs=2)
        # A given series is measured against the windows, not against the
        # ceiling of a trajectory gen_lorenz would simulate.
        with pytest.raises(ShapeError, match="series has 10 steps"):
            split_environments(series, target=1, window=20, warmup=0, num_envs=10**8)

    def test_counts_must_be_integers(self):
        series = np.zeros((30, 3))
        for name, value in (("window", 2.5), ("num_envs", 2.5), ("window", 0)):
            counts = {"window": 5, "num_envs": 2, name: value}
            with pytest.raises(InvalidInputError, match=f"{name} must be a positive integer"):
                split_environments(series, target=1, warmup=0, **counts)
        for warmup in (-1, 1.5):
            with pytest.raises(InvalidInputError, match="warmup must be a non-negative integer"):
                split_environments(series, target=1, window=5, warmup=warmup, num_envs=2)

    def test_bad_target_coordinate(self):
        series = np.zeros((30, 3))
        with pytest.raises(InvalidInputError):
            split_environments(series, target=4, window=5, warmup=0, num_envs=2)

    def test_target_must_be_an_integer(self):
        # True is not coordinate 1, and 1.5 is no coordinate at all.
        series = np.arange(90, dtype=float).reshape(30, 3)
        for target in (True, False, 1.5, 2.0, "1"):
            message = f"target must be an integer coordinate in 1..3, got {target!r}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                split_environments(series, target=target, window=5, warmup=0, num_envs=2)
        data = split_environments(series, target=np.int64(2), window=5, warmup=0, num_envs=2)
        assert np.array_equal(data.environments[0].target, series[1:6, 1])

    def test_next_steps_are_every_coordinates_target(self):
        series = gen_lorenz(300, 2)
        steps = next_steps(series, window=20, warmup=100, num_envs=10)
        assert steps.shape == (20, 6, 10)
        for target in range(1, 7):
            data = split_environments(series, target=target, window=20, warmup=100, num_envs=10)
            assert np.array_equal(steps[:, target - 1], data.target)

    def test_single_environment_allowed(self):
        series = np.arange(20, dtype=float).reshape(10, 2)
        data = split_environments(series, target=1, window=5, warmup=0, num_envs=1)
        assert data.num_envs == 1


def test_check_capacity_admits_max_doubles_and_refuses_one_more():
    check_capacity(MAX_DOUBLES, "a block")
    with pytest.raises(CapacityError) as exc:
        check_capacity(MAX_DOUBLES + 1, f"a block of {MAX_DOUBLES + 1} doubles")
    assert str(exc.value) == "a block of 134217729 doubles, above the limit of 134217728 (1 GiB)"


@pytest.mark.parametrize("seed", [1.5, -1, True, "1", None])
@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: gen_independent(IndependentGenConfig(num_envs=2, samples_per_env=5), seed),
        lambda seed: gen_sem(SemGenConfig(num_envs=2, samples_per_env=5), seed),
        lambda seed: gen_lorenz(5, seed),
    ],
    ids=["independent", "sem", "lorenz"],
)
def test_generators_refuse_a_seed_that_is_no_non_negative_integer(generate, seed):
    # 1.5 was taken as seed 1, and -1 ended in numpy's own ValueError.
    with pytest.raises(InvalidInputError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
        generate(seed)

