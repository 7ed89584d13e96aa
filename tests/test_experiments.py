import dataclasses
import io
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from localicp import experiments, invariance
from localicp.datagen import (
    IndependentGenConfig,
    SemGenConfig,
    gen_lorenz,
    next_steps,
    split_environments,
    window_steps,
)
from localicp.discovery import discover, discover_targets
from localicp.errors import CapacityError, DivergenceError, InvalidInputError
from localicp.experiments import (
    MAX_ATTEMPTS,
    NetworkResult,
    Scenario,
    binomial_test_greater,
    clopper_pearson,
    derived_seed,
    metrics_to_csv,
    network_detect,
    run_trials,
    trials_to_dict,
)
from localicp.invariance import TestConfig


def cp_oracle(successes, trials, level=0.95):
    """Clopper-Pearson endpoints by bisection on the exact binomial tail."""
    tail = (1 - level) / 2

    def binom_ge(k, n, p):
        # P(X >= k) for X ~ Bin(n, p), as the regularized incomplete beta I_p(k, n - k + 1).
        return mpmath.betainc(k, n - k + 1, 0, p, regularized=True)

    def bisect(f):
        a, b = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(120):
            mid = (a + b) / 2
            if f(mid) < 0:
                a = mid
            else:
                b = mid
        return float((a + b) / 2)

    with mpmath.workdps(50):
        # binom_ge is increasing in p, so each tail equation has one root.
        if successes == 0:
            lo = 0.0
        else:
            lo = bisect(lambda p: binom_ge(successes, trials, p) - tail)
        if successes == trials:
            hi = 1.0
        else:
            hi = bisect(lambda p: binom_ge(successes + 1, trials, p) - (1 - tail))
    return lo, hi


class TestCloppersPearson:
    @pytest.mark.parametrize("s,n", [(0, 10), (10, 10), (3, 10), (7, 50), (1, 500)])
    def test_against_bisection_oracle(self, s, n):
        lo, hi = clopper_pearson(s, n)
        olo, ohi = cp_oracle(s, n)
        assert lo == pytest.approx(olo, abs=1e-8)
        assert hi == pytest.approx(ohi, abs=1e-8)

    def test_boundary_conventions(self):
        assert clopper_pearson(0, 20)[0] == 0.0
        assert clopper_pearson(20, 20)[1] == 1.0

    def test_interval_contains_point_estimate(self):
        for s, n in [(2, 9), (5, 11), (40, 100)]:
            lo, hi = clopper_pearson(s, n)
            assert lo <= s / n <= hi

    def test_endpoints_match_scipy_beta_quantiles(self):
        # scipy is the oracle here only; the package does not import it.
        worst = 0.0
        for n in (1, 2, 3, 5, 10, 20, 50, 100, 300, 500):
            for s in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
                lo, hi = clopper_pearson(s, n)
                olo = 0.0 if s == 0 else stats.beta.ppf(0.025, s, n - s + 1)
                ohi = 1.0 if s == n else stats.beta.ppf(0.975, s + 1, n - s)
                worst = max(worst, abs(lo - olo), abs(hi - ohi))
        assert worst <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            clopper_pearson(5, 3)

    @pytest.mark.parametrize(
        "successes,trials,message",
        [
            (True, 10, "successes must be a non-negative integer, got True"),
            (2.5, 10, "successes must be a non-negative integer, got 2.5"),
            (-1, 10, "successes must be a non-negative integer, got -1"),
            (2, 10.0, "trials must be a positive integer, got 10.0"),
            (0, 0, "trials must be a positive integer, got 0"),
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, successes, trials, message):
        # True was read as 1 success, and 2.5 ended in a raw TypeError.
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            clopper_pearson(successes, trials)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            binomial_test_greater(successes, trials, 0.1)


class TestBinomialTestGreater:
    @pytest.mark.parametrize("k,n,p0", [(3, 10, 0.1), (15, 50, 0.1), (1, 4, 0.5)])
    def test_against_exact_fraction_oracle(self, k, n, p0):
        frac = Fraction(p0).limit_denominator(10**6)
        exact = sum(
            Fraction(math.comb(n, i)) * frac**i * (1 - frac) ** (n - i)
            for i in range(k, n + 1)
        )
        assert binomial_test_greater(k, n, p0) == pytest.approx(float(exact), abs=1e-8)

    def test_correctly_rounded_on_every_cell_up_to_sixty_runs(self):
        # The exact tail at the double nearest 0.1, as a Fraction, then rounded once.
        p0 = Fraction(0.1)
        for n in range(1, 61):
            pmf = [math.comb(n, i) * p0**i * (1 - p0) ** (n - i) for i in range(n + 1)]
            tail = Fraction(0)
            for k in range(n, 0, -1):
                tail += pmf[k]
                assert binomial_test_greater(k, n, 0.1) == float(tail), (k, n)

    def test_zero_successes(self):
        assert binomial_test_greater(0, 30, 0.1) == 1.0

    def test_all_successes_small(self):
        assert binomial_test_greater(10, 10, 0.5) == pytest.approx(0.5**10, rel=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            binomial_test_greater(2, 1, 0.1)
        with pytest.raises(InvalidInputError):
            binomial_test_greater(1, 10, 0.0)


class TestDerivedSeed:
    def test_deterministic(self):
        assert derived_seed(1, 2, 3) == derived_seed(1, 2, 3)

    def test_distinct_across_components(self):
        seeds = {derived_seed(a, b) for a in range(10) for b in range(10)}
        assert len(seeds) == 100

    def test_64_bit_range(self):
        s = derived_seed(7)
        assert 0 <= s < 2**64


class TestScenario:
    def doc(self):
        return {
            "generator": {"kind": "independent", "num_envs": 5, "samples_per_env": 10},
            "test": {"alpha": 0.05, "mc_samples": 50},
            "sweep": {"parameter": "samples_per_env", "grid": [10, 20]},
            "runs": 4,
        }

    def test_from_dict(self):
        s = Scenario.from_dict(self.doc())
        assert type(s.generator_config) is IndependentGenConfig
        assert s.generator_config.num_envs == 5
        assert s.test_config.alpha == 0.05
        assert s.grid == (10, 20)
        assert s.runs == 4
        assert s.intercept is True

    def test_from_dict_tuple_coercion(self):
        doc = self.doc()
        doc["generator"]["sigma_range"] = [1.0, 2.0]
        s = Scenario.from_dict(doc)
        assert s.generator_config.sigma_range == (1.0, 2.0)

    def test_unknown_generator(self):
        doc = self.doc()
        doc["generator"]["kind"] = "mystery"
        with pytest.raises(InvalidInputError):
            Scenario.from_dict(doc)

    def test_generator_config_of_another_class_refused(self):
        # The config's class picks the generator, so only a generator's config is taken.
        fields = dict(test_config=TestConfig(), sweep_parameter="alpha", grid=(0.1,), runs=1)
        message = "generator_config must be one of IndependentGenConfig, SemGenConfig, got TestConfig("
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            Scenario(generator_config=TestConfig(), **fields)

    def test_unknown_config_field(self):
        doc = self.doc()
        doc["generator"]["bogus"] = 1
        with pytest.raises(InvalidInputError):
            Scenario.from_dict(doc)

    def test_missing_keys(self):
        with pytest.raises(InvalidInputError):
            Scenario.from_dict({"generator": {"kind": "sem"}})
        no_parameter = self.doc()
        del no_parameter["sweep"]["parameter"]
        with pytest.raises(InvalidInputError, match="parameter"):
            Scenario.from_dict(no_parameter)
        for test, field in (
            ({"alfa": 0.1}, "alfa"),
            ({"alpha": "0.1"}, "alpha"),
            ({"alpha": False}, "alpha must be a number, got False"),
            ({"rank_tol": 1e-9}, "rank_tol"),
        ):
            doc = self.doc()
            doc["test"] = test
            with pytest.raises(InvalidInputError, match=field):
                Scenario.from_dict(doc)
        sem_sigma4 = self.doc()
        sem_sigma4["generator"] = {"kind": "sem", "num_envs": 5, "separate_sigma4": True}
        with pytest.raises(InvalidInputError, match="separate_sigma4"):
            Scenario.from_dict(sem_sigma4)
        for value in ("ten", 10.5):
            bad_grid = self.doc()
            bad_grid["sweep"]["grid"] = [10, value]
            with pytest.raises(InvalidInputError, match=f"sweep.grid value {value!r}"):
                Scenario.from_dict(bad_grid)
        string_grid = self.doc()
        string_grid["sweep"]["grid"] = "ten"
        with pytest.raises(InvalidInputError, match="sweep.grid must be a list, got 'ten'"):
            Scenario.from_dict(string_grid)
        for value in ("false", 1):
            not_boolean = self.doc()
            not_boolean["intercept"] = value
            with pytest.raises(InvalidInputError, match=f"intercept must be true or false, got {value!r}"):
                Scenario.from_dict(not_boolean)

    def test_sweep_parameter_must_exist(self):
        doc = self.doc()
        doc["sweep"]["parameter"] = "not_a_field"
        with pytest.raises(InvalidInputError):
            Scenario.from_dict(doc)


def small_scenario(runs=6):
    return Scenario(
        generator_config=IndependentGenConfig(num_envs=5, samples_per_env=15, dimension=3, parent_set=(1,)),
        test_config=TestConfig(alpha=0.1, mc_samples=50),
        sweep_parameter="samples_per_env",
        grid=(10, 25),
        runs=runs,
    )


class TestRunTrials:
    def test_shapes_and_rates_in_unit_interval(self):
        metrics = run_trials(small_scenario(), seed=3)
        assert [m.sweep for m in metrics] == [10, 25]
        for m in metrics:
            assert 0.0 <= m.fnr <= 1.0 and 0.0 <= m.fpr <= 1.0
            assert m.fnr_ci[0] <= m.fnr <= m.fnr_ci[1]
            assert m.fpr_ci[0] <= m.fpr <= m.fpr_ci[1]
            assert m.runs == 6
            assert len(m.run_detail) == m.runs

    def test_seed_checked(self):
        with pytest.raises(InvalidInputError, match="seed must be a non-negative integer, got -1"):
            run_trials(small_scenario(runs=1), seed=-1)

    def test_test_seed_refused(self):
        # Each run's test seed derives from the sweep's seed, so this one would not be read.
        message = "test_config.seed is not read: each run's test seed derives from seed"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(small_scenario(), test_config=TestConfig(seed=5))

    def test_run_record_depends_only_on_seed_grid_point_and_run(self):
        # Run r of grid point g draws from (seed, g, r) alone, so a longer
        # sweep at the same seed starts with the shorter sweep's records.
        short = run_trials(small_scenario(runs=4), seed=11)
        long = run_trials(small_scenario(runs=8), seed=11)
        for s, l in zip(short, long, strict=True):
            assert l.run_detail[:4] == s.run_detail

    def test_csv_round_trip_preserves_rates(self):
        metrics = run_trials(small_scenario(runs=4), seed=8)
        buf = io.StringIO()
        metrics_to_csv(metrics, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "sweep,fnr,fnr_lo,fnr_hi,fpr,fpr_lo,fpr_hi,runs"
        assert len(lines) == 1 + len(metrics)
        row = lines[1].split(",")
        assert float(row[1]) == metrics[0].fnr
        assert float(row[2]) == metrics[0].fnr_ci[0]

    def test_json_document_schema(self):
        scenario = small_scenario(runs=3)
        metrics = run_trials(scenario, seed=1)
        doc = trials_to_dict(scenario, metrics, 1)
        assert doc["schema_version"] == 2
        assert doc["sweep_parameter"] == "samples_per_env"
        assert len(doc["points"]) == 2
        point = doc["points"][0]
        assert set(point) == {"sweep", "fnr", "fnr_ci", "fpr", "fpr_ci", "runs", "run_detail"}

    def test_sem_scenario_runs(self):
        scenario = Scenario(
            generator_config=SemGenConfig(num_envs=6, samples_per_env=20),
            test_config=TestConfig(mc_samples=50),
            sweep_parameter="heterogeneity",
            grid=(0.0, 4.0),
            runs=3,
        )
        metrics = run_trials(scenario, seed=5)
        assert len(metrics) == 2


class TestNetworkDetect:
    def small(self, seed=0, runs=2):
        return network_detect(
            window=10,
            num_envs=20,
            runs=runs,
            test_config=TestConfig(mc_samples=50),
            seed=seed,
            warmup=200,
        )

    def test_counts_shape_and_bounds(self):
        result = self.small()
        assert len(result.counts) == 6
        assert all(len(row) == 6 for row in result.counts)
        assert all(0 <= v <= result.runs for row in result.counts for v in row)
        assert result.runs + result.failures == 2
        assert len(result.per_run) == result.runs

    def test_deterministic_across_workers(self):
        a = self.small(seed=7)
        b = network_detect(
            window=10,
            num_envs=20,
            runs=2,
            test_config=TestConfig(mc_samples=50),
            seed=7,
            warmup=200,
            workers=3,
        )
        assert a.to_dict() == b.to_dict()

    def test_flaky_generator_is_retried(self, monkeypatch):
        calls = {"n": 0}

        def flaky(horizon, seed):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise DivergenceError("transient")
            return gen_lorenz(horizon, seed)

        monkeypatch.setattr(experiments, "gen_lorenz", flaky)
        result = self.small()
        assert result.failures == 0
        assert result.failed_runs == ()
        assert result.runs == 2
        assert calls["n"] == 4

    def _independent_searches(self, series, window, warmup, num_envs, config):
        """The six searches of one network run, each on its own target's dataset."""
        datasets = (split_environments(series, t, window, warmup, num_envs) for t in range(1, 7))
        return [discover(dataset.with_intercept(), config, early_stop=True) for dataset in datasets]

    @staticmethod
    def _lockstep(series, window, warmup, num_envs, config):
        """The lockstep search of one network run, as ``network_detect`` makes it."""
        windows = split_environments(series, 1, window, warmup, num_envs).with_intercept()
        return discover_targets(windows, next_steps(series, window, warmup, num_envs), config)

    def _assert_lockstep_matches(self, lockstep, series, window, warmup, num_envs, config):
        alone = self._independent_searches(series, window, warmup, num_envs, config)
        for a, b in zip(lockstep, alone):
            assert (a.estimated_parents, a.subsets_tested, a.early_stopped, a.status) == (
                b.estimated_parents, b.subsets_tested, b.early_stopped, b.status
            )
            assert a.levels == ()  # only a one-target search keeps its evidence
        return alone

    def test_one_target_lockstep_equals_discover_with_its_evidence(self):
        # A lockstep search of one target is discover of that target's own
        # dataset with early_stop: the same estimate and the same evidence,
        # level by level, bit for bit.
        window, num_envs, warmup = 20, 40, 200
        series = gen_lorenz(window_steps(window, num_envs, warmup), derived_seed(1, 0, 0, 0))
        config = TestConfig(mc_samples=50, seed=derived_seed(1, 0, 0, 1))
        windows = split_environments(series, 1, window, warmup, num_envs).with_intercept()
        ys = next_steps(series, window, warmup, num_envs)
        for t, b in enumerate(self._independent_searches(series, window, warmup, num_envs, config)):
            [a] = discover_targets(windows, ys[:, t : t + 1], config)
            assert (a.estimated_parents, a.subsets_tested, a.early_stopped, a.status) == (
                b.estimated_parents, b.subsets_tested, b.early_stopped, b.status
            )
            assert len(a.levels) == len(b.levels) > 0
            for mine, theirs in zip(a.levels, b.levels):
                assert mine[0] == theirs[0]
                assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(mine[1:], theirs[1:]))

    @pytest.mark.parametrize(
        "window, num_envs, alpha, seed",
        [
            # The searches end at levels 2, 5 and 6; the target that ends at
            # level 2 has an empty intersection there and leaves the union.
            (20, 40, 0.1, 1),
            # Four-row windows: every subset of three or more covariates, with
            # the intercept, interpolates its windows (zero dofs).
            (4, 40, 0.9, 2),
        ],
    )
    def test_lockstep_search_equals_six_searches(self, window, num_envs, alpha, seed, monkeypatch):
        warmup = 200
        series = gen_lorenz(window_steps(window, num_envs, warmup), derived_seed(seed, 0, 0, 0))
        config = TestConfig(alpha=alpha, mc_samples=50, seed=derived_seed(seed, 0, 0, 1))
        fitted = []  # (subset size, targets fitted) of each fit call of the lockstep search
        original = invariance.fit_subsets

        def recording(dataset, subsets, targets):
            fitted.append((len(subsets[0]), targets[0].shape[1]))
            return original(dataset, subsets, targets)

        with monkeypatch.context() as patch:
            patch.setattr(invariance, "fit_subsets", recording)
            lockstep = self._lockstep(series, window, warmup, num_envs, config)
        alone = self._assert_lockstep_matches(lockstep, series, window, warmup, num_envs, config)
        top_levels = [max(len(r.subset) for r in result.reports) for result in alone]
        assert len(set(top_levels)) > 1 and min(top_levels) < 6
        # A target fits no level past its own last one.
        assert fitted
        assert [n for k, n in fitted] == [sum(top >= k for top in top_levels) for k, _ in fitted]
        zero_dofs = any(0 in r.dofs for result in alone for r in result.reports)
        assert zero_dofs == (window == 4)

    def test_lockstep_run_after_a_retry_equals_six_searches(self, monkeypatch):
        # Every first attempt diverges, so each run's seeds come from attempt 1.
        calls = {"n": 0}

        def flaky(horizon, seed):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise DivergenceError("transient")
            return gen_lorenz(horizon, seed)

        monkeypatch.setattr(experiments, "gen_lorenz", flaky)
        result = self.small(seed=3)
        assert calls["n"] == 4 and result.failures == 0
        horizon = window_steps(10, 20, 200)
        for run, found in enumerate(result.per_run):
            series = gen_lorenz(horizon, derived_seed(3, run, 1, 0))
            config = TestConfig(mc_samples=50, seed=derived_seed(3, run, 1, 1))
            lockstep = self._lockstep(series, 10, 200, 20, config)
            alone = self._assert_lockstep_matches(lockstep, series, 10, 200, 20, config)
            assert found == tuple(r.estimated_parents for r in alone)

    def test_persistent_failure_counts_and_total_failure_raises(self, monkeypatch):
        calls = {"n": 0}

        def first_run_diverges(horizon, seed):
            calls["n"] += 1
            if calls["n"] <= MAX_ATTEMPTS:
                raise DivergenceError("diverged")
            return gen_lorenz(horizon, seed)

        monkeypatch.setattr(experiments, "gen_lorenz", first_run_diverges)
        result = self.small()
        assert (result.runs, result.failures) == (1, 1)
        attempt = {"type": "DivergenceError", "message": "diverged"}
        assert result.failed_runs == ({"run": 0, "attempts": [attempt] * MAX_ATTEMPTS},)
        assert result.to_dict()["failed_runs"] == ({"run": 0, "attempts": [attempt] * MAX_ATTEMPTS},)

        def always_diverges(horizon, seed):
            raise DivergenceError("diverged")

        monkeypatch.setattr(experiments, "gen_lorenz", always_diverges)
        with pytest.raises(InvalidInputError, match="all 2 network runs failed"):
            self.small()

        # Any other error is deterministic: raised on the first call, not retried.
        calls["n"] = 0

        def broken(horizon, seed):
            calls["n"] += 1
            raise RuntimeError("bug")

        monkeypatch.setattr(experiments, "gen_lorenz", broken)
        with pytest.raises(RuntimeError, match="bug"):
            self.small(runs=1)
        assert calls["n"] == 1

    def test_counts_checked_before_simulating(self, monkeypatch):
        def unexpected(horizon, seed):
            raise AssertionError("gen_lorenz called")

        monkeypatch.setattr(experiments, "gen_lorenz", unexpected)
        small = dict(window=10, num_envs=20, runs=2, warmup=200)
        for name, value in (("runs", 2.5), ("window", 2.5), ("num_envs", 0)):
            with pytest.raises(InvalidInputError, match=f"{name} must be a positive integer"):
                network_detect(**{**small, name: value}, test_config=TestConfig(), seed=0)
        for value in (-1, 1.5):
            with pytest.raises(InvalidInputError, match="warmup must be a non-negative integer"):
                network_detect(**{**small, "warmup": value}, test_config=TestConfig(), seed=0)
        with pytest.raises(CapacityError, match=r"warmup \+ num_envs x window = 200 \+ 999999999 x 10"):
            network_detect(**{**small, "num_envs": 999999999}, test_config=TestConfig(), seed=0)

    def test_seed_and_workers_checked_before_simulating(self, monkeypatch):
        def unexpected(horizon, seed):
            raise AssertionError("gen_lorenz called")

        monkeypatch.setattr(experiments, "gen_lorenz", unexpected)
        small = dict(window=10, num_envs=20, runs=2, warmup=200, test_config=TestConfig(), seed=0)
        for change, message in (
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
            ({"workers": 0}, "workers must be a positive integer, got 0"),
            ({"workers": True}, "workers must be a positive integer, got True"),
        ):
            with pytest.raises(InvalidInputError, match=message):
                network_detect(**{**small, **change})

    def test_single_environment_refused_before_simulating(self, monkeypatch):
        def unexpected(horizon, seed):
            raise AssertionError("gen_lorenz called")

        monkeypatch.setattr(experiments, "gen_lorenz", unexpected)
        message = (
            "testing invariance requires at least two environments; "
            "a single environment permits no causal conclusion"
        )
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            network_detect(window=10, num_envs=1, runs=1, test_config=TestConfig(), seed=0, warmup=2_000_000)

    def test_one_draw_per_run_and_dof_vector(self, monkeypatch):
        # The CLI's defaults at --runs 2 --seed 1: each run's six targets share
        # one draw per dof vector of a level, 14 in all (76 with a draw per target).
        drawn = []
        original = invariance._null_pvalues

        def recording(seed, dofs, b, statistics):
            drawn.append(seed)
            return original(seed, dofs, b, statistics)

        monkeypatch.setattr(invariance, "_null_pvalues", recording)
        network_detect(window=20, num_envs=300, runs=2, test_config=TestConfig(), seed=1, warmup=500, workers=1)
        assert len(drawn) == 14
        assert set(drawn) == {derived_seed(1, run, 0, 1) for run in range(2)}

    def test_test_seed_refused(self):
        # Each run's test seed derives from the study's seed, so this one would not be read.
        message = "test_config.seed is not read: each run's test seed derives from seed"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            network_detect(window=10, num_envs=20, runs=2, test_config=TestConfig(seed=5), seed=0, warmup=200)

    def test_edge_rule_thresholds(self):
        result = self.small()
        for edge in result.edges:
            assert edge["count"] > 0.1 * result.runs
            assert edge["p_value"] <= 0.05

    def test_serialization(self):
        result = self.small()
        doc = result.to_dict()
        json.dumps(doc)
        assert doc["schema_version"] == 2
        assert (doc["failures"], doc["failed_runs"]) == (0, ())
        assert isinstance(result, NetworkResult)
