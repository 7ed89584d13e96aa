import json
import math
import re

import mpmath
import numpy as np
import pytest

from localicp import invariance
from localicp.cli import _discover_json
from localicp.datagen import IndependentGenConfig, gen_independent
from localicp.dataset import from_arrays
from localicp.discovery import (
    DiscoveryResult,
    HeterogeneityInput,
    discover,
    enumerate_subsets,
    heterogeneity_index,
    infinite_env_limit,
    power_bound,
)
from localicp.errors import CapacityError, InvalidInputError
from localicp.invariance import TestConfig, phi_S


def tiny_dataset(d=3, n=8, num_envs=3, seed=0):
    rng = np.random.default_rng(seed)
    covs = [rng.normal(size=(n, d)) for _ in range(num_envs)]
    tgts = [rng.normal(size=n) for _ in range(num_envs)]
    return from_arrays(covs, tgts)


@pytest.fixture
def drawn(monkeypatch):
    """Dof vectors passed to ``sample_null_ratio``, one entry per call."""
    calls = []
    original = invariance.sample_null_ratio

    def counting(dofs, rng, size):
        calls.append(tuple(dofs))
        return original(dofs, rng, size)

    monkeypatch.setattr(invariance, "sample_null_ratio", counting)
    return calls


def accepting(family):
    """Fake level test accepting exactly the subsets in `family`.

    It returns ``level_pvalues``' arrays for one target, ``T = 1``: unit norms,
    one dof and a unit statistic per subset, p = 1 if accepted and 0.001 if not."""
    accepted = {tuple(sorted(s)) for s in family}

    def fake(dataset, subsets, config, targets):
        ok = np.array([[tuple(sorted(s)) in accepted] for s in subsets])
        norms, dofs = np.ones((len(subsets), 1, 1)), np.ones((len(subsets), 1), dtype=int)
        return norms, dofs, np.ones(ok.shape), np.where(ok, 1.0, 0.001), ~ok

    return fake


class TestEnumeration:
    def test_order_by_cardinality_then_lex(self):
        subs = list(enumerate_subsets(3))
        assert subs == [
            (), (1,), (2,), (3,),
            (1, 2), (1, 3), (2, 3),
            (1, 2, 3),
        ]

    def test_count(self):
        assert len(list(enumerate_subsets(5))) == 32


class TestDiscover:
    def test_empty_subset_accepted_forces_empty_estimate(self):
        data = tiny_dataset()
        res = discover(data, TestConfig(), test=accepting([(), (1, 2, 3)]))
        assert res.estimated_parents == ()
        assert res.status == "ok"

    def test_superset_closed_family_yields_minimum(self):
        data = tiny_dataset()
        family = [(2, 3), (1, 2, 3)]
        res = discover(data, TestConfig(), test=accepting(family))
        assert res.estimated_parents == (2, 3)

    def test_all_rejected_reports_model_rejected(self):
        data = tiny_dataset()
        res = discover(data, TestConfig(), test=accepting([]))
        assert res.estimated_parents == ()
        assert res.status == "model_rejected"
        assert res.subsets_tested == 8

    def test_capacity_error(self):
        data = tiny_dataset(d=4)
        with pytest.raises(CapacityError):
            discover(data, TestConfig(), max_dim=3)

    def test_early_stop_equals_full_enumeration(self):
        skipped = []
        for seed in range(6):
            cfg = IndependentGenConfig(
                num_envs=8, samples_per_env=12, dimension=4, parent_set=(1, 3)
            )
            data, _ = gen_independent(cfg, seed)
            data = data.with_intercept()
            tc = TestConfig(seed=seed)
            full = discover(data, tc, early_stop=False)
            fast = discover(data, tc, early_stop=True)
            assert full.estimated_parents == fast.estimated_parents
            assert full.status == fast.status
            skipped.append(fast.subsets_tested < full.subsets_tested)
            assert fast.early_stopped == skipped[-1]
        assert any(skipped)

    def test_subset_order_does_not_change_reports(self):
        # Each subset's reference draws come from (seed, dofs) alone, so a
        # subset tested out of order gets exactly the report discover gives it.
        data, _ = gen_independent(
            IndependentGenConfig(num_envs=6, samples_per_env=20, dimension=4), 3
        )
        data = data.with_intercept()
        tc = TestConfig(seed=5)
        reversed_order = {
            s: phi_S(data, s, tc) for s in reversed(list(enumerate_subsets(4)))
        }
        for early_stop in (False, True):
            result = discover(data, tc, early_stop=early_stop)
            assert result.reports == tuple(reversed_order[r.subset] for r in result.reports)
        assert discover(data, tc).subsets_tested == 16

    @pytest.mark.parametrize("sizes, vectors", [((4, 4, 4), 3), ((12, 17, 25), 4)])
    def test_one_null_draw_per_dof_vector(self, drawn, sizes, vectors):
        # At (4, 4, 4) the full subset interpolates every environment
        # (statistic +inf, nothing drawn) and each other size shares one
        # dof vector; unequal sizes still give one vector per subset size.
        rng = np.random.default_rng(4)
        data = from_arrays(
            [rng.normal(size=(n, 3)) for n in sizes], [rng.normal(size=n) for n in sizes]
        ).with_intercept()
        result = discover(data, TestConfig(seed=2))
        finite = {r.dofs for r in result.reports if math.isfinite(r.statistic)}
        assert sorted(drawn) == sorted(finite)
        assert len(finite) == vectors < result.subsets_tested

    def test_no_memo_outlives_a_search(self, drawn):
        # A second search at the same seed draws its reference ratios again
        # rather than reusing the first search's.
        data = tiny_dataset(d=3, n=10)
        first = discover(data, TestConfig(seed=8))
        once = len(drawn)
        second = discover(data, TestConfig(seed=8))
        assert first.reports == second.reports
        assert once > 0 and len(drawn) == 2 * once

    def test_permutation_equivariance(self):
        data, _ = gen_independent(
            IndependentGenConfig(num_envs=10, samples_per_env=25, dimension=4, parent_set=(1, 2)),
            21,
        )
        perm = [2, 0, 3, 1]  # new column j is old column perm[j]
        permuted = from_arrays(
            [e.covariates[:, perm] for e in data.environments],
            [e.target for e in data.environments],
        )
        tc = TestConfig(seed=17)
        res = discover(data.with_intercept(), tc)
        res_p = discover(permuted.with_intercept(), tc)
        # old index -> new index map
        relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
        assert sorted(relabel[i] for i in res.estimated_parents) == list(res_p.estimated_parents)

    def test_recovers_parents_on_reference_generator(self):
        hits = 0
        runs = 20
        for seed in range(runs):
            data, truth = gen_independent(IndependentGenConfig(samples_per_env=50), seed)
            res = discover(data.with_intercept(), TestConfig(alpha=0.1, seed=seed))
            hits += res.estimated_parents == truth.parent_set
        assert hits / runs > 0.5

    def test_estimate_subset_of_every_accepted_set(self):
        data, _ = gen_independent(
            IndependentGenConfig(num_envs=10, samples_per_env=30, dimension=4), 2
        )
        res = discover(data.with_intercept(), TestConfig(seed=2))
        estimate = set(res.estimated_parents)
        for report in res.reports:
            if not report.rejected:
                assert estimate <= set(report.subset)


class TestHeterogeneityIndex:
    def test_identical_types_give_one(self):
        inp = HeterogeneityInput(
            parents=(1, 2),
            beta1=(2.0, 3.0),
            beta2=(2.0, 3.0),
            sigma_v=(1.0, 1.5),
            sigma_w=(1.0, 1.5),
            sigma_y=2.0,
            omitted=(1, 2),
        )
        assert heterogeneity_index(inp) == 1.0

    def test_nothing_omitted_gives_one(self):
        inp = HeterogeneityInput(
            parents=(1,), beta1=(5.0,), beta2=(1.0,),
            sigma_v=(1.0,), sigma_w=(3.0,), sigma_y=1.0, omitted=(),
        )
        assert heterogeneity_index(inp) == 1.0

    def test_worked_value(self):
        inp = HeterogeneityInput(
            parents=(1,), beta1=(2.0,), beta2=(1.0,),
            sigma_v=(1.0,), sigma_w=(1.0,), sigma_y=1.0, omitted=(1,),
        )
        assert heterogeneity_index(inp) == pytest.approx(0.4, abs=1e-15)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidInputError):
            HeterogeneityInput(
                parents=(1,), beta1=(1.0,), beta2=(1.0,),
                sigma_v=(1.0,), sigma_w=(1.0,), sigma_y=0.0, omitted=(1,),
            )


    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("sigma_y", math.nan, "sigma_y must be a positive finite number, got nan"),
            ("sigma_y", math.inf, "sigma_y must be a positive finite number, got inf"),
            ("sigma_y", True, "sigma_y must be a positive finite number, got True"),
            ("beta1", (math.nan,), "beta1 must hold finite numbers, got (nan,)"),
            ("beta2", (-math.inf,), "beta2 must hold finite numbers, got (-inf,)"),
            ("sigma_v", (math.inf,), "sigma_v must hold finite numbers, got (inf,)"),
            ("sigma_w", ("1",), "sigma_w must hold finite numbers, got ('1',)"),
        ],
    )
    def test_rejects_a_number_that_is_not_finite(self, field, value, message):
        # A NaN sigma_y or beta1 gave the index NaN, an infinite sigma_v 0.0.
        fields = dict(parents=(1,), beta1=(2.0,), beta2=(1.0,), sigma_v=(1.0,), sigma_w=(1.0,), sigma_y=1.0, omitted=(1,))
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            HeterogeneityInput(**{**fields, field: value})

    @pytest.mark.parametrize(
        "parents,omitted,message",
        [
            ((1, 1), (1,), "parents (1, 1) holds repeated indices"),
            ((1, 2), (1, 1), "omitted (1, 1) holds repeated indices"),
            ((1, 2), (True,), "omitted (True,) must hold positive integers"),
            ((1, 2.0), (1,), "parents (1, 2.0) must hold positive integers"),
            ((0, 1), (1,), "parents (0, 1) must hold positive integers"),
        ],
    )
    def test_rejects_repeated_or_non_integer_indices(self, parents, omitted, message):
        # parents (1, 1) read only its second entry (0.2), omitted (1, 1)
        # counted parent 1 twice (0.333 for 0.4), and True was parent 1.
        fields = dict(beta1=(2.0, 3.0), beta2=(1.0, 1.0), sigma_v=(1.0, 1.0), sigma_w=(1.0, 1.0), sigma_y=1.0)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            HeterogeneityInput(parents=parents, omitted=omitted, **fields)

    @pytest.mark.parametrize(
        "big,sigma_y,omitted,scales",
        [(1e155, 1.0, (1,), "inf and inf"), (1.0, 1e-200, (), "0.0 and 0.0")],
    )
    def test_rejects_a_residual_scale_that_is_not_positive_and_finite(self, big, sigma_y, omitted, scales):
        # 1e155 ** 2 ended in a raw OverflowError, and an underflowed sigma_y ** 2 with
        # nothing omitted in a ZeroDivisionError.
        inp = HeterogeneityInput(
            parents=(1,), beta1=(big,), beta2=(big,), sigma_v=(big,), sigma_w=(big,), sigma_y=sigma_y, omitted=omitted,
        )
        message = f"the residual scales {scales} must be positive and finite"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            heterogeneity_index(inp)


class TestPowerBound:
    def test_vacuous_at_one(self):
        assert power_bound(1.0, 10, 30, 0.1) == 1.0

    def test_near_one_is_clamped(self):
        assert power_bound(0.999999, 5, 30, 0.1) == 1.0

    def test_monotone_non_increasing_in_k(self):
        values = [power_bound(0.05, k, 30, 0.1) for k in range(1, 200, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_against_arbitrary_precision_oracle(self):
        i_s, k, e, alpha = 0.4, 48, 30, 0.1
        with mpmath.workdps(60):
            half_k = mpmath.mpf(k) / 2
            c1 = mpmath.mpf(i_s) ** mpmath.mpf("-0.25")
            c2 = mpmath.mpf(i_s) ** mpmath.mpf("0.25")
            raw = (4 * mpmath.mpf(e) / mpmath.mpf(alpha)) * (
                (c1 * mpmath.e ** (1 - c1)) ** half_k + (c2 * mpmath.e ** (1 - c2)) ** half_k
            )
            oracle = float(min(mpmath.mpf(1), raw))
        assert power_bound(i_s, k, e, alpha) == pytest.approx(oracle, rel=1e-12)

    def test_no_overflow_for_tiny_index(self):
        value = power_bound(1e-12, 4, 30, 0.1)
        assert 0.0 <= value <= 1.0


    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 5.0, 1.0, 0.0, "a", True])
    def test_rejects_an_alpha_outside_the_unit_interval(self, alpha):
        # nan and 5.0 gave 1.0, inf gave 0.0, and "a" ended in a raw TypeError.
        with pytest.raises(InvalidInputError, match=re.escape("alpha must lie in (0, 1)")):
            power_bound(0.5, 2, 10, alpha)
        with pytest.raises(InvalidInputError, match=re.escape("alpha must lie in (0, 1)")):
            infinite_env_limit(0.5, 2, alpha)

    @pytest.mark.parametrize("i_s", ["a", None, math.nan, True, 0.0, 1.5])
    def test_rejects_an_index_outside_the_unit_interval(self, i_s):
        # "a" and None ended in a raw TypeError, and True was taken as 1.0.
        message = "the heterogeneity index must lie in (0, 1]"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            power_bound(i_s, 2, 10, 0.1)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            infinite_env_limit(i_s, 2, 0.1)

    @pytest.mark.parametrize(
        "k,e,message",
        [
            (1.5, 10, "k must be a positive integer, got 1.5"),
            (True, 10, "k must be a positive integer, got True"),
            (0, 10, "k must be a positive integer, got 0"),
            (2, math.nan, "e must be a positive integer, got nan"),
            (2, 2.5, "e must be a positive integer, got 2.5"),
        ],
    )
    def test_rejects_k_or_e_that_is_no_count(self, k, e, message):
        # k = 1.5 and k = True were taken as k = 1, e = nan gave 1.0.
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            power_bound(0.5, k, e, 0.1)


class TestInfiniteEnvLimit:
    def test_index_one_substitution(self):
        lower, upper = infinite_env_limit(1.0, 7, 0.1)
        assert upper == pytest.approx((1 / 0.1) * (2 / 3))

    def test_large_k_vanishes(self):
        lower, upper = infinite_env_limit(0.5, 4000, 0.1)
        assert upper < 1e-200 or upper == 0.0
        assert lower == 0.0

    def test_against_closed_form_oracle(self):
        i_s, k, alpha = 0.25, 8, 0.01
        with mpmath.workdps(60):
            t = mpmath.mpf(i_s) ** (mpmath.mpf(k) / 2)
            upper = float((1 / mpmath.mpf(alpha)) * (2 * t / (2 * t + 1)))
            threshold = float(t / (t + 1))
        lo, up = infinite_env_limit(i_s, k, alpha)
        assert up == pytest.approx(upper, rel=1e-12)
        assert alpha > threshold and lo == 0.0

    def test_lower_bound_branch(self):
        i_s, k, alpha = 0.25, 8, 0.001
        t = 0.25 ** 4
        lo, _ = infinite_env_limit(i_s, k, alpha)
        assert lo == pytest.approx((t / (t + 1) - alpha) / (1 - alpha), rel=1e-12)
        assert lo > 0.0


    @pytest.mark.parametrize("k", [math.nan, 1.5, True])
    def test_rejects_a_k_that_is_no_count(self, k):
        # k = nan gave (0.0, nan).
        with pytest.raises(InvalidInputError, match=re.escape(f"k must be a positive integer, got {k!r}")):
            infinite_env_limit(0.5, k, 0.1)


def test_result_serialization_round_trip_fields():
    data = tiny_dataset()
    res = discover(data, TestConfig(), test=accepting([(1,), (1, 2)]))
    doc = json.loads("".join(_discover_json({}, res.levels)))
    assert res.estimated_parents == (1,)
    assert res.subsets_tested == 8
    assert len(doc["reports"]) == 8
    assert [r["subset"] for r in doc["reports"]] == [list(s) for s in enumerate_subsets(3)]
    assert isinstance(res, DiscoveryResult)
