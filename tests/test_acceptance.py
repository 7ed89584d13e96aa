"""End-to-end statistical acceptance suite.

Each test prints one summary line (PASS/FAIL plus the measured numbers) on
the real terminal so the result survives pytest's output capture, then
asserts.  The tolerances are fixed up front; the suite is deterministic for
a fixed seed, and a run's record depends only on the seed and its index.
"""

import json
import math
import os

import mpmath
import numpy as np
import pytest
from scipy import stats

from localicp.calibration import (
    null_test_pvalues,
    rejection_rate,
    residual_chi2_sample,
    residual_ks_pvalue,
)
from localicp.cli import EXIT_OK, main
from localicp.datagen import IndependentGenConfig, SemGenConfig
from localicp.dataset import from_arrays
from localicp.discovery import HeterogeneityInput, heterogeneity_index, power_bound
from localicp.experiments import (
    Scenario,
    binomial_test_greater,
    clopper_pearson,
    network_detect,
    run_trials,
)
from localicp.invariance import TestConfig, phi_S
from localicp.linalg import least_squares, pinv


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {number} ({name}): {status} | {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def normal_scenario(grid, runs, alpha=0.1):
    return Scenario(
        generator_config=IndependentGenConfig(),
        test_config=TestConfig(alpha=alpha, mc_samples=100),
        sweep_parameter="samples_per_env",
        grid=tuple(grid),
        runs=runs,
    )


def test_c1_false_positive_control(capsys):
    metrics = run_trials(normal_scenario((20, 50), runs=500), seed=101)
    ok = True
    parts = []
    for m in metrics:
        upper = m.fpr_ci[1]
        ok = ok and m.fpr <= 0.1 and upper <= 0.15
        parts.append(f"n={m.sweep}: FPR={m.fpr:.4f} (95% upper {upper:.4f})")
    report(capsys, 1, "false-positive control", ok, "; ".join(parts) + " over 500 runs each")


def test_c2_power_improves_with_sample_size(capsys):
    metrics = run_trials(normal_scenario((10, 50), runs=300), seed=102)
    fnr10, fnr50 = metrics[0].fnr, metrics[1].fnr
    ok = fnr50 < fnr10 and fnr50 <= 0.1
    report(
        capsys, 2, "power decay in n", ok,
        f"FNR(n=10)={fnr10:.4f}, FNR(n=50)={fnr50:.4f} over 300 runs",
    )


def test_c3_residual_null_law(capsys):
    values, dof = residual_chi2_sample(10_000, seed=103)
    p = residual_ks_pvalue(values, dof)
    ok = p > 0.01
    report(
        capsys, 3, "residual chi-squared law", ok,
        f"KS p-value {p:.4f} vs chi2({dof}) on 10000 scaled residual norms",
    )


def test_c4_test_calibration(capsys):
    reps = 2000
    pvalues = null_test_pvalues(reps, seed=104)
    ok = True
    parts = []
    for alpha in (0.05, 0.1):
        rate = rejection_rate(pvalues, alpha)
        band = 3.0 * math.sqrt(alpha * (1 - alpha) / reps)
        ok = ok and abs(rate - alpha) <= band
        parts.append(f"alpha={alpha}: rate={rate:.4f} (band +-{band:.4f})")
    report(capsys, 4, "null rejection calibration", ok, "; ".join(parts) + f" over {reps} replications")


def test_c5_heterogeneity_dependence(capsys):
    scenario = Scenario(
        generator_config=SemGenConfig(
            samples_per_env=20, noise_family="uniform", heterogeneity=0.0
        ),
        test_config=TestConfig(alpha=0.1, mc_samples=100),
        sweep_parameter="heterogeneity",
        grid=(0.0, 4.0),
        runs=300,
    )
    metrics = run_trials(scenario, seed=105)
    fnr0, fnr4 = metrics[0].fnr, metrics[1].fnr
    empty0 = sum(r.estimated_parents == () for r in metrics[0].run_detail) / metrics[0].runs
    ok = (fnr0 - fnr4 >= 0.3) and empty0 >= 0.8
    report(
        capsys, 5, "heterogeneity dependence", ok,
        f"FNR(h=0)={fnr0:.4f}, FNR(h=4)={fnr4:.4f}, empty estimate at h=0: "
        f"{empty0:.1%} of 300 runs",
    )


def test_c6_power_bound_consistency(capsys):
    # Two environment types with a single parent loading 10 vs 0; testing the
    # empty subset without an intercept leaves exactly k residual degrees of
    # freedom per environment.
    beta_hi, beta_lo = 10.0, 0.0
    i_s = heterogeneity_index(
        HeterogeneityInput(
            parents=(1,), beta1=(beta_hi,), beta2=(beta_lo,),
            sigma_v=(1.0,), sigma_w=(1.0,), sigma_y=1.0, omitted=(1,),
        )
    )
    assert i_s < 1.0
    num_envs, reps, alpha = 30, 300, 0.1
    ok = True
    parts = [f"I_S={i_s:.5f}"]
    for k in (10, 30, 50):
        bound = power_bound(i_s, k, num_envs, alpha)
        accepted = 0
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([9006, k, rep]))
            covs, tgts = [], []
            for e in range(num_envs):
                beta = beta_hi if e % 2 == 0 else beta_lo
                x = rng.normal(size=(k, 1))
                covs.append(x)
                tgts.append(beta * x[:, 0] + rng.normal(size=k))
            data = from_arrays(covs, tgts)
            rep_cfg = TestConfig(alpha=alpha, mc_samples=100, seed=rep)
            accepted += not phi_S(data, (), rep_cfg).rejected
        rate = accepted / reps
        se = math.sqrt(max(bound * (1 - bound), rate * (1 - rate)) / reps)
        ok = ok and rate <= bound + 3 * se
        parts.append(f"k={k}: acceptance={rate:.4f} <= bound {bound:.4f} + 3SE")
    report(capsys, 6, "theoretical power bound", ok, "; ".join(parts))


def run_network_study(runs, seed):
    return network_detect(
        window=20,
        num_envs=300,
        runs=runs,
        test_config=TestConfig(alpha=0.1, mc_samples=100),
        seed=seed,
        warmup=500,
    )


def check_network_counts(result, capsys, label):
    good = result.runs
    counts = np.array(result.counts)
    diag_ok = all(counts[i, i] >= 0.8 * good for i in (0, 1, 5))
    off_row = max(counts[5, j] for j in range(6) if j != 5)
    off_col = max(counts[i, 5] for i in range(6) if i != 5)
    off_ok = off_row <= 0.2 * good and off_col <= 0.2 * good
    detail = (
        f"{label}: diagonal (1,2,6) = {counts[0, 0]}/{counts[1, 1]}/{counts[5, 5]} "
        f"of {good}; worst coordinate-6 off-diagonal row/col = {off_row}/{off_col}"
    )
    return diag_ok and off_ok, detail


def test_c7_network_regression(capsys):
    result = run_network_study(runs=50, seed=107)
    ok, detail = check_network_counts(result, capsys, "desk scale")
    report(capsys, 7, "dynamical-system network study", ok, detail)


@pytest.mark.skipif(
    os.environ.get("LOCALICP_FULL_NETWORK") != "1",
    reason="full 500-run network study; set LOCALICP_FULL_NETWORK=1 to enable",
)
def test_c7_full_network_regression(capsys):
    result = run_network_study(runs=500, seed=107)
    ok, detail = check_network_counts(result, capsys, "full scale")
    report(capsys, 7, "dynamical-system network study (full)", ok, detail)


def _cp_oracle(successes, trials, level=0.95):
    """Exact binomial tail inversion by high-precision bisection."""
    tail = (1 - level) / 2

    def binom_ge(k, n, p):
        # P(Bin(n, p) >= k) as the regularized incomplete beta I_p(k, n - k + 1).
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
        lo = 0.0 if successes == 0 else bisect(
            lambda p: binom_ge(successes, trials, p) - tail
        )
        hi = 1.0 if successes == trials else bisect(
            lambda p: binom_ge(successes + 1, trials, p) - (1 - tail)
        )
    return lo, hi


def test_c8_oracle_equivalences(capsys):
    rng = np.random.default_rng(108)

    worst_penrose = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 10))
        m = rng.normal(size=(n, k))
        if rng.random() < 0.25 and k > 1:
            m[:, -1] = 2.0 * m[:, 0]
        mp = pinv(m)
        scale = max(np.linalg.norm(m), 1.0)
        worst_penrose = max(
            worst_penrose,
            np.linalg.norm(m @ mp @ m - m) / scale,
            np.linalg.norm(mp @ m @ mp - mp) / scale,
            np.linalg.norm((m @ mp) - (m @ mp).T) / scale,
            np.linalg.norm((mp @ m) - (mp @ m).T) / scale,
        )

    worst_ls = 0.0
    for _ in range(200):
        n = int(rng.integers(6, 30))
        k = int(rng.integers(1, 5))
        x = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        worst_ls = max(worst_ls, float(np.abs(least_squares(x, y) - oracle).max()))

    worst_cp = 0.0
    for s, n in [(0, 10), (10, 10), (3, 10), (7, 50), (1, 500), (250, 500)]:
        lo, hi = clopper_pearson(s, n)
        olo, ohi = _cp_oracle(s, n)
        worst_cp = max(worst_cp, abs(lo - olo), abs(hi - ohi))

    worst_bt = 0.0
    with mpmath.workdps(50):
        for k, n, p0 in [(3, 10, 0.1), (15, 50, 0.1), (1, 4, 0.5), (40, 100, 0.3)]:
            exact = float(
                sum(
                    mpmath.binomial(n, i) * mpmath.mpf(p0) ** i * (1 - mpmath.mpf(p0)) ** (n - i)
                    for i in range(k, n + 1)
                )
            )
            worst_bt = max(worst_bt, abs(binomial_test_greater(k, n, p0) - exact))

    ok = (
        worst_penrose < 1e-8
        and worst_ls < 1e-10
        and worst_cp < 1e-8
        and worst_bt < 1e-8
    )
    report(
        capsys, 8, "oracle equivalences", ok,
        f"Penrose defect {worst_penrose:.2e} (1000 matrices), least-squares vs "
        f"normal equations {worst_ls:.2e}, interval endpoints {worst_cp:.2e}, "
        f"binomial tail {worst_bt:.2e}",
    )


def test_c9_byte_identical_across_workers(capsys, tmp_path):
    scenario = {
        "generator": {
            "kind": "independent",
            "num_envs": 10,
            "samples_per_env": 20,
            "dimension": 4,
            "parent_set": [2, 3],
        },
        "test": {"alpha": 0.1, "mc_samples": 100},
        "sweep": {"parameter": "samples_per_env", "grid": [15, 30]},
        "runs": 40,
    }
    # A sweep runs serially; each run's record depends only on (seed, grid
    # index, run index), so a 10-run sweep is the head of a 40-run one.
    details = []
    for runs in (40, 10):
        spath = tmp_path / f"scenario_{runs}.json"
        spath.write_text(json.dumps({**scenario, "runs": runs}))
        out = tmp_path / f"sweep_{runs}.json"
        code = main(["simulate", str(spath), "--seed", "109", "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        details.append([point["run_detail"] for point in json.loads(out.read_text())["points"]])
    sweep_ok = [d[:10] for d in details[0]] == details[1]

    # Every seed of network run r derives from (seed, r), so a 2-run study's
    # records are the head of a 3-run one's.
    nets = []
    for runs in (3, 2):
        out = tmp_path / f"net_{runs}.json"
        code = main(
            ["network", "--warmup", "300", "--window", "10",
             "--num-envs", "40", "--runs", str(runs), "--mc-samples", "50",
             "--seed", "109", "--output", str(out)]
        )
        assert code == EXIT_OK
        nets.append(json.loads(out.read_text())["per_run"])
    net_ok = len(nets[0]) == 3 and nets[0][:2] == nets[1]

    ok = sweep_ok and net_ok
    report(
        capsys, 9, "run determinism", ok,
        f"sweep records of runs 0-9 identical at 10 and 40 runs: {sweep_ok}; "
        f"network records of runs 0-1 identical at 2 and 3 runs: {net_ok}",
    )
