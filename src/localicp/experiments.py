"""Trial runner and summary statistics for simulation studies.

A scenario sweeps one generator parameter over a grid, runs repeated
independent discoveries at each grid point and reports false-negative /
false-positive rates with exact Clopper-Pearson intervals.  The network
study iterates the Lorenz trajectory, treats each coordinate in turn as the
target and counts how often each covariate is reported as a parent; edges
are declared by an exact one-sided binomial test against a 10% null rate.
Both exact computations use numpy and the standard library only.

A sweep runs serially: its runs are many small numpy calls, which a thread
pool only contends for.  ``network_detect`` maps its runs over one thread
pool, while each run's discovery tests its subsets serially.  A network run
searches its six targets in lockstep (``discover_targets``): one window
stack, one fit per level and one null draw per dof vector serve all six.
Per-run seeds derive from (seed, grid index, run index), and aggregation
folds runs in index order, so a run's record depends on nothing else and the
network's results are byte-identical for any worker count.

A network run is retried, with fresh derived seeds and ``MAX_ATTEMPTS``
attempts in all, only when the Lorenz trajectory diverges (``DivergenceError``);
a run that fails them all is reported with each attempt's error.  Every other
error is deterministic and propagates.  Sweep runs cannot diverge.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .datagen import (
    IndependentGenConfig,
    SemGenConfig,
    gen_independent,
    gen_lorenz,
    gen_sem,
    next_steps,
    split_environments,
    window_steps,
)
from .discovery import DEFAULT_MAX_DIM, discover, discover_targets
from .errors import DivergenceError, InvalidInputError, check_counts, check_environments
from .invariance import TestConfig

__all__ = [
    "RESULTS_SCHEMA_VERSION",
    "Scenario",
    "TrialMetrics",
    "NetworkResult",
    "run_trials",
    "network_detect",
    "clopper_pearson",
    "binomial_test_greater",
    "metrics_to_csv",
    "trials_to_dict",
]

RESULTS_SCHEMA_VERSION = 2

MAX_ATTEMPTS = 3

# Edge rule of the network study (see ``network_detect``).
EDGE_ALPHA = 0.05
NULL_RATE = 0.10
# Confidence level of every Clopper-Pearson interval a sweep reports.
CI_LEVEL = 0.95


def derived_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from integer components."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact binomial confidence interval at level ``CI_LEVEL``: each endpoint bisected over
    doubles on the tail ``P(Bin(n, p) >= s) = I_p(s, n - s + 1)``, summed as log-pmf terms."""
    check_counts(minimum=0, successes=successes)
    check_counts(trials=trials)
    if successes > trials:
        raise InvalidInputError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    n, tail = trials, (1.0 - CI_LEVEL) / 2.0
    i = np.arange(n + 1)
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)])

    def lower(s: int) -> float:  # the least p with P(Bin(n, p) >= s) >= tail
        lo, hi = 0.0, float(s > 0)
        while lo < (p := (lo + hi) / 2) < hi:
            log_pmf = log_comb[s:] + i[s:] * math.log(p) + (n - i[s:]) * math.log1p(-p)
            lo, hi = (p, hi) if math.fsum(np.exp(log_pmf)) < tail else (lo, p)
        return hi

    return lower(successes), 1.0 - lower(n - successes)


def binomial_test_greater(successes: int, trials: int, p0: float) -> float:
    """Exact one-sided tail P(Bin(trials, p0) >= successes), correctly rounded: with
    ``p0 = a / b`` exactly, the integer numerator of ``sum_k C(n, k) a^k (b - a)^(n - k) / b^n``
    is summed in Horner form, and ``int / int`` rounds the one division correctly."""
    check_counts(minimum=0, successes=successes)
    check_counts(trials=trials)
    if successes > trials:
        raise InvalidInputError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not (0.0 < p0 < 1.0):
        raise InvalidInputError("p0 must lie in (0, 1)")
    a, b = float(p0).as_integer_ratio()
    total, power = 0, 1  # power = (b - a)^(n - k)
    for k in range(trials, successes - 1, -1):
        total = total * a + math.comb(trials, k) * power
        power *= b - a
    return total * a**successes / b**trials


# ---------------------------------------------------------------------------
# Scenario sweeps


# The generator of each config class, and the config class of each JSON ``kind``.
GENERATORS: dict[type, Callable] = {IndependentGenConfig: gen_independent, SemGenConfig: gen_sem}
KINDS = {"independent": IndependentGenConfig, "sem": SemGenConfig}

SCENARIO_KEYS = {"generator", "test", "sweep", "runs", "intercept", "max_dim"}
SWEEP_KEYS = {"parameter", "grid"}


def _check_unseeded(test_config: TestConfig) -> None:
    if test_config.seed != 0:
        raise InvalidInputError("test_config.seed is not read: each run's test seed derives from seed")


@dataclass(frozen=True)
class Scenario:
    """One experiment: a generator config, whose class picks the generator, a sweep grid and a test config."""

    generator_config: IndependentGenConfig | SemGenConfig
    test_config: TestConfig
    sweep_parameter: str
    grid: tuple
    runs: int
    intercept: bool = True
    max_dim: int = DEFAULT_MAX_DIM
    # The generator config at each grid point, built and checked in __post_init__.
    grid_configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.generator_config) not in GENERATORS:
            names = ", ".join(cls.__name__ for cls in GENERATORS)
            raise InvalidInputError(f"generator_config must be one of {names}, got {self.generator_config!r}")
        check_counts(runs=self.runs, max_dim=self.max_dim)
        _check_unseeded(self.test_config)
        if not isinstance(self.intercept, bool):
            raise InvalidInputError(f"intercept must be true or false, got {self.intercept!r}")
        if len(self.grid) == 0:
            raise InvalidInputError("sweep grid must be non-empty")
        if not hasattr(self.generator_config, self.sweep_parameter):
            raise InvalidInputError(
                f"generator config has no parameter {self.sweep_parameter!r}"
            )
        configs = []
        for value in self.grid:
            try:
                configs.append(
                    dataclasses.replace(self.generator_config, **{self.sweep_parameter: value})
                )
            except (TypeError, InvalidInputError) as exc:
                raise InvalidInputError(
                    f"invalid sweep.grid value {value!r} for {self.sweep_parameter}: {exc}"
                ) from None
        object.__setattr__(self, "grid_configs", tuple(configs))

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        try:
            gen = dict(doc["generator"])
            kind = gen.pop("kind")
            sweep_parameter = str(doc["sweep"]["parameter"])
            grid = doc["sweep"]["grid"]
            runs = doc["runs"]
            intercept = doc.get("intercept", True)
            max_dim = doc.get("max_dim", DEFAULT_MAX_DIM)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed scenario: {exc}") from None
        unknown = [k for k in doc if k not in SCENARIO_KEYS] + [
            f"sweep.{k}" for k in doc["sweep"] if k not in SWEEP_KEYS
        ]
        if unknown:
            raise InvalidInputError(f"unknown scenario key {unknown[0]!r}")
        if not isinstance(grid, list):
            raise InvalidInputError(f"sweep.grid must be a list, got {grid!r}")
        if not isinstance(kind, str) or kind not in KINDS:
            raise InvalidInputError(f"unknown generator kind {kind!r}")
        cfg_cls = KINDS[kind]
        try:
            gen_cfg = cfg_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in gen.items()})
        except TypeError as exc:
            raise InvalidInputError(f"invalid generator config: {exc}") from None
        test = doc.get("test", {})
        if isinstance(test, dict) and "seed" in test:
            raise InvalidInputError("test.seed is not read: each run's test seed derives from --seed")
        try:
            test_cfg = TestConfig(**test)
        except TypeError as exc:
            raise InvalidInputError(f"invalid test config: {exc}") from None
        return Scenario(
            generator_config=gen_cfg,
            test_config=test_cfg,
            sweep_parameter=sweep_parameter,
            grid=tuple(grid),
            runs=runs,
            intercept=intercept,
            max_dim=max_dim,
        )


@dataclass(frozen=True)
class RunRecord:
    run: int
    estimated_parents: tuple[int, ...]
    status: str
    false_negative: bool
    false_positive: bool


@dataclass(frozen=True)
class TrialMetrics:
    """Rates at one grid point, with exact 95% intervals and per-run detail: the keys of
    one point of the ``simulate`` JSON document, in order."""

    sweep: object
    fnr: float
    fnr_ci: tuple[float, float]
    fpr: float
    fpr_ci: tuple[float, float]
    runs: int
    run_detail: tuple[RunRecord, ...]


def _single_trial(scenario: Scenario, gen_cfg, seed: int, grid_index: int, run: int):
    """One dataset + discovery; the sweep generators cannot diverge, so no retry."""
    generate = GENERATORS[type(gen_cfg)]
    # The 0 in both seeds is an attempt index (sweep runs used to be retried);
    # it stays so that a fixed seed keeps its results.
    data_seed = derived_seed(seed, grid_index, run, 0, 0)
    test_seed = derived_seed(seed, grid_index, run, 0, 1)
    dataset, truth = generate(gen_cfg, data_seed)
    if scenario.intercept:
        dataset = dataset.with_intercept()
    config = dataclasses.replace(scenario.test_config, seed=test_seed)
    result = discover(dataset, config, max_dim=scenario.max_dim, early_stop=True)
    estimated = set(result.estimated_parents)
    true_parents = set(truth.parent_set)
    return RunRecord(
        run=run,
        estimated_parents=result.estimated_parents,
        status=result.status,
        false_negative=bool(true_parents - estimated),
        false_positive=bool(estimated - true_parents),
    )


def run_trials(scenario: Scenario, seed: int) -> list[TrialMetrics]:
    """Execute the sweep and aggregate FNR/FPR with Clopper-Pearson intervals."""
    check_counts(minimum=0, seed=seed)
    out = []
    for gi, (value, gen_cfg) in enumerate(zip(scenario.grid, scenario.grid_configs)):
        records = tuple(_single_trial(scenario, gen_cfg, seed, gi, r) for r in range(scenario.runs))
        good = len(records)
        fn = sum(r.false_negative for r in records)
        fp = sum(r.false_positive for r in records)
        out.append(
            TrialMetrics(
                sweep=value,
                fnr=fn / good,
                fnr_ci=clopper_pearson(fn, good),
                fpr=fp / good,
                fpr_ci=clopper_pearson(fp, good),
                runs=good,
                run_detail=records,
            )
        )
    return out


def metrics_to_csv(metrics: Sequence[TrialMetrics], fh) -> None:
    """One row per grid point: sweep value, rates, interval endpoints, counts."""
    writer = csv.writer(fh)
    writer.writerow(
        ["sweep", "fnr", "fnr_lo", "fnr_hi", "fpr", "fpr_lo", "fpr_hi", "runs"]
    )
    for m in metrics:
        writer.writerow(
            [
                m.sweep,
                repr(m.fnr),
                repr(m.fnr_ci[0]),
                repr(m.fnr_ci[1]),
                repr(m.fpr),
                repr(m.fpr_ci[0]),
                repr(m.fpr_ci[1]),
                m.runs,
            ]
        )


def trials_to_dict(scenario: Scenario, metrics: Sequence[TrialMetrics], seed: int) -> dict:
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "sweep_parameter": scenario.sweep_parameter,
        "seed": int(seed),
        "points": [dataclasses.asdict(m) for m in metrics],
    }


# ---------------------------------------------------------------------------
# Lorenz network detection


@dataclass(frozen=True)
class NetworkResult:
    """Parent counts per target over repeated runs plus declared edges: the keys of the
    ``network`` JSON document after its schema version, in order."""

    window: int
    runs: int
    failures: int
    # One {"run", "attempts"} entry per failed run; each attempt is {"type", "message"}.
    failed_runs: tuple[dict, ...]
    counts: tuple[tuple[int, ...], ...]  # counts[i][j]: i reported as parent of target j+1
    edges: tuple[dict, ...]
    per_run: tuple[tuple[tuple[int, ...], ...], ...]

    def to_dict(self) -> dict:
        return {"schema_version": RESULTS_SCHEMA_VERSION, **dataclasses.asdict(self)}


def network_detect(
    window: int,
    num_envs: int,
    runs: int,
    test_config: TestConfig,
    seed: int,
    warmup: int = 500,
    workers: int = 1,
) -> NetworkResult:
    """Repeatedly simulate the dynamical system and count reported parents.

    Each run simulates an independent trajectory of exactly the
    ``warmup + num_envs * window`` steps its windows read, splits it into
    ``num_envs`` time windows and discovers parents for all six next-step
    targets in lockstep, each level fitted and each of its dof vectors drawn
    once for all of them under one test seed per run derived from ``seed``,
    so a ``test_config.seed`` other than 0 is refused.  A run's six p-values
    are dependent, each valid; the edge rule needs only independent runs.
    Fewer than two environments, or a null of more than ``MAX_DOUBLES`` draws
    per test, is refused before anything is simulated.  An edge i -> j is
    declared when covariate i was reported for target j in more than
    ``NULL_RATE`` (10%) of the runs and the exact one-sided binomial p-value
    against that rate is at most ``EDGE_ALPHA`` (0.05).  A run whose
    trajectory diverges is retried with fresh seeds, ``MAX_ATTEMPTS``
    attempts in all, then counted as a failure and listed in ``failed_runs``
    with each attempt's error; any other error propagates.
    """
    check_counts(runs=runs, workers=workers)
    check_counts(minimum=0, seed=seed)
    _check_unseeded(test_config)
    horizon = window_steps(window, num_envs, warmup)
    check_environments(num_envs)
    test_config.check_null_size(num_envs)
    d = 6

    def one_run(run: int):
        attempts = []
        for attempt in range(MAX_ATTEMPTS):
            try:
                series = gen_lorenz(horizon, derived_seed(seed, run, attempt, 0))
            except DivergenceError as exc:
                attempts.append({"type": type(exc).__name__, "message": str(exc)})
                continue
            # One window stack, with the intercept, serves all d targets.
            windows = split_environments(series, 1, window, warmup, num_envs).with_intercept()
            config = dataclasses.replace(test_config, seed=derived_seed(seed, run, attempt, 1))
            results = discover_targets(windows, next_steps(series, window, warmup, num_envs), config)
            return tuple(result.estimated_parents for result in results)
        return {"run": run, "attempts": attempts}

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(one_run, range(runs)))
    per_run = tuple(r for r in outcomes if isinstance(r, tuple))
    good = len(per_run)
    if good == 0:
        raise InvalidInputError(
            f"all {runs} network runs failed: the trajectory diverged in each of "
            f"{MAX_ATTEMPTS} attempts"
        )
    counts = np.zeros((d, d), dtype=int)
    for found in per_run:
        for j, parents in enumerate(found):
            for i in parents:
                counts[i - 1, j] += 1
    edges = []
    for j in range(d):
        for i in range(d):
            c = int(counts[i, j])
            p = binomial_test_greater(c, good, NULL_RATE) if c > 0 else 1.0
            if c > NULL_RATE * good and p <= EDGE_ALPHA:
                edges.append(
                    {"parent": i + 1, "target": j + 1, "count": c, "p_value": p}
                )
    return NetworkResult(
        window=window,
        runs=good,
        failures=runs - good,
        failed_runs=tuple(r for r in outcomes if isinstance(r, dict)),
        counts=tuple(tuple(int(v) for v in row) for row in counts),
        edges=tuple(edges),
        per_run=per_run,
    )
