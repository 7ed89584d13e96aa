"""Synthetic multi-environment data processes.

Three generator families:

* independent covariates (normal / uniform / student-t), each environment with
  freshly drawn means, scales and coefficients;
* a fixed six-node linear structural equation model whose target has parents
  {2, 3}, optionally driven by a heterogeneity parameter ``h``;
* a noisy discrete-time five-dimensional Lorenz system plus an independent
  random walk, with a splitter that turns the trajectory into consecutive
  time-window environments.

The independent and SEM generators draw environment ``e`` from its own stream
``SeedSequence([seed, e])``, so adding environments leaves the earlier ones'
data bit for bit as they were; a Lorenz trajectory is the one stream ``SeedSequence([seed])``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import MultiEnvDataset, from_arrays
from .errors import DivergenceError, InvalidInputError, ShapeError, check_capacity, check_counts, finite

__all__ = [
    "IndependentGenConfig",
    "SemGenConfig",
    "GroundTruth",
    "gen_independent",
    "gen_sem",
    "gen_lorenz",
    "split_environments",
    "next_steps",
]

FAMILIES = ("normal", "uniform", "student_t")

# Fixed structural weights of the six-node model: X2 = X1, X3 = 0.3 X1,
# X4 = 0.2 X3, X5 = 0.1 X2 + Y, X6 = Y (each plus noise).
SEM_PARENTS = (2, 3)

LORENZ_INITIAL_STATE = (2.0, 0.97, 0.99, 1.0, 0.97, 1.0)
LORENZ_OVERFLOW = 1e15


@dataclass(frozen=True)
class GroundTruth:
    """True parent set and per-environment coefficient vectors."""

    parent_set: tuple[int, ...]
    betas: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for env_idx, beta in enumerate(self.betas):
            for d, value in enumerate(beta, start=1):
                if d not in self.parent_set and value != 0.0:
                    raise InvalidInputError(
                        f"environment {env_idx}: non-zero coefficient on non-parent {d}"
                    )


def _env_rng(seed: int, env_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(env_index)]))


def _standard_draws(rng: np.random.Generator, family: str, size, t_dof: int) -> np.ndarray:
    """Zero-mean unit-variance draws from the requested family."""
    if family == "normal":
        return rng.standard_normal(size)
    if family == "uniform":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    if family == "student_t":
        return rng.standard_t(t_dof, size) / math.sqrt(t_dof / (t_dof - 2.0))
    raise InvalidInputError(f"unknown distribution family {family!r}")


def _check_family(family: str, t_dof: int) -> None:
    if family not in FAMILIES:
        raise InvalidInputError(f"covariate family must be one of {FAMILIES}, got {family!r}")
    if family == "student_t" and t_dof <= 2:
        raise InvalidInputError(
            "student_t_dof must exceed 2 so the variance exists for standardization"
        )


def _check_size(num_envs: int, samples_per_env: int, columns: int) -> None:
    """``check_capacity`` of a dataset; ``columns`` counts the covariates plus the target."""
    size = num_envs * samples_per_env * columns
    what = f"num_envs={num_envs} x samples_per_env={samples_per_env} x {columns} columns is {size} doubles"
    check_capacity(size, what)


def _check_range(name: str, pair) -> None:
    lo, hi = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
    if not (finite(lo) and finite(hi) and lo <= hi and finite(hi - lo)):
        raise InvalidInputError(f"{name} must be finite numbers low <= high, a finite span apart, got {pair!r}")


def _check_positive(name: str, value) -> None:
    if not (finite(value) and value > 0):
        raise InvalidInputError(f"{name} must be a positive finite number, got {value!r}")


# ---------------------------------------------------------------------------
# Independent covariates


@dataclass(frozen=True)
class IndependentGenConfig:
    num_envs: int = 30
    samples_per_env: int = 50
    dimension: int = 6
    parent_set: tuple[int, ...] = SEM_PARENTS
    covariate_family: str = "normal"
    sigma_range: tuple[float, float] = (1.0, 5.0)
    beta_range: tuple[float, float] = (1.0, 5.0)
    mean_range: tuple[float, float] = (-1.0, 1.0)
    target_noise_std: float = 2.0
    student_t_dof: int = 3

    def __post_init__(self):
        check_counts(
            num_envs=self.num_envs, samples_per_env=self.samples_per_env, dimension=self.dimension
        )
        _check_size(self.num_envs, self.samples_per_env, self.dimension + 1)
        if not all(isinstance(p, numbers.Integral) and not isinstance(p, bool) and 1 <= p <= self.dimension
                   for p in self.parent_set):
            raise InvalidInputError(f"parent_set {self.parent_set} must hold integers in 1..{self.dimension}")
        if len(set(self.parent_set)) != len(self.parent_set):
            raise InvalidInputError(f"parent_set {self.parent_set} holds repeated indices")
        for name in ("sigma_range", "beta_range", "mean_range"):
            _check_range(name, getattr(self, name))
        if self.sigma_range[0] <= 0:
            raise InvalidInputError("covariate scales must be positive")
        _check_positive("target_noise_std", self.target_noise_std)
        _check_family(self.covariate_family, self.student_t_dof)


def gen_independent(
    config: IndependentGenConfig, seed: int
) -> tuple[MultiEnvDataset, GroundTruth]:
    """Independent covariates with per-environment scales, means and coefficients."""
    check_counts(minimum=0, seed=seed)
    d = config.dimension
    n = config.samples_per_env
    parents = tuple(sorted(config.parent_set))
    covs, tgts, betas = [], [], []
    for e in range(config.num_envs):
        rng = _env_rng(seed, e)
        sigma = rng.uniform(*config.sigma_range, d)
        mu = rng.uniform(*config.mean_range, d)
        beta = np.zeros(d)
        beta[[p - 1 for p in parents]] = rng.uniform(*config.beta_range, len(parents))
        x = mu + sigma * _standard_draws(
            rng, config.covariate_family, (n, d), config.student_t_dof
        )
        noise = config.target_noise_std * _standard_draws(
            rng, config.covariate_family, n, config.student_t_dof
        )
        covs.append(x)
        tgts.append(x @ beta + noise)
        betas.append(tuple(beta))
    return from_arrays(covs, tgts), GroundTruth(parent_set=parents, betas=tuple(betas))


# ---------------------------------------------------------------------------
# Structural equation model


@dataclass(frozen=True)
class SemGenConfig:
    num_envs: int = 30
    samples_per_env: int = 50
    noise_family: str = "normal"
    sigma_range: tuple[float, float] = (1.0, 5.0)
    beta_range: tuple[float, float] = (1.0, 5.0)
    sigma_y: float = 2.0
    heterogeneity: float | None = None
    student_t_dof: int = 3

    def __post_init__(self):
        check_counts(num_envs=self.num_envs, samples_per_env=self.samples_per_env)
        _check_size(self.num_envs, self.samples_per_env, 7)  # six covariates and the target
        _check_range("sigma_range", self.sigma_range)
        _check_range("beta_range", self.beta_range)
        if self.sigma_range[0] <= 0:
            raise InvalidInputError("noise scales must be positive")
        _check_positive("sigma_y", self.sigma_y)
        if self.heterogeneity is not None and not (finite(self.heterogeneity) and self.heterogeneity >= 0):
            raise InvalidInputError(f"heterogeneity must be a finite number >= 0, got {self.heterogeneity!r}")
        _check_family(self.noise_family, self.student_t_dof)

    def env_ranges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Sampling ranges for (noise scales, coefficients) in one environment."""
        if self.heterogeneity is None:
            return self.sigma_range, self.beta_range
        h = self.heterogeneity
        return (2.0, 2.0 + h), (1.0, 1.0 + h)


def sem_cascade(
    eps: np.ndarray, beta2: float, beta3: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the structural equations on pre-drawn noise.

    ``eps`` has seven columns, the additive terms of X1..X6 and Y in the
    order (e1, e2, e3, e4, eY, e5, e6).  Returns (covariates, target).
    """
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 2 or eps.shape[1] != 7:
        raise ShapeError("noise must have seven columns (e1, e2, e3, e4, eY, e5, e6)")
    x1 = eps[:, 0]
    x2 = x1 + eps[:, 1]
    x3 = 0.3 * x1 + eps[:, 2]
    x4 = 0.2 * x3 + eps[:, 3]
    y = beta2 * x2 + beta3 * x3 + eps[:, 4]
    x5 = 0.1 * x2 + y + eps[:, 5]
    x6 = y + eps[:, 6]
    return np.column_stack([x1, x2, x3, x4, x5, x6]), y


def gen_sem(config: SemGenConfig, seed: int) -> tuple[MultiEnvDataset, GroundTruth]:
    """Six-node linear SEM; X5 and X6 are descendants of the target."""
    check_counts(minimum=0, seed=seed)
    n = config.samples_per_env
    sigma_rng, beta_rng = config.env_ranges()
    covs, tgts, betas = [], [], []
    for e in range(config.num_envs):
        rng = _env_rng(seed, e)
        sigma = rng.uniform(*sigma_rng, 6)
        beta2, beta3 = rng.uniform(*beta_rng, 2)
        # The X4 equation reuses sigma_3 as printed; sigma[3] is drawn but
        # unused, so the stream of every later draw stays fixed.
        scales = np.r_[sigma[[0, 1, 2, 2]], config.sigma_y, sigma[4:]]
        eps = scales * _standard_draws(
            rng, config.noise_family, (n, 7), config.student_t_dof
        )
        x, y = sem_cascade(eps, beta2, beta3)
        covs.append(x)
        tgts.append(y)
        betas.append((0.0, float(beta2), float(beta3), 0.0, 0.0, 0.0))
    return from_arrays(covs, tgts), GroundTruth(parent_set=SEM_PARENTS, betas=tuple(betas))


# ---------------------------------------------------------------------------
# Lorenz system and time-window environments


def _check_horizon(horizon: int, prefix: str = "") -> None:
    """Refuse a horizon that is no positive integer, or whose noise (horizon x 6) and states
    ((horizon + 1) x 6) exceed ``MAX_DOUBLES``; ``prefix`` leads the capacity message."""
    check_counts(horizon=horizon)
    size = 12 * horizon + 6
    check_capacity(size, f"{prefix}a trajectory of {horizon} steps needs {size} doubles")


def gen_lorenz(horizon: int, seed: int) -> np.ndarray:
    """Iterate the noisy discrete Lorenz map ``horizon`` steps from ``LORENZ_INITIAL_STATE``
    under unit Gaussian noise; returns a (horizon + 1, 6) series.

    Coordinates 1..5 form the chaotic system, coordinate 6 an independent
    random walk.  Raises :class:`DivergenceError` at the first step whose state
    exceeds ``LORENZ_OVERFLOW`` in magnitude or is nan; the loop's Python floats
    overflow to inf or nan without raising, so the series is checked once.
    """
    _check_horizon(horizon)
    check_counts(minimum=0, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    eps = rng.standard_normal((horizon, 6))
    x1, x2, x3, x4, x5, x6 = LORENZ_INITIAL_STATE
    states = [(x1, x2, x3, x4, x5, x6)]
    for e1, e2, e3, e4, e5, e6 in eps.tolist():
        n1 = 0.9 * x1 + 0.1 * x2 + e1
        n2 = 0.28 * x1 - 0.01 * x1 * x3 + 0.99 * x2 + e2
        n3 = 0.01 * x1 * (x2 - x4) + 0.9733 * x3 + e3
        n4 = 0.01 * x1 * (x3 - 2.0 * x5) + 0.9366 * x4 + e4
        n5 = 0.02 * x1 * x4 + 0.96 * x5 + e5
        x1, x2, x3, x4, x5, x6 = n1, n2, n3, n4, n5, x6 + e6
        states.append((x1, x2, x3, x4, x5, x6))
    out = np.array(states)
    diverged = np.flatnonzero(~(np.abs(out[1:]) <= LORENZ_OVERFLOW).all(axis=1)).tolist()
    if diverged:
        raise DivergenceError(
            f"trajectory diverged at step {diverged[0] + 1} (state magnitude above {LORENZ_OVERFLOW:g})"
        )
    return out


def window_steps(window: int, num_envs: int, warmup: int) -> int:
    """Steps ``warmup + num_envs * window`` that ``num_envs`` windows after ``warmup`` read, refused
    as ``gen_lorenz`` refuses that horizon, with a capacity message that names the three counts."""
    check_counts(window=window, num_envs=num_envs)
    check_counts(minimum=0, warmup=warmup)
    steps = warmup + num_envs * window
    _check_horizon(steps, f"warmup + num_envs x window = {warmup} + {num_envs} x {window}: ")
    return steps


def split_environments(
    series: np.ndarray,
    target: int,
    window: int,
    warmup: int,
    num_envs: int,
) -> MultiEnvDataset:
    """Cut a trajectory into consecutive disjoint time-window environments.

    Within a window the covariate rows are the full state at time t and the
    target is coordinate ``target`` (1-based) at t + 1, as ``next_steps``
    gives it.
    """
    ys = next_steps(series, window, warmup, num_envs)
    d = ys.shape[1]
    if isinstance(target, bool) or not isinstance(target, numbers.Integral) or not 1 <= target <= d:
        raise InvalidInputError(f"target must be an integer coordinate in 1..{d}, got {target!r}")
    xs = np.asarray(series, dtype=np.float64)[warmup : warmup + num_envs * window]
    xs = xs.reshape(num_envs, window, d).transpose(1, 2, 0)
    return MultiEnvDataset(xs, ys[:, target - 1], (window,) * num_envs, d)


def next_steps(series: np.ndarray, window: int, warmup: int, num_envs: int) -> np.ndarray:
    """Every coordinate at t + 1 in each window, ``(window, coords, num_envs)``: the targets
    ``split_environments`` takes, as a view of ``series``."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ShapeError("series must be a (steps, coords) array")
    check_counts(window=window, num_envs=num_envs)
    check_counts(minimum=0, warmup=warmup)
    required = warmup + num_envs * window + 1
    if series.shape[0] < required:
        raise ShapeError(
            f"series has {series.shape[0]} steps but warmup={warmup}, "
            f"{num_envs} windows of {window} require at least {required}"
        )
    return series[warmup + 1 : required].reshape(num_envs, window, series.shape[1]).transpose(1, 2, 0)
