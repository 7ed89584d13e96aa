"""Exhaustive subset search and the intersection estimator.

All subsets of the candidate covariates are tested for residual invariance;
the estimate of the causal parents is the intersection of the accepted
subsets.  When every subset is rejected the raw intersection over an empty
family would be the full set; that outcome instead reports an empty estimate
with status ``"model_rejected"``, since an all-rejected run signals model
misspecification rather than evidence that every covariate is a parent.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .dataset import MultiEnvDataset
from .errors import CapacityError, InvalidInputError, check_counts, finite
from .invariance import SubsetTestReport, TestConfig, level_pvalues, level_reports

__all__ = [
    "DEFAULT_MAX_DIM",
    "DiscoveryResult",
    "HeterogeneityInput",
    "discover",
    "discover_targets",
    "enumerate_subsets",
    "heterogeneity_index",
    "power_bound",
    "infinite_env_limit",
]

DEFAULT_MAX_DIM = 20

STATUS_OK = "ok"
STATUS_MODEL_REJECTED = "model_rejected"


@dataclass(frozen=True, eq=False)
class DiscoveryResult:
    """Intersection estimate plus the per-subset evidence, kept as arrays.

    ``levels`` holds, per level, the subsets walked and ``level_pvalues``'
    arrays at their rows; ``reports`` builds their reports on each call.
    ``early_stopped`` is true when the search skipped at least one subset
    that could not change the estimate; the evidence then covers only the
    subsets tested, and ``subsets_tested`` counts them.  Only a one-target
    search keeps evidence: each target of a ``discover_targets`` call of
    several keeps none.
    """

    estimated_parents: tuple[int, ...]
    levels: tuple[tuple, ...]
    subsets_tested: int
    early_stopped: bool
    status: str

    @property
    def reports(self) -> tuple[SubsetTestReport, ...]:
        return tuple(r for level in self.levels for r in level_reports(*level))


def enumerate_subsets(d: int) -> Iterable[tuple[int, ...]]:
    """All subsets of {1..d} by increasing cardinality, lexicographic within."""
    for k in range(d + 1):
        yield from itertools.combinations(range(1, d + 1), k)


def _search(dataset, targets, config, test, max_dim, early_stop) -> list[DiscoveryResult]:
    """``discover``'s walk, for ``T`` targets ``(n_max, T, E)`` in lockstep under one ``config``.

    The targets' ``X'y`` and ``y'y`` are formed once.  Each level is tested once, ``test(dataset, level,
    config, targets)`` as ``level_pvalues``, on the union of the subsets some target still needs, for the
    targets ``live`` that need one, one draw per dof vector serving them all.  Each live target walks its
    rejections in level order with its own intersection and early stop, reading only the subsets it walks;
    a one-target search keeps those subsets and the level's arrays at their rows.
    """
    d = dataset.num_covariates
    if d > max_dim:
        raise CapacityError(
            f"{d} candidate covariates means {2 ** d} subsets, above the limit of "
            f"2^{max_dim}; reduce the dimensionality (e.g. cluster correlated "
            f"covariates) or raise the limit explicitly"
        )
    targets = (targets, *dataset.target_cross_products(targets))
    # None until a target's first accepted subset
    running: list[set[int] | None] = [None] * targets[0].shape[1]
    tested = [0] * len(running)
    levels: list[tuple] = []

    def covered(t, subset):
        """Whether ``subset`` can no longer change target ``t``'s estimate."""
        return early_stop and running[t] is not None and running[t] <= set(subset)

    for _, level in itertools.groupby(enumerate_subsets(d), key=len):
        if early_stop and all(r == set() for r in running):
            break
        level = list(level)
        needed = np.array([[not covered(t, s) for t in range(len(running))] for s in level])
        rows, live = needed.any(1), np.flatnonzero(needed.any(0)).tolist()
        level = [s for s, row in zip(level, rows) if row]
        if not level:
            continue
        # Each array of ``targets`` holds the target axis second to last.
        norms, dofs, *arrays = test(dataset, level, config, tuple(a[..., live, :] for a in targets))
        for j, t in enumerate(live):
            walked = []
            for i, (subset, rejected) in enumerate(zip(level, arrays[-1][:, j].tolist())):
                if not covered(t, subset):
                    walked.append(i)
                    if not rejected:
                        running[t] = set(subset) if running[t] is None else running[t] & set(subset)
            tested[t] += len(walked)
            if len(running) == 1:
                subsets = [level[i] for i in walked]
                levels.append((subsets, norms[walked, :, j], dofs[walked], *(a[walked, j] for a in arrays)))
    return [
        DiscoveryResult(
            tuple(sorted(r or ())), tuple(levels), n, n < 2**d,
            STATUS_MODEL_REJECTED if r is None else STATUS_OK,
        )
        for r, n in zip(running, tested)
    ]


def discover(
    dataset: MultiEnvDataset,
    config: TestConfig,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
    early_stop: bool = False,
    test: Callable[..., tuple] = level_pvalues,
) -> DiscoveryResult:
    """Estimate the causal parents of the target by exhaustive subset testing.

    Parameters
    ----------
    dataset : MultiEnvDataset
        Observations from at least two environments.
    config : TestConfig
        Level, Monte-Carlo budget and seed of the per-subset tests.
    max_dim : int
        Refuse to enumerate when the number of candidates exceeds this.
    early_stop : bool
        Skip every subset that contains the running intersection of the
        subsets accepted so far: accepted or rejected, it leaves the
        intersection as it is.  Once the intersection is empty that is every
        remaining subset, and the search stops; ``early_stopped`` tells
        whether any subset was skipped.

    The one-target case of ``discover_targets``' lockstep search, each level
    tested by ``test`` as by ``level_pvalues``.  A subset's evidence depends only
    on its own fit and on ``(config.seed, dofs, config.mc_samples)``, not on the order of testing.
    """
    return _search(dataset, dataset.target[:, None], config, test, max_dim, early_stop)[0]


def discover_targets(dataset: MultiEnvDataset, targets: np.ndarray, config: TestConfig) -> list[DiscoveryResult]:
    """``discover`` of ``T`` targets ``(n_max, T, E)`` on the covariates of ``dataset``, in lockstep.

    Each target, tested under ``config``, replaces the dataset's own.  Each
    level's union is fitted in one call and each of its dof vectors drawn
    once, so one factorization per (subset, environment) and one draw serve
    every target; each keeps its own intersection and early stop, so result
    ``t`` equals ``discover`` of target ``t``'s own dataset under ``config``
    with ``early_stop``, its evidence kept only when ``T = 1``.
    """
    return _search(dataset, targets, config, level_pvalues, DEFAULT_MAX_DIM, True)


# ---------------------------------------------------------------------------
# Heterogeneity diagnostics for the two-environment-type setting


@dataclass(frozen=True)
class HeterogeneityInput:
    """Population parameters of the two-type setting, aligned with ``parents``.

    ``omitted`` names the parents excluded from the candidate subset; only
    those contribute covariate variance to the residual scale ratio.
    """

    parents: tuple[int, ...]
    beta1: tuple[float, ...]
    beta2: tuple[float, ...]
    sigma_v: tuple[float, ...]
    sigma_w: tuple[float, ...]
    sigma_y: float
    omitted: tuple[int, ...]

    def __post_init__(self):
        for name in ("parents", "omitted"):
            values = getattr(self, name)
            if not all(isinstance(p, numbers.Integral) and not isinstance(p, bool) and p >= 1 for p in values):
                raise InvalidInputError(f"{name} {values!r} must hold positive integers")
            if len(set(values)) != len(values):
                raise InvalidInputError(f"{name} {values!r} holds repeated indices")
        k = len(self.parents)
        for name in ("beta1", "beta2", "sigma_v", "sigma_w"):
            values = getattr(self, name)
            if len(values) != k:
                raise InvalidInputError(f"{name} must align with parents (length {k})")
            if not all(map(finite, values)):
                raise InvalidInputError(f"{name} must hold finite numbers, got {values!r}")
        if not (finite(self.sigma_y) and self.sigma_y > 0):
            raise InvalidInputError(f"sigma_y must be a positive finite number, got {self.sigma_y!r}")
        if any(s <= 0 for s in self.sigma_v) or any(s <= 0 for s in self.sigma_w):
            raise InvalidInputError("covariate standard deviations must be positive")
        if not set(self.omitted) <= set(self.parents):
            raise InvalidInputError("omitted indices must be a subset of parents")


def heterogeneity_index(inp: HeterogeneityInput) -> float:
    """Residual-scale ratio in (0, 1]; 1 means the two types are indistinguishable.  A residual
    scale that overflows, or underflows to 0, is refused."""
    pos = {p: i for i, p in enumerate(inp.parents)}
    rho_v, rho_w = (
        inp.sigma_y * inp.sigma_y + sum(b[pos[u]] * b[pos[u]] * (s[pos[u]] * s[pos[u]]) for u in inp.omitted)
        for b, s in ((inp.beta1, inp.sigma_v), (inp.beta2, inp.sigma_w))
    )
    if not (finite(rho_v) and finite(rho_w) and rho_v > 0 and rho_w > 0):
        raise InvalidInputError(f"the residual scales {rho_v!r} and {rho_w!r} must be positive and finite")
    return min(rho_v / rho_w, rho_w / rho_v)


def power_bound(i_s: float, k: int, e: int, alpha: float) -> float:
    """Finite-sample upper bound on accepting a wrong subset, clamped to 1.

    Vacuous (returns 1) when ``i_s`` is not below 1.
    """
    if not (finite(i_s) and 0.0 < i_s <= 1.0):
        raise InvalidInputError("the heterogeneity index must lie in (0, 1]")
    check_counts(k=k, e=e)
    if not (finite(alpha) and 0.0 < alpha < 1.0):
        raise InvalidInputError("alpha must lie in (0, 1)")
    if i_s >= 1.0:
        return 1.0
    half_k = k / 2.0
    c_hi = i_s ** -0.25
    c_lo = i_s ** 0.25
    # (c e^{1-c})^{k/2} in log space; the base is < 1 for c != 1.
    term_hi = math.exp(half_k * (math.log(c_hi) + 1.0 - c_hi))
    term_lo = math.exp(half_k * (math.log(c_lo) + 1.0 - c_lo))
    return min(1.0, (4.0 * e / alpha) * (term_hi + term_lo))


def infinite_env_limit(i_s: float, k: int, alpha: float) -> tuple[float, float]:
    """(lower, upper) bounds on wrong-subset acceptance as environments grow.

    The lower bound is 0 unless ``alpha`` is below the limiting acceptance
    threshold ``i_s^{k/2} / (i_s^{k/2} + 1)``.
    """
    if not (finite(i_s) and 0.0 < i_s <= 1.0):
        raise InvalidInputError("the heterogeneity index must lie in (0, 1]")
    check_counts(k=k)
    if not (finite(alpha) and 0.0 < alpha < 1.0):
        raise InvalidInputError("alpha must lie in (0, 1)")
    t = i_s ** (k / 2.0)
    upper = (1.0 / alpha) * (2.0 * t / (2.0 * t + 1.0))
    threshold = t / (t + 1.0)
    lower = (threshold - alpha) / (1.0 - alpha) if alpha < threshold else 0.0
    return lower, upper
