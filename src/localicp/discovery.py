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
from dataclasses import dataclass
from typing import Callable, Iterable

from .dataset import MultiEnvDataset
from .errors import CapacityError, InvalidInputError
from .invariance import SubsetTestReport, TestConfig, fit_subsets, test_subsets

__all__ = [
    "DEFAULT_MAX_DIM",
    "DiscoveryResult",
    "HeterogeneityInput",
    "discover",
    "enumerate_subsets",
    "heterogeneity_index",
    "power_bound",
    "infinite_env_limit",
]

DEFAULT_MAX_DIM = 20

STATUS_OK = "ok"
STATUS_MODEL_REJECTED = "model_rejected"


@dataclass(frozen=True)
class DiscoveryResult:
    """Intersection estimate plus the per-subset evidence.

    ``early_stopped`` is true when the search skipped at least one subset
    that could not change the estimate; ``reports`` then cover only the
    subsets tested, and ``subsets_tested`` counts them.
    """

    estimated_parents: tuple[int, ...]
    reports: tuple[SubsetTestReport, ...]
    subsets_tested: int
    early_stopped: bool
    status: str

    def to_dict(self) -> dict:
        return {
            "estimated_parents": list(self.estimated_parents),
            "status": self.status,
            "subsets_tested": self.subsets_tested,
            "early_stopped": self.early_stopped,
            "reports": [r.to_dict() for r in self.reports],
        }


def enumerate_subsets(d: int) -> Iterable[tuple[int, ...]]:
    """All subsets of {1..d} by increasing cardinality, lexicographic within."""
    for k in range(d + 1):
        yield from itertools.combinations(range(1, d + 1), k)


def discover(
    dataset: MultiEnvDataset,
    config: TestConfig,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
    early_stop: bool = False,
    test: Callable[..., list[SubsetTestReport]] = test_subsets,
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
        remaining subset, and the search stops.  Reports then cover only
        the tested subsets, and ``early_stopped`` tells whether any subset
        was skipped.

    The subsets of one size that the running intersection leaves are
    fitted in one call (``fit_subsets``) and tested in one call of ``test``
    with that ``fit`` and a ``nulls`` dict that lives for this call only (one
    sorted set of reference draws per distinct dof vector).  The reports are
    then walked in the order of ``enumerate_subsets``, dropping those of
    subsets the intersection covers by then.  A subset's fit does not depend
    on the others fitted with it, and its draws depend only on
    ``(config.seed, dofs, config.mc_samples)``, so the reports do not depend
    on the order in which subsets are tested.
    """
    d = dataset.num_covariates
    if d > max_dim:
        raise CapacityError(
            f"{d} candidate covariates means {2 ** d} subsets, above the limit of "
            f"2^{max_dim}; reduce the dimensionality (e.g. cluster correlated "
            f"covariates) or raise the limit explicitly"
        )
    reports: list[SubsetTestReport] = []
    running: set[int] | None = None  # None until the first accepted subset
    nulls: dict = {}

    def covered(subset):
        """Whether ``subset`` can no longer change the estimate."""
        return early_stop and running is not None and running <= set(subset)

    for _, level in itertools.groupby(enumerate_subsets(d), key=len):
        if early_stop and running == set():
            break
        level = [s for s in level if not covered(s)]
        if not level:
            continue
        for report in test(dataset, level, config, nulls=nulls, fit=fit_subsets(dataset, level)):
            if covered(report.subset):
                continue
            reports.append(report)
            if not report.rejected:
                running = set(report.subset) if running is None else running & set(report.subset)
    return DiscoveryResult(
        estimated_parents=tuple(sorted(running or ())),
        reports=tuple(reports),
        subsets_tested=len(reports),
        early_stopped=len(reports) < 2**d,
        status=STATUS_MODEL_REJECTED if running is None else STATUS_OK,
    )


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
        k = len(self.parents)
        for name in ("beta1", "beta2", "sigma_v", "sigma_w"):
            if len(getattr(self, name)) != k:
                raise InvalidInputError(f"{name} must align with parents (length {k})")
        if self.sigma_y <= 0:
            raise InvalidInputError("sigma_y must be positive")
        if any(s <= 0 for s in self.sigma_v) or any(s <= 0 for s in self.sigma_w):
            raise InvalidInputError("covariate standard deviations must be positive")
        if not set(self.omitted) <= set(self.parents):
            raise InvalidInputError("omitted indices must be a subset of parents")


def heterogeneity_index(inp: HeterogeneityInput) -> float:
    """Residual-scale ratio in (0, 1]; 1 means the two types are indistinguishable."""
    pos = {p: i for i, p in enumerate(inp.parents)}
    var_y = inp.sigma_y ** 2
    rho_v = var_y + sum(
        inp.beta1[pos[u]] ** 2 * inp.sigma_v[pos[u]] ** 2 for u in inp.omitted
    )
    rho_w = var_y + sum(
        inp.beta2[pos[u]] ** 2 * inp.sigma_w[pos[u]] ** 2 for u in inp.omitted
    )
    return min(rho_v / rho_w, rho_w / rho_v)


def power_bound(i_s: float, k: int, e: int, alpha: float) -> float:
    """Finite-sample upper bound on accepting a wrong subset, clamped to 1.

    Vacuous (returns 1) when ``i_s`` is not below 1.
    """
    if not (0.0 < i_s <= 1.0):
        raise InvalidInputError("the heterogeneity index must lie in (0, 1]")
    if k < 1 or e < 1 or alpha <= 0:
        raise InvalidInputError("require k >= 1, e >= 1 and alpha > 0")
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
    if not (0.0 < i_s <= 1.0):
        raise InvalidInputError("the heterogeneity index must lie in (0, 1]")
    if k < 1 or not (0.0 < alpha < 1.0):
        raise InvalidInputError("require k >= 1 and alpha in (0, 1)")
    t = i_s ** (k / 2.0)
    upper = (1.0 / alpha) * (2.0 * t / (2.0 * t + 1.0))
    threshold = t / (t + 1.0)
    lower = (threshold - alpha) / (1.0 - alpha) if alpha < threshold else 0.0
    return lower, upper
