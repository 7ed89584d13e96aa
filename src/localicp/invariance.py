"""Invariance test for a candidate parent subset.

For a subset S the statistic is the min/max ratio of per-environment sums of
squared regression residuals (``+inf`` when every residual vanishes, i.e. the
data is interpolated).  Under the null the ratio is distributed like the
min/max ratio of independent chi-squared variables whose degrees of freedom
are ``n_e - rank(Gram)``, so the p-value is obtained by Monte-Carlo sampling
of that reference ratio.  The conservative ``(1 + count) / (B + 1)`` estimator
with strict inequality is exactly valid under exchangeability.  The null law
depends on the subset only through its dof vector, so the subsets of one
search that share a dof vector share one sorted set of ``B`` reference draws.
Each p-value stays exactly valid; those of subsets that share a dof vector
become dependent, which the intersection does not need to avoid (it needs
only a valid test of the true parent set).

All environments of a subset are fitted at once.  Their Gram matrices are
factored by one batched Cholesky; an environment keeps that solve only when a
condition bound read off the factor proves its Gram matrix has full rank under
the SVD cutoff, and every other environment (rank-deficient, ill-conditioned,
or the empty column set) is solved by the batched SVD.  The residuals are then
formed explicitly as ``y - X beta``.

Reproducibility contract: the reference draws of a test are a pure function
of ``(config.seed, dofs, config.mc_samples)``, so results do not depend on
the order or parallelism in which subsets are tested.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import MultiEnvDataset
from .errors import InvalidInputError, check_counts

__all__ = [
    "TestConfig",
    "SubsetTestReport",
    "test_statistic",
    "sample_null_ratio",
    "mc_pvalue",
    "phi_S",
    "subset_rng",
]

# How far below 1 / tol the certified condition bound of a Gram matrix must
# stay for its Cholesky solve to be kept; the margin absorbs the rounding in
# the computed factor, its inverse and the SVD's own singular values.
CHOLESKY_MARGIN = 1e4


@dataclass(frozen=True)
class TestConfig:
    """Parameters of the subset test.

    ``alpha = 0`` is admitted as the degenerate never-reject configuration
    (the Monte-Carlo p-value is always at least ``1 / (mc_samples + 1)``).
    """

    alpha: float = 0.1
    mc_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.alpha, numbers.Real):
            raise InvalidInputError(f"alpha must be a number, got {self.alpha!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise InvalidInputError("alpha must lie in [0, 1)")
        check_counts(mc_samples=self.mc_samples)


@dataclass(frozen=True)
class SubsetTestReport:
    """Outcome of testing one subset, self-describing for serialization."""

    subset: tuple[int, ...]
    residual_norms_sq: tuple[float, ...]
    dofs: tuple[int, ...]
    statistic: float
    p_value: float
    rejected: bool

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "residual_norms_sq": list(self.residual_norms_sq),
            "dofs": list(self.dofs),
            "statistic": "inf" if math.isinf(self.statistic) else self.statistic,
            "p_value": self.p_value,
            "rejected": self.rejected,
        }


def subset_rng(seed: int, subset: Sequence[int]) -> np.random.Generator:
    """Random stream for a subset, a pure function of (seed, subset).

    The subset test no longer draws from it: its reference draws are keyed
    on the dof vector (see ``mc_pvalue``).  ``perfbench/tracer.py`` still
    wraps it by name.
    """
    bitmask = sum(1 << (d - 1) for d in subset)
    return np.random.default_rng(np.random.SeedSequence([int(seed), bitmask]))


def test_statistic(residual_norms_sq: Sequence[float]) -> float:
    """Min/max ratio of squared residual norms; ``+inf`` when all are zero."""
    norms = np.asarray(residual_norms_sq, dtype=np.float64)
    if norms.size == 0:
        raise InvalidInputError("residual norms must be non-empty")
    if not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise InvalidInputError("residual norms must be finite and non-negative")
    top = norms.max()
    if top == 0.0:
        return math.inf
    return float(norms.min() / top)


def sample_null_ratio(dofs: Sequence[int], rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` min/max ratios of independent chi-squared variables.

    An entry with zero degrees of freedom contributes an exact 0; if every
    entry is 0 the ratio is ``+inf`` (same convention as the statistic).
    """
    df = np.asarray(dofs, dtype=np.int64)
    if df.size == 0:
        raise InvalidInputError("dofs must be non-empty")
    if np.any(df < 0):
        raise InvalidInputError("dofs must be non-negative")
    z = np.zeros((size, df.size))
    positive = df > 0
    if positive.any():
        z[:, positive] = rng.chisquare(df[positive], size=(size, int(positive.sum())))
    top = z.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(top > 0.0, z.min(axis=1) / top, math.inf)


def mc_pvalue(
    statistic: float,
    dofs: Sequence[int],
    b: int,
    seed: int,
    *,
    nulls: dict[tuple[int, ...], np.ndarray] | None = None,
) -> float:
    """Conservative Monte-Carlo p-value ``(1 + #{R < T}) / (B + 1)``.

    The ``b`` reference ratios ``R`` are drawn from
    ``SeedSequence([seed, *dofs])`` and sorted, so the count is a binary
    search.  ``nulls`` memoizes the sorted, read-only draws by dof vector for
    a caller that tests many subsets at one ``seed`` and ``b``; without it
    the draws are made for this call alone.

    An infinite statistic signals interpolated data, which carries no
    evidence against invariance; the p-value is then 1 and nothing is drawn.
    """
    if b < 1:
        raise InvalidInputError("the number of Monte-Carlo samples must be at least 1")
    if math.isinf(statistic):
        return 1.0
    key = tuple(int(d) for d in dofs)
    memo = {} if nulls is None else nulls
    draws = memo.get(key)
    if draws is None:
        if seed < 0 or any(d < 0 for d in key):
            raise InvalidInputError("the seed and the dofs must be non-negative")
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), *key]))
        draws = np.sort(sample_null_ratio(key, rng, size=b))
        draws.flags.writeable = False
        memo[key] = draws
    count = int(np.searchsorted(draws, statistic, side="left"))
    return (1 + count) / (b + 1)


def _fit_environments(dataset: MultiEnvDataset, cols: list[int]):
    """Per-environment squared residual norms and Gram ranks for the columns.

    The Gram matrices and ``X'y`` come from the dataset's zero-padded stack;
    padded rows are zero and so leave every Gram matrix, ``X'y`` and residual
    unchanged.  The rank rule is the SVD's: singular values at most
    ``tol * sigma_max``, with ``tol = width * eps``, count as zero, both for
    the rank and in the pseudo-inverse solve.

    All Gram matrices are first factored at once by Cholesky, ``G = L L'``.
    An environment keeps that solve only under the certificate
    ``||G||_F * ||L^-1||_F^2 * tol * CHOLESKY_MARGIN < 1``: it bounds the
    condition number of ``G`` a margin below ``1 / tol``, so every singular
    value clears the cutoff and the rank is the full width.  These go to the
    batched SVD instead: every environment when the factorization raises
    (one Gram matrix that is not positive definite fails the whole batch),
    an environment whose bound is not below 1 (which includes a non-finite
    factor), and the empty column set, whose factors are empty: rank 0 and
    RSS ``y'y``.  Both solves give the coefficients; the residual is then
    formed once, as ``y - X beta``, for every environment.
    """
    xs, y = dataset.padded
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
            bound = gram_norm * np.einsum("eij,eij->e", l_inv, l_inv) * tol * CHOLESKY_MARGIN
            uncertified = ~(bound < 1.0)
            # G^-1 X'y = L^-T (L^-1 X'y)
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


def phi_S(
    dataset: MultiEnvDataset,
    subset: Sequence[int],
    config: TestConfig,
    *,
    nulls: dict[tuple[int, ...], np.ndarray] | None = None,
) -> SubsetTestReport:
    """Test whether ``subset`` yields environment-invariant residuals.

    Per environment this regresses the target on the subset columns (plus the
    intercept column when the dataset carries one), forms the min/max residual
    statistic, compares it with the chi-squared reference ratio and decides at
    level ``config.alpha``.  ``nulls`` is the memo of reference draws that
    one search at this ``config`` shares among its subsets (see
    ``mc_pvalue``); without it the draws are made for this call alone.
    """
    d = dataset.num_covariates
    subset = tuple(sorted(int(s) for s in subset))
    if len(set(subset)) != len(subset):
        raise InvalidInputError(f"subset contains repeated indices: {subset}")
    if any(s < 1 or s > d for s in subset):
        raise InvalidInputError(f"subset {subset} is not contained in 1..{d}")
    if dataset.num_envs < 2:
        raise InvalidInputError(
            "testing invariance requires at least two environments; a single "
            "environment permits no causal conclusion"
        )
    cols = [s - 1 for s in subset]
    if dataset.intercept_added:
        cols = cols + [d]

    norms, ranks = _fit_environments(dataset, cols)
    dofs = tuple(max(0, n - int(r)) for n, r in zip(dataset.sample_sizes, ranks))
    # Zero degrees of freedom means the regression interpolates; the residual
    # is exactly zero in exact arithmetic, so discard rounding noise.
    norms = np.where(np.asarray(dofs) == 0, 0.0, norms)
    statistic = test_statistic(norms)
    p = mc_pvalue(statistic, dofs, config.mc_samples, config.seed, nulls=nulls)
    return SubsetTestReport(
        subset=subset,
        residual_norms_sq=tuple(float(v) for v in norms),
        dofs=dofs,
        statistic=statistic,
        p_value=p,
        rejected=bool(p <= config.alpha),
    )
