"""Invariance test for candidate parent subsets.

For a subset S the statistic is the min/max ratio of per-environment sums of
squared regression residuals (``+inf`` when every residual vanishes, i.e. the
data is interpolated).  Under the null the ratio is distributed like the
min/max ratio of independent chi-squared variables whose degrees of freedom
are ``n_e - rank(Gram)``, so the p-value is obtained by Monte-Carlo sampling
of that reference ratio.  The conservative ``(1 + count) / (B + 1)`` estimator
counts the draws at or below the statistic, so it stays valid under
exchangeability when they tie (a zero-dof environment makes both exactly 0).
The null law depends on the subset only through its dof vector, so the
subsets of one search that share a dof vector share one sorted set of ``B``
reference draws.  Each p-value stays valid; those of subsets that share a dof
vector become dependent, which the intersection does not need to avoid (it
needs only a valid test of the true parent set).

The subsets of one size are fitted and tested at once, in every
environment (``fit_subsets``, ``test_subsets``); ``phi_S`` is the one-subset
call.  The fit reads the dataset's cached cross-products, in chunks of
bounded memory.  Each (subset, environment) Gram matrix is factored by
Cholesky, by column recurrences with
the pairs on the last axes.  A pair keeps that solve only when its pivots are
positive and finite and a condition bound read off the factor proves full
rank under the SVD cutoff; every other pair (rank-deficient, ill-conditioned,
or the empty column set) is solved by the SVD.  The residuals are then formed
explicitly as ``y - X beta``.  Every sum runs in a fixed order per element,
so a subset's fit is bit-for-bit the same in any batch.

Reproducibility contract: the reference draws of a test are a pure function
of ``(config.seed, dofs, config.mc_samples)``, so results do not depend on
the order, the batch or the parallelism in which subsets are tested.
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
    "fit_subsets",
    "test_subsets",
    "phi_S",
    "subset_rng",
]

# How far below 1 / tol the certified condition bound of a Gram matrix must
# stay for its Cholesky solve to be kept; the margin absorbs the rounding in
# the computed factor, its inverse and the SVD's own singular values.
CHOLESKY_MARGIN = 1e4

# Live doubles one chunk of ``fit_subsets`` may hold.
FIT_CHUNK_DOUBLES = 2**16


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
    """Random stream of ``(seed, subset)``.  The subset test does not draw from
    it (see ``mc_pvalue``); ``perfbench/tracer.py`` wraps it by name."""
    bitmask = sum(1 << (d - 1) for d in subset)
    return np.random.default_rng(np.random.SeedSequence([int(seed), bitmask]))


def test_statistic(residual_norms_sq: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Min/max ratio of squared residual norms along the last axis; ``+inf`` where all are zero.

    A float for one vector, an array of one ratio per row otherwise."""
    norms = np.asarray(residual_norms_sq, dtype=np.float64)
    if norms.size == 0:
        raise InvalidInputError("residual norms must be non-empty")
    if not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise InvalidInputError("residual norms must be finite and non-negative")
    top = norms.max(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(top > 0.0, norms.min(axis=-1) / top, math.inf)
    return float(ratio) if ratio.ndim == 0 else ratio


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


def _reference_draws(seed: int, dofs: np.ndarray, b: int) -> np.ndarray:
    """The ``b`` sorted, read-only reference ratios of the dof vector ``dofs``.

    They are drawn from ``SeedSequence([seed, *dofs])``, its entropy given as
    the ``uint32`` array it makes of that list: the seed's 32-bit
    little-endian words, then the dofs (each below 2^32)."""
    seed = int(seed)
    if seed < 0 or np.any(dofs < 0):
        raise InvalidInputError("the seed and the dofs must be non-negative")
    words = [(seed >> shift) & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.concatenate([np.array(words, dtype=np.uint32), dofs.astype(np.uint32)])
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    draws = np.sort(sample_null_ratio(dofs, rng, size=b))
    draws.flags.writeable = False
    return draws


def mc_pvalue(statistic: float, dofs: Sequence[int], b: int, seed: int) -> float:
    """Conservative Monte-Carlo p-value ``(1 + #{R <= T}) / (B + 1)``.

    The ``b`` reference ratios ``R`` are drawn from
    ``SeedSequence([seed, *dofs])`` and sorted, so the count is a binary
    search.  ``test_subsets`` gives the same p-value for a whole level.

    An infinite statistic signals interpolated data, which carries no
    evidence against invariance; the p-value is then 1 and nothing is drawn.
    """
    if b < 1:
        raise InvalidInputError("the number of Monte-Carlo samples must be at least 1")
    if math.isinf(statistic):
        return 1.0
    draws = _reference_draws(seed, np.asarray(dofs, dtype=np.int64), b)
    count = int(np.searchsorted(draws, statistic, side="right"))
    return (1 + count) / (b + 1)


def _cholesky_solve(gram_all: np.ndarray, cols: np.ndarray, xty: np.ndarray, tol: float):
    """Certified Cholesky solve of ``G beta = X'y`` for a batch of pairs.

    ``G`` is gathered from ``gram_all`` for the ``(w, S)`` column sets
    ``cols``; ``xty`` is ``(w, S, E)``, pairs on the trailing axes.  The rows
    of ``[G | X'y | I]`` are reduced one column at a time: step ``j`` divides
    row ``j`` by ``L[j, j] = sqrt(pivot)`` and subtracts its outer product
    from the rows below, so row ``j`` ends as ``[L'[j] | (L^-1 X'y)[j] |
    L^-1[j]]``.  Returns ``beta = L^-T L^-1 X'y`` and the mask of certified
    pairs: every pivot positive and finite, and
    ``||G||_F * ||L^-1||_F^2 * tol * CHOLESKY_MARGIN < 1``.
    """
    width, pairs, count = len(cols), xty.shape[1:], xty[0].size
    a = np.zeros((width, 2 * width + 1) + pairs)
    a[:, :width] = gram_all[cols[:, None], cols[None]]
    a[:, width] = xty
    a[np.arange(width), np.arange(width + 1, 2 * width + 1)] = 1.0
    # One scratch block holds each step's update and every (w, w) product.
    work = np.empty(width * (width + 1) * count)
    square = work[: width * width * count].reshape((width, width) + pairs)
    np.multiply(a[:, :width], a[:, :width], out=square)
    gram_norm = np.sqrt(square.sum((0, 1)))
    roots = np.empty_like(xty)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(width):
            # Row j is zero past column width + 1 + j, the rows below past
            # their own identity entry, so the window below is all that moves.
            end = width + 2 + j
            roots[j] = np.sqrt(a[j, j])
            a[j, j:end] /= roots[j]
            outer = work[: (width - 1 - j) * (width + 1) * count]
            outer = outer.reshape((width - 1 - j, width + 1) + pairs)
            np.multiply(a[j, j + 1 : width, None], a[j, None, j + 1 : end], out=outer)
            a[j + 1 :, j + 1 : end] -= outer
        z, l_inv = a[:, width], a[:, width + 1 :]
        np.multiply(l_inv, l_inv, out=square)
        certified = ((roots > 0.0) & (roots < math.inf)).all(0)
        certified &= gram_norm * square.sum((0, 1)) * (tol * CHOLESKY_MARGIN) < 1.0
        np.multiply(l_inv, z[:, None], out=square)
        return square.sum(0), certified


def _fit_environments(dataset: MultiEnvDataset, col_sets):
    """Squared residual norms and Gram ranks, each of shape ``(S, E)``.

    ``col_sets`` is an ``(S, w)`` array: row ``s`` names the ``w`` physical
    columns of one column set.  The Gram blocks and ``X'y`` are gathered from
    the dataset's cached cross-products, with the (column set, environment)
    pair axes last.  The rank rule is the SVD's: singular values at most
    ``tol * sigma_max``, with ``tol = w * eps``, count as zero, both for the
    rank and in the pseudo-inverse solve.

    All pairs are first solved by ``_cholesky_solve``.  Its certificate
    bounds the condition number of ``G`` a margin below ``1 / tol``, so a
    certified pair has every singular value above the cutoff and full rank.
    Every other pair (rank-deficient, ill-conditioned, a failed pivot, or the
    empty column set, whose rank is 0 and RSS ``y'y``) is solved by the SVD
    on its own.  The residual is then formed explicitly as ``y - X beta``,
    one column at a time.

    Every step is elementwise, one matrix at a time (the SVD), or a sum over
    a leading axis, which numpy runs in a fixed order for each element when
    the trailing pair axes hold at least two pairs (two environments do).
    So a pair's bits do not depend on the other pairs in the batch.
    """
    col_sets = np.asarray(col_sets, dtype=np.intp)
    xs, y = dataset.covariates, dataset.target
    gram_all, xty_all = dataset.cross_products
    cols = col_sets.T  # (w, S)
    width = len(cols)
    tol = width * np.finfo(np.float64).eps
    xty = xty_all[cols]  # (w, S, E)
    ranks = np.full(xty.shape[1:], width)
    if width:
        beta, certified = _cholesky_solve(gram_all, cols, xty, tol)
        uncertified = ~certified
    else:
        beta, uncertified = np.zeros_like(xty), np.ones(xty.shape[1:], dtype=bool)
    if uncertified.any():
        sets, envs = np.nonzero(uncertified)
        c = cols[:, sets]
        u, s, vt = np.linalg.svd(np.moveaxis(gram_all[c[:, None], c[None], envs], -1, 0))
        smax = s[:, :1]
        keep = s > tol * np.where(smax > 0, smax, 1.0)
        ranks[uncertified] = keep.sum(axis=1)
        s_inv = np.where(keep, 1.0, 0.0)
        np.divide(s_inv, s, out=s_inv, where=keep)
        # u[i, j] and vt[j, i] with the pairs last: beta = V S^+ U' X'y
        uty = (np.moveaxis(u, 0, -1) * xty_all[c, envs][:, None]).sum(0)
        beta[:, uncertified] = (np.moveaxis(vt, 0, -1) * (s_inv.T * uty)[:, None]).sum(0)
    resid = np.repeat(y[:, None], len(col_sets), axis=1)  # (n, S, E)
    term = np.empty_like(resid)
    for c, b in zip(cols, beta):
        np.take(xs, c, axis=1, out=term)
        term *= b
        resid -= term
    resid *= resid
    return resid.sum(0), ranks


def fit_subsets(dataset: MultiEnvDataset, subsets: Sequence[Sequence[int]]):
    """``_fit_environments`` for 1-based subsets of one size, in chunks.

    Returns squared residual norms and Gram ranks, each of shape ``(S, E)``.
    The intercept column is added to every subset when the dataset carries
    one.  A chunk holds at most ``FIT_CHUNK_DOUBLES`` live doubles, counted
    per (subset, environment) pair: the solve holds the reduced rows and one
    scratch block, ``3 w^2 + 4 w`` with ``X'y`` and the pivots; the residual
    holds two ``n_max``-long slabs, ``X'y`` and the coefficients.  The two
    are never live at once.  A subset's result does not depend on its chunk.
    """
    cols = np.array(subsets, dtype=np.intp) - 1
    if dataset.intercept_added:
        cols = np.column_stack([cols, np.full(len(cols), dataset.num_covariates)])
    width = cols.shape[1]
    per_subset = dataset.num_envs * max(width * (3 * width + 4), 2 * (len(dataset.target) + width))
    step = max(1, FIT_CHUNK_DOUBLES // per_subset)
    parts = [_fit_environments(dataset, cols[i : i + step]) for i in range(0, len(cols), step)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def test_subsets(
    dataset: MultiEnvDataset,
    subsets: Sequence[Sequence[int]],
    config: TestConfig,
    *,
    nulls: dict[tuple[int, ...], np.ndarray] | None = None,
    fit: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SubsetTestReport]:
    """Test whether each of ``subsets``, all of one size, yields invariant residuals.

    Per environment this regresses the target on the subset columns (plus the
    intercept column when the dataset carries one), forms the min/max residual
    statistic, compares it with the chi-squared reference ratio and decides at
    level ``config.alpha``; reports come in the order of ``subsets``.  ``fit``
    is ``fit_subsets`` of ``subsets`` when the caller has it.  The subsets are
    tested as ``(S, E)`` arrays: rows that share a dof vector share one draw
    of the reference ratios (as in ``mc_pvalue``), kept in ``nulls``, the memo
    one search at this ``config`` shares, and each row's count is one binary
    search.  An infinite statistic gets p = 1 without a draw.
    """
    d = dataset.num_covariates
    subsets = [tuple(sorted(int(s) for s in subset)) for subset in subsets]
    for subset in subsets:
        if len(set(subset)) != len(subset):
            raise InvalidInputError(f"subset contains repeated indices: {subset}")
        if any(s < 1 or s > d for s in subset):
            raise InvalidInputError(f"subset {subset} is not contained in 1..{d}")
    if dataset.num_envs < 2:
        raise InvalidInputError(
            "testing invariance requires at least two environments; a single "
            "environment permits no causal conclusion"
        )
    norms, ranks = fit_subsets(dataset, subsets) if fit is None else fit
    dofs = np.maximum(np.subtract(dataset.sample_sizes, ranks), 0)
    # Zero degrees of freedom means the regression interpolates; the residual
    # is exactly zero in exact arithmetic, so discard rounding noise.
    norms = np.where(dofs == 0, 0.0, norms)
    statistics = test_statistic(norms)
    b, memo = config.mc_samples, {} if nulls is None else nulls
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(np.isfinite(statistics)).tolist():
        groups.setdefault(dofs[i].tobytes(), []).append(i)
    p_values = np.ones(len(subsets))
    for rows in groups.values():
        key = tuple(dofs[rows[0]].tolist())
        if key not in memo:
            memo[key] = _reference_draws(config.seed, dofs[rows[0]], b)
        p_values[rows] = (1 + np.searchsorted(memo[key], statistics[rows], side="right")) / (b + 1)
    columns = zip(norms.tolist(), dofs.tolist(), statistics.tolist(), p_values.tolist())
    return [
        SubsetTestReport(subset, tuple(n), tuple(k), t, p, p <= config.alpha)
        for subset, (n, k, t, p) in zip(subsets, columns)
    ]


def phi_S(dataset: MultiEnvDataset, subset: Sequence[int], config: TestConfig) -> SubsetTestReport:
    """``test_subsets`` of the one subset ``subset``, fitted alone, its draws made for this call."""
    return test_subsets(dataset, [subset], config)[0]
