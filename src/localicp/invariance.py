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
subsets of one level call that share a dof vector share one sorted set of
``B`` reference draws, drawn in that call, and so do all the targets of the
call.  Each p-value stays valid; those of subsets or targets that share a
dof vector become dependent, which the intersection does not need to avoid
(it needs only a valid test of each target's true parent set).

The subsets of one size are fitted and tested at once, in every environment,
by ``level_pvalues``, which fits them with ``fit_subsets``; ``level_reports``
turns its arrays into reports on demand, and ``phi_S`` is the one-subset call.
Every fit is of ``T`` targets on the dataset's covariates, its own target
being ``T = 1``: it reads the cached ``gram`` and the targets' ``X'y`` and
``y'y``, in chunks of whole subsets, one factorization serving every target,
and ``level_pvalues`` tests them under one config, one draw per dof vector.
Each (subset, environment) Gram matrix is factored by Cholesky, by column
recurrences with the pairs on the last axes.  A pair keeps that solve only
when its pivots are positive and finite and a condition bound read off the
factor proves full rank under the SVD cutoff (the empty column set always
does); every other pair (rank-deficient or ill-conditioned) is solved by the
SVD.  A certified (pair, target) takes its RSS as ``y'y - ||L^-1 X'y||^2``
(Furnival & Wilson 1974) where that stays ``RSS_MARGIN`` above its
cancellation error; only the other cells, and the SVD's pairs, form
``y - X beta`` explicitly.  Every sum runs in a fixed order per element, so a
subset's fit is bit-for-bit the same in any batch.

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
from .errors import InvalidInputError, check_capacity, check_counts, check_environments

__all__ = [
    "TestConfig",
    "SubsetTestReport",
    "test_statistic",
    "sample_null_ratio",
    "mc_pvalue",
    "fit_subsets",
    "level_pvalues",
    "level_reports",
    "phi_S",
    "subset_rng",
]

# How far below 1 / tol the certified condition bound of a Gram matrix must
# stay for its Cholesky solve to be kept; the margin absorbs the rounding in
# the computed factor, its inverse and the SVD's own singular values.
CHOLESKY_MARGIN = 1e4

# How far above the cancellation error of ``y'y - ||z||^2``, about
# ``(w + 1) * eps * y'y``, a (pair, target) RSS must stay for that identity to
# be kept; below it the residual is formed explicitly.
RSS_MARGIN = 1e8

# Live doubles one chunk of ``fit_subsets`` may hold, unless one subset needs more.
FIT_CHUNK_DOUBLES = 2**17


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
        if not isinstance(self.alpha, numbers.Real) or isinstance(self.alpha, bool):
            raise InvalidInputError(f"alpha must be a number, got {self.alpha!r}")
        check_counts(minimum=0, seed=self.seed)
        if not (0.0 <= self.alpha < 1.0):
            raise InvalidInputError("alpha must lie in [0, 1)")
        check_counts(mc_samples=self.mc_samples)

    def check_null_size(self, num_envs: int) -> None:
        """Refuse a null of ``mc_samples x num_envs`` chi-squared draws above ``MAX_DOUBLES``."""
        size = self.mc_samples * num_envs
        what = f"mc_samples={self.mc_samples} x {num_envs} environments is {size} doubles per null draw"
        check_capacity(size, what)


@dataclass(frozen=True)
class SubsetTestReport:
    """Outcome of testing one subset; ``localicp discover`` writes one per subset tested."""

    subset: tuple[int, ...]
    residual_norms_sq: tuple[float, ...]
    dofs: tuple[int, ...]
    statistic: float
    p_value: float
    rejected: bool


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
    df = np.asarray(dofs)
    if df.size == 0:
        raise InvalidInputError("dofs must be non-empty")
    # asarray reads [True, 3] as integers, so dofs that are no array are searched for bools.
    if df.dtype.kind not in "iu" or np.any(df < 0) or (
        not isinstance(dofs, np.ndarray) and any(isinstance(d, (bool, np.bool_)) for d in dofs)
    ):
        raise InvalidInputError(f"dofs must be non-negative integers, got {dofs!r}")
    check_counts(minimum=0, size=size)
    positive = df > 0
    drawn = df[positive]
    z = np.zeros((size, df.size))
    # A scalar df draws the same stream as an array of equal dfs, only faster.
    equal = drawn.size > 0 and (drawn == drawn[0]).all()
    z[:, positive] = rng.chisquare(drawn[0] if equal else drawn, size=(size, drawn.size))
    top = z.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(top > 0.0, z.min(axis=1) / top, math.inf)


def _null_pvalues(seed: int, dofs: np.ndarray, b: int, statistics):
    """``(1 + #{R <= T}) / (B + 1)`` of each statistic ``T`` against the ``b`` sorted reference
    ratios ``R`` of ``dofs``, drawn from ``SeedSequence([seed, *dofs])``, its entropy given as
    the ``uint32`` array it makes of that list: the seed's 32-bit little-endian words, then the
    dofs (each below 2^32, as its callers check).  Ties count against the statistic, so an
    infinite one counts every draw."""
    seed = int(seed)
    words = [(seed >> shift) & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.concatenate([np.array(words, dtype=np.uint32), dofs.astype(np.uint32)])
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    draws = np.sort(sample_null_ratio(dofs, rng, size=b))
    return (1 + np.searchsorted(draws, statistics, side="right")) / (b + 1)


def mc_pvalue(statistic: float, dofs: Sequence[int], b: int, seed: int) -> float:
    """Conservative Monte-Carlo p-value ``(1 + #{R <= T}) / (B + 1)``.

    ``_null_pvalues`` draws the ``b`` reference ratios ``R`` and counts;
    ``level_pvalues`` gives the same p-value for a whole level.

    An infinite statistic signals interpolated data, which carries no
    evidence against invariance; the p-value is then 1 and nothing is drawn.
    Any other statistic outside ``[0, 1]``, NaN included, is no min/max ratio
    and is refused, and so is a dof that is not an integer in ``[0, 2^32)``.
    """
    check_counts(b=b)
    check_counts(minimum=0, seed=seed)
    if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) and 0 <= d < 2**32 for d in dofs):
        raise InvalidInputError(f"dofs must be integers in [0, 2^32), got {dofs!r}")
    check_capacity(b * len(dofs), f"b={b} x {len(dofs)} environments is {b * len(dofs)} doubles per null draw")
    if not (0.0 <= statistic <= 1.0 or statistic == math.inf):
        raise InvalidInputError(f"statistic must lie in [0, 1] or be +inf, got {statistic!r}")
    if math.isinf(statistic):
        return 1.0
    return float(_null_pvalues(seed, np.asarray(dofs, dtype=np.int64), b, statistic))


def _cholesky_solve(gram_all: np.ndarray, cols: np.ndarray, xty: np.ndarray, tol: float):
    """Certified Cholesky reduction of ``[G | X'y]`` for a batch of pairs and ``T`` targets.

    ``G`` is gathered from ``gram_all`` for the ``(w, S)`` column sets
    ``cols``; ``xty`` is ``(w, T, S, E)``, the pairs on the trailing axes.
    The rows of ``[G | X'y_1 .. X'y_T | I]`` are reduced one column at a
    time: step ``j`` divides row ``j`` by ``L[j, j] = sqrt(pivot)`` and
    subtracts its outer product from the rows below, so row ``j`` ends as
    ``[L'[j] | (L^-1 X'y)[j] | L^-1[j]]``; each target is one more column of
    the same reduction.  Returns ``||z||^2``, the ``(T, S, E)`` sums over the
    leading axis of ``z * z`` with ``z = L^-1 X'y``, so that ``y'y - ||z||^2``
    is a full-rank pair's RSS; ``z`` ``(w, T, S, E)`` and ``L^-1``
    ``(w, w, S, E)``, views of the reduced rows, from which ``beta = L^-T z``;
    and the ``(S, E)`` mask of certified pairs: every pivot positive and
    finite, and ``||G||_F * ||L^-1||_F^2 * tol * CHOLESKY_MARGIN < 1``.
    """
    width, targets, pairs = len(cols), xty.shape[1], xty.shape[2:]
    a = np.zeros((width, 2 * width + targets) + pairs)
    a[:, :width] = gram_all[cols[:, None], cols[None]]
    a[:, width : width + targets] = xty
    a[np.arange(width), np.arange(width + targets, 2 * width + targets)] = 1.0
    gram_norm = np.sqrt(np.square(a[:, :width]).sum((0, 1)))
    roots = np.empty((width,) + pairs)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(width):
            # Row j is zero past its identity entry, column width + targets + j,
            # the rows below past their own, so the window below is all that moves.
            end = width + targets + 1 + j
            roots[j] = np.sqrt(a[j, j])
            a[j, j:end] /= roots[j]
            a[j + 1 :, j + 1 : end] -= a[j, j + 1 : width, None] * a[j, None, j + 1 : end]
        z, l_inv = a[:, width : width + targets], a[:, width + targets :]
        certified = ((roots > 0.0) & (roots < math.inf)).all(0)
        certified &= gram_norm * np.square(l_inv).sum((0, 1)) * (tol * CHOLESKY_MARGIN) < 1.0
        return (z * z).sum(0), z, l_inv, certified


def _fit_environments(dataset: MultiEnvDataset, col_sets, targets):
    """Squared residual norms ``(S, E, T)`` and Gram ranks ``(S, E)``.

    ``col_sets`` is an ``(S, w)`` array: row ``s`` names the ``w`` physical
    columns of one column set.  ``targets`` is ``(values, X'y, y'y)`` of
    ``(n_max, T, E)`` values, the products as ``target_cross_products`` gives
    them.  The Gram blocks are gathered from ``dataset.gram`` and ``X'y`` from
    the targets', the (column set, environment) pair axes last; one
    factorization of a Gram block serves all ``T`` targets, which share its
    rank.  The rank rule is the SVD's: singular values at most
    ``tol * sigma_max``, with ``tol = w * eps``, count as zero, both for the
    rank and in the pseudo-inverse solve.

    All pairs are first reduced by ``_cholesky_solve``.  Its certificate
    bounds the condition number of ``G`` a margin below ``1 / tol``, so a
    certified pair has every singular value above the cutoff and full rank;
    the empty column set is certified with rank 0 and RSS ``y'y``.  Every
    other pair (rank-deficient, ill-conditioned or a failed pivot) is solved
    by the SVD on its own, ``U'X'y`` per target.  A certified (pair, target)
    cell takes its RSS as ``y'y - ||z||^2`` when that stays above
    ``(w + 1) * eps * RSS_MARGIN * y'y``, which bounds the cancellation error
    near ``1e-8`` of the RSS and keeps it positive.  Only the other cells, and
    every cell of an SVD pair, form ``beta`` (``L^-T z`` or ``V S^+ U'X'y``)
    and the residual ``y - X beta`` explicitly, one column at a time.

    Every step is elementwise, one matrix at a time (the SVD), or a sum over
    a leading axis, which numpy runs in a fixed order for each element when
    the trailing axes hold at least two elements (two environments do), or
    over one contiguous row (each explicit cell's residual is one).  So a
    (pair, target)'s bits do not depend on the rest of the batch.
    """
    col_sets = np.asarray(col_sets, dtype=np.intp)
    xs, gram_all = dataset.covariates, dataset.gram
    y, xty_all, yty = targets
    cols = col_sets.T  # (w, S)
    width = len(cols)
    eps = np.finfo(np.float64).eps
    tol = width * eps
    xty = np.moveaxis(xty_all[cols], 2, 1)  # (w, T, S, E)
    ranks = np.full(xty.shape[2:], width)
    z_sq, z, l_inv, certified = _cholesky_solve(gram_all, cols, xty, tol)
    norms = yty[:, None] - z_sq  # (T, S, E)
    explicit = ~(certified & (norms > (tol + eps) * RSS_MARGIN * yty[:, None]))
    if explicit.any():
        t, s, e = np.nonzero(explicit)
        with np.errstate(invalid="ignore", over="ignore"):
            beta = (l_inv[:, :, s, e] * z[:, None, t, s, e]).sum(0)  # L^-T z, (w, K)
        uncertified = ~certified
        svd = uncertified[s, e]
        if svd.any():
            sets, envs = np.nonzero(uncertified)
            c = cols[:, sets]
            u, sv, vt = np.linalg.svd(np.moveaxis(gram_all[c[:, None], c[None], envs], -1, 0))
            smax = sv[:, :1]
            keep = sv > tol * np.where(smax > 0, smax, 1.0)
            ranks[uncertified] = keep.sum(axis=1)
            s_inv = np.where(keep, 1.0, 0.0)
            np.divide(s_inv, sv, out=s_inv, where=keep)
            # u[i, j] and vt[j, i] with the targets, then the pairs, last: beta = V S^+ U' X'y
            uty = (np.moveaxis(u, 0, -1)[:, :, None] * xty[:, :, sets, envs][:, None]).sum(0)
            svd_beta = (np.moveaxis(vt, 0, -1)[:, :, None] * (s_inv.T[:, None] * uty)[:, None]).sum(0)
            index = np.cumsum(uncertified).reshape(uncertified.shape) - 1  # pair -> row of the SVD
            beta[:, svd] = svd_beta[:, t[svd], index[s[svd], e[svd]]]
        resid = np.ascontiguousarray(y[:, t, e].T)  # (K, n): each cell one contiguous row
        for c, b in zip(cols, beta):
            resid -= xs[:, c[s], e].T * b[:, None]
        resid *= resid
        norms[t, s, e] = resid.sum(1)
    return np.moveaxis(norms, 0, -1), ranks


def fit_subsets(dataset: MultiEnvDataset, subsets: Sequence[Sequence[int]], targets):
    """``_fit_environments`` for 1-based subsets of one size, in chunks.

    Returns ``(S, E, T)`` squared residual norms and ``(S, E)`` Gram ranks
    of ``T`` ``targets`` as ``_fit_environments`` takes them.  The
    intercept column is added to every subset when the dataset carries one.
    A chunk holds as many subsets as fit in ``FIT_CHUNK_DOUBLES`` live
    doubles, but at least one, which may need more, counted per (subset,
    environment) pair: the solve holds the reduced rows, ``X'y``, the pivots
    and its largest temporary (a step's outer product or the squares of ``G``),
    ``w (2 w + T + 1) + w T + max(w^2, (w - 1)(w + T))``, then ``z * z``,
    ``w T``, and about ``3 T`` for the norms and their guard.  The few cells
    whose residual is formed explicitly are not counted.  A subset's result
    does not depend on its chunk.
    """
    cols = np.array(subsets, dtype=np.intp) - 1
    if dataset.intercept_added:
        cols = np.column_stack([cols, np.full(len(cols), dataset.num_covariates)])
    width, t = cols.shape[1], targets[0].shape[1]
    per_pair = width * (2 * width + 1 + 3 * t) + max(width * width, (width - 1) * (width + t)) + 3 * t
    step = max(1, FIT_CHUNK_DOUBLES // (dataset.num_envs * per_pair))
    parts = [_fit_environments(dataset, cols[i : i + step], targets) for i in range(0, len(cols), step)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def level_pvalues(dataset: MultiEnvDataset, subsets, config: TestConfig, targets):
    """Fit one level of ``subsets``, all of one size, and test it for ``T`` targets.

    ``fit_subsets`` fits the level once for ``targets`` as it takes them.
    The rows with a finite statistic for some target are grouped by dof
    vector; each group is drawn once, as ``mc_pvalue`` draws, and all its
    cells are counted with one binary search (an infinite one counts every
    draw, so p = 1).  Every other row gets p = 1.  Each p-value is that of
    ``mc_pvalue``; the targets of one row share its draws, so theirs are
    dependent.  Returns the ``(S, E, T)`` norms with zero-dof entries
    zeroed, the ``(S, E)`` dofs, and ``(S, T)`` statistics, p-values and
    rejections at ``config.alpha``.
    """
    check_environments(dataset.num_envs)
    config.check_null_size(dataset.num_envs)
    norms, ranks = fit_subsets(dataset, subsets, targets)
    dofs = np.maximum(np.subtract(dataset.sample_sizes, ranks), 0)
    # Zero degrees of freedom means the regression interpolates; the residual
    # is exactly zero in exact arithmetic, so discard rounding noise.
    norms = np.where(dofs[..., None] == 0, 0.0, norms)
    statistics = test_statistic(np.moveaxis(norms, -1, 1))
    p_values = np.ones(statistics.shape)
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(np.isfinite(statistics).any(1)).tolist():
        groups.setdefault(dofs[i].tobytes(), []).append(i)
    for rows in groups.values():
        p_values[rows] = _null_pvalues(config.seed, dofs[rows[0]], config.mc_samples, statistics[rows])
    return norms, dofs, statistics, p_values, p_values <= config.alpha


def level_reports(subsets: Sequence[Sequence[int]], *arrays) -> list[SubsetTestReport]:
    """The reports of ``subsets``, in order, from ``level_pvalues``' arrays at one target."""
    columns = zip(*(a.tolist() for a in arrays))
    return [SubsetTestReport(tuple(s), tuple(n), tuple(k), *r) for s, (n, k, *r) in zip(subsets, columns)]


def phi_S(dataset: MultiEnvDataset, subset: Sequence[int], config: TestConfig) -> SubsetTestReport:
    """Test whether ``subset``, of distinct integer indices in ``1..D``, yields invariant residuals.

    Per environment this regresses the target on the sorted subset's columns
    (plus the intercept column when the dataset carries one), forms the
    min/max residual statistic, compares it with the chi-squared reference
    ratio and decides at level ``config.alpha``: ``level_pvalues`` of a
    one-subset level and the dataset's own target, fitted alone, its draws
    made for this call.
    """
    given = tuple(subset)
    if not all(type(s) is int or isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in given):
        raise InvalidInputError(f"subset {given} holds an index that is not an integer")
    subset, d = tuple(sorted(int(s) for s in given)), dataset.num_covariates
    if len(set(subset)) != len(subset):
        raise InvalidInputError(f"subset contains repeated indices: {subset}")
    if any(s < 1 or s > d for s in subset):
        raise InvalidInputError(f"subset {subset} is not contained in 1..{d}")
    values = dataset.target[:, None]
    targets = (values, *dataset.target_cross_products(values))
    norms, dofs, *tested = level_pvalues(dataset, [subset], config, targets)
    return level_reports([subset], norms[..., 0], dofs, *(a[:, 0] for a in tested))[0]
