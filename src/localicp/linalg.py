"""Dense real matrix primitives: pseudo-inverse, numerical rank, least squares.

All routines go through a single SVD convention: singular values below
``rel_tol * sigma_max`` are treated as zero, with ``rel_tol`` defaulting to
``max(rows, cols) * machine_epsilon``.  The regression solve forms the Gram
matrix explicitly and pseudo-inverts it, so the rank used for degrees of
freedom downstream and the rank implicit in the solve are the same quantity.

The subset test does not call these one-matrix routines: it fits many
subsets in all environments at once in ``invariance._fit_environments``,
which computes the same cutoff itself.  They are the reference that batched fit is tested
against.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = ["pinv", "numerical_rank", "least_squares", "residuals", "default_rel_tol"]


def default_rel_tol(shape: tuple[int, int]) -> float:
    """Singular-value cutoff relative to the largest singular value."""
    return max(shape) * np.finfo(np.float64).eps


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def pinv(m, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with a relative cutoff.

    Parameters
    ----------
    m : array_like, shape (r, c)
        Finite real matrix.
    rel_tol : float, optional
        Singular values below ``rel_tol * sigma_max`` are zeroed.
        Defaults to ``max(r, c) * eps``.

    Returns
    -------
    numpy.ndarray, shape (c, r)
    """
    a = _as_matrix(m)
    if rel_tol is None:
        rel_tol = default_rel_tol(a.shape)
    elif rel_tol <= 0:
        raise InvalidInputError("rel_tol must be positive")
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = rel_tol * (s[0] if s.size else 0.0)
    keep = s > cutoff
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def numerical_rank(m, rel_tol: float | None = None) -> int:
    """Number of singular values exceeding ``rel_tol * sigma_max``.

    The all-zero matrix has rank 0 regardless of tolerance.  Because the cutoff
    is relative, appending a column can lower the rank: a large new column
    raises ``sigma_max`` and with it the cutoff.
    """
    a = _as_matrix(m)
    if rel_tol is None:
        rel_tol = default_rel_tol(a.shape)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def least_squares(x, y, rel_tol: float | None = None) -> np.ndarray:
    """Generalized least-squares coefficients ``(X^T X)^+ X^T y``.

    A zero-column ``x`` (regression on the empty subset) yields an empty
    coefficient vector; the corresponding residual is ``y`` itself.
    """
    a = _as_matrix(x, "design matrix")
    b = _as_vector(y, "target")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"design matrix has {a.shape[0]} rows but target has {b.shape[0]} entries"
        )
    if a.shape[1] == 0:
        return np.zeros(0)
    gram = a.T @ a
    return pinv(gram, rel_tol) @ (a.T @ b)


def residuals(x, y, beta) -> np.ndarray:
    """Residual vector ``y - X beta``; equals ``y`` for a zero-column ``X``."""
    a = _as_matrix(x, "design matrix")
    b = _as_vector(y, "target")
    coef = _as_vector(beta, "coefficients")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"design matrix has {a.shape[0]} rows but target has {b.shape[0]} entries"
        )
    if a.shape[1] != coef.shape[0]:
        raise ShapeError(
            f"design matrix has {a.shape[1]} columns but got {coef.shape[0]} coefficients"
        )
    if a.shape[1] == 0:
        return b.copy()
    return b - a @ coef
