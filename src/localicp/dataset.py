"""Multi-environment dataset container and its CSV/JSON serialization.

A dataset is stored once, zero-padded with the environment axis last; the
batched fit reads these arrays directly.

CSV layout: header ``env,x1,...,xD,y``, one row per observation, rows in any
order.  Environment labels are arbitrary strings mapped to indices by first
appearance; the mapping is preserved on the dataset for traceability.

JSON layout: a versioned document bundling the per-environment arrays and
their labels.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError

DATASET_SCHEMA_VERSION = 1


class EnvironmentData(NamedTuple):
    """One environment's rows, views into its dataset: ``(n_e, width)`` and ``(n_e,)``."""

    covariates: np.ndarray
    target: np.ndarray


@dataclass(frozen=True)
class MultiEnvDataset:
    """Environments sharing a covariate layout, zero-padded, environment axis last.

    ``covariates`` is ``(n_max, width, E)`` and ``target`` ``(n_max, E)``, C-contiguous and
    read-only, with ``n_max`` the largest of ``sample_sizes``.  Rows past an environment's
    own ``n_e`` are zero, so they add nothing to its Gram matrix, ``X'y`` or residuals.
    ``num_covariates`` counts candidate causal parents only; when ``intercept_added``
    the width carries a trailing constant column that is never a candidate.
    ``env_labels`` defaults to ``"1"`` .. ``"E"``.
    """

    covariates: np.ndarray
    target: np.ndarray
    sample_sizes: tuple[int, ...]
    num_covariates: int
    intercept_added: bool = False
    env_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        xs = np.ascontiguousarray(self.covariates, dtype=np.float64)
        ys = np.ascontiguousarray(self.target, dtype=np.float64)
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes:
            raise InvalidInputError("a dataset must contain at least one environment")
        if min(sizes) < 1:
            raise InvalidInputError("an environment must contain at least one observation")
        width = self.num_covariates + (1 if self.intercept_added else 0)
        shape = (max(sizes), width, len(sizes))
        if xs.shape != shape or ys.shape != shape[::2]:
            raise ShapeError(f"covariates {xs.shape}, target {ys.shape}; expected {shape}, {shape[::2]}")
        padding = np.arange(shape[0])[:, None] >= np.array(sizes)
        if ys[padding].any() or xs.transpose(0, 2, 1)[padding].any():
            raise ShapeError("rows past an environment's sample size must be zero")
        # A finite sum of squares bounds every Gram-matrix entry; the SVD does
        # not return on an overflowed one.
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.einsum("nie,nie->e", xs, xs) + np.einsum("ne,ne->e", ys, ys)
        if not np.isfinite(squares).all():
            raise InvalidInputError("environment data contains non-finite or overflowing entries")
        labels = self.env_labels
        labels = tuple(str(i + 1) for i in range(len(sizes))) if labels is None else tuple(labels)
        if len(labels) != len(sizes):
            raise ShapeError("env_labels length must match the number of environments")
        # Read-only views, so no write through the dataset leaves
        # ``cross_products`` stale.  They share the caller's arrays, which
        # stay writable: the caller must not write to them afterwards.
        xs, ys = xs.view(), ys.view()
        xs.flags.writeable = ys.flags.writeable = False
        fields = dict(covariates=xs, target=ys, sample_sizes=sizes, env_labels=labels)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def num_envs(self) -> int:
        return len(self.sample_sizes)

    @property
    def environments(self) -> tuple[EnvironmentData, ...]:
        """Each environment's own rows, as views into the padded arrays."""
        return tuple(
            EnvironmentData(self.covariates[:n, :, e], self.target[:n, e])
            for e, n in enumerate(self.sample_sizes)
        )

    @cached_property
    def cross_products(self) -> tuple[np.ndarray, np.ndarray]:
        """``X'X`` ``(width, width, E)`` and ``X'y`` ``(width, E)`` of all columns.

        A fit of any column set reads its blocks from here; both are read-only.
        """
        xs, ys = self.covariates, self.target
        gram, xty = np.einsum("nie,nje->ije", xs, xs), np.einsum("nie,ne->ie", xs, ys)
        gram.flags.writeable = xty.flags.writeable = False
        return gram, xty

    def with_intercept(self) -> "MultiEnvDataset":
        """Append a constant column, one below each ``n_e`` and zero past it (idempotent)."""
        if self.intercept_added:
            return self
        ones = np.arange(len(self.target))[:, None, None] < np.array(self.sample_sizes)
        xs = np.concatenate([self.covariates, ones], axis=1)
        return replace(self, covariates=xs, intercept_added=True)


def from_arrays(
    covariates: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    env_labels: Sequence[str] | None = None,
) -> MultiEnvDataset:
    """Build a dataset from parallel lists of (n_e x D) matrices and (n_e) vectors."""
    if len(covariates) != len(targets):
        raise ShapeError("covariates and targets must have the same number of environments")
    if not covariates:
        raise InvalidInputError("empty dataset")
    covs = [np.asarray(x, dtype=np.float64) for x in covariates]
    tgts = [np.asarray(y, dtype=np.float64) for y in targets]
    for i, (x, y) in enumerate(zip(covs, tgts)):
        if x.ndim != 2 or y.ndim != 1:
            raise ShapeError("covariates must be a matrix and target a vector")
        if x.shape[0] != y.shape[0]:
            raise ShapeError(f"covariates have {x.shape[0]} rows but target has {y.shape[0]} entries")
        if x.shape[1] != covs[0].shape[1]:
            raise ShapeError(f"environment {i} has {x.shape[1]} columns, expected {covs[0].shape[1]}")
    sizes = [len(y) for y in tgts]
    xs = np.zeros((max(sizes), covs[0].shape[1], len(sizes)))
    ys = np.zeros((max(sizes), len(sizes)))
    for e, (x, y) in enumerate(zip(covs, tgts)):
        xs[: len(y), :, e] = x
        ys[: len(y), e] = y
    return MultiEnvDataset(xs, ys, tuple(sizes), covs[0].shape[1], env_labels=env_labels)


# ---------------------------------------------------------------------------
# CSV


def write_csv(dataset: MultiEnvDataset, path) -> None:
    if dataset.intercept_added:
        raise InvalidInputError("export the raw dataset (without intercept column)")
    d = dataset.num_covariates
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["env"] + [f"x{j + 1}" for j in range(d)] + ["y"])
        for label, env in zip(dataset.env_labels, dataset.environments):
            for x, y in zip(*env):
                writer.writerow([label] + [repr(float(v)) for v in x] + [repr(float(y))])


def _read_text(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def read_csv(path) -> MultiEnvDataset:
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "env" or header[-1] != "y":
            raise InvalidInputError(
                f"{path}: line 1: expected header 'env,x1,...,xD,y', got {','.join(header)}"
            )
        d = len(header) - 2
        expected = ["env"] + [f"x{j + 1}" for j in range(d)] + ["y"]
        if header != expected:
            raise InvalidInputError(
                f"{path}: line 1: expected header {','.join(expected)}, got {','.join(header)}"
            )
        order: list[str] = []
        rows: dict[str, list[list[float]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise InvalidInputError(
                    f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}"
                )
            label = row[0]
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise InvalidInputError(f"{path}: line {lineno}: {exc}") from None
            for name, value in zip(header[1:], values):
                if not math.isfinite(value):
                    raise InvalidInputError(f"{path}: line {lineno}: {name} is {value}, not finite")
            if label not in rows:
                rows[label] = []
                order.append(label)
            rows[label].append(values)
    if not order:
        raise InvalidInputError(f"{path}: no data rows")
    covs, tgts = [], []
    for label in order:
        block = np.asarray(rows[label], dtype=np.float64)
        covs.append(block[:, :d])
        tgts.append(block[:, d])
    return from_arrays(covs, tgts, env_labels=order)


# ---------------------------------------------------------------------------
# JSON


def dataset_to_dict(dataset: MultiEnvDataset) -> dict:
    if dataset.intercept_added:
        raise InvalidInputError("export the raw dataset (without intercept column)")
    return {
        "schema_version": DATASET_SCHEMA_VERSION,
        "num_covariates": dataset.num_covariates,
        "environments": [
            {
                "label": label,
                "covariates": env.covariates.tolist(),
                "target": env.target.tolist(),
            }
            for label, env in zip(dataset.env_labels, dataset.environments)
        ],
    }


def write_json(dataset: MultiEnvDataset, path) -> None:
    with open(path, "w") as fh:
        json.dump(dataset_to_dict(dataset), fh)
        fh.write("\n")


def dataset_from_dict(doc: dict) -> MultiEnvDataset:
    try:
        envs, d = doc["environments"], doc["num_covariates"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed dataset document: {exc}") from None
    if not isinstance(envs, list):
        raise InvalidInputError(f"environments must be a list, got {envs!r}")
    if not isinstance(d, int):
        raise InvalidInputError(f"num_covariates must be an integer, got {d!r}")
    covs, tgts, labels = [], [], []
    for i, env in enumerate(envs):
        try:
            covs.append(np.asarray(env["covariates"], dtype=np.float64))
            tgts.append(np.asarray(env["target"], dtype=np.float64))
            labels.append(str(env.get("label", i + 1)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed environment {i}: {exc}") from None
    ds = from_arrays(covs, tgts, env_labels=labels)
    if ds.num_covariates != d:
        raise ShapeError(
            f"document declares {d} covariates but environments have {ds.num_covariates}"
        )
    return ds


def read_json_document(path):
    """The parsed JSON document in ``path``; a syntax error names file, line and column."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def read_json(path) -> MultiEnvDataset:
    return dataset_from_dict(read_json_document(path))
