"""Multi-environment dataset container and its CSV/JSON serialization.

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
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError

DATASET_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EnvironmentData:
    """One environment: covariate matrix (n x D) and target vector (n)."""

    covariates: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=np.float64)
        tgt = np.asarray(self.target, dtype=np.float64)
        if cov.ndim != 2 or tgt.ndim != 1:
            raise ShapeError("covariates must be a matrix and target a vector")
        if cov.shape[0] != tgt.shape[0]:
            raise ShapeError(
                f"covariates have {cov.shape[0]} rows but target has {tgt.shape[0]} entries"
            )
        if cov.shape[0] < 1:
            raise InvalidInputError("an environment must contain at least one observation")
        # A finite sum of squares bounds every Gram-matrix entry; the SVD does
        # not return on an overflowed one.
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(np.vdot(cov, cov) + np.dot(tgt, tgt)):
                raise InvalidInputError("environment data contains non-finite or overflowing entries")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "target", tgt)

    @property
    def num_samples(self) -> int:
        return self.covariates.shape[0]


@dataclass(frozen=True)
class MultiEnvDataset:
    """Ordered collection of environments sharing a covariate layout.

    ``num_covariates`` counts candidate causal parents only; when
    ``intercept_added`` the physical matrices carry one extra trailing
    column of ones that is never a candidate.  ``env_labels`` defaults to
    ``"1"`` .. ``"E"``.
    """

    environments: tuple[EnvironmentData, ...]
    num_covariates: int
    intercept_added: bool = False
    env_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        envs = tuple(self.environments)
        if len(envs) < 1:
            raise InvalidInputError("a dataset must contain at least one environment")
        width = self.num_covariates + (1 if self.intercept_added else 0)
        for i, env in enumerate(envs):
            if env.covariates.shape[1] != width:
                raise ShapeError(
                    f"environment {i} has {env.covariates.shape[1]} columns, expected {width}"
                )
        if self.env_labels is None:
            object.__setattr__(self, "env_labels", tuple(str(i + 1) for i in range(len(envs))))
        elif len(self.env_labels) != len(envs):
            raise ShapeError("env_labels length must match the number of environments")
        object.__setattr__(self, "environments", envs)

    @property
    def num_envs(self) -> int:
        return len(self.environments)

    @cached_property
    def sample_sizes(self) -> tuple[int, ...]:
        return tuple(env.num_samples for env in self.environments)

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """All environments stacked, zero-padded, environment axis last.

        Returns covariates of shape ``(n_max, width, E)`` and target of shape
        ``(n_max, E)``, where ``n_max`` is the largest sample size.  Rows past
        an environment's own ``n_e`` are zero, so they add nothing to its
        Gram matrix, ``X'y`` or residuals.
        """
        n_max = max(self.sample_sizes)
        width = self.environments[0].covariates.shape[1]
        xs = np.zeros((n_max, width, self.num_envs))
        ys = np.zeros((n_max, self.num_envs))
        for i, env in enumerate(self.environments):
            xs[: env.num_samples, :, i] = env.covariates
            ys[: env.num_samples, i] = env.target
        return xs, ys

    @cached_property
    def cross_products(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-environment Gram matrix and ``X'y`` of all columns.

        Returns ``X'X`` of shape ``(width, width, E)`` and ``X'y`` of shape
        ``(width, E)``, environment axis last like ``padded``.  A fit of any
        column set reads its blocks from here.
        """
        xs, ys = self.padded
        return np.einsum("nie,nje->ije", xs, xs), np.einsum("nie,ne->ie", xs, ys)

    def with_intercept(self) -> "MultiEnvDataset":
        """Append a constant-one column to every environment (idempotent)."""
        if self.intercept_added:
            return self
        envs = tuple(
            EnvironmentData(
                np.hstack([env.covariates, np.ones((env.num_samples, 1))]),
                env.target,
            )
            for env in self.environments
        )
        return replace(self, environments=envs, intercept_added=True)


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
    envs = tuple(EnvironmentData(x, y) for x, y in zip(covariates, targets))
    return MultiEnvDataset(
        environments=envs,
        num_covariates=envs[0].covariates.shape[1],
        env_labels=tuple(env_labels) if env_labels is not None else None,
    )


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
            for i in range(env.num_samples):
                row = [label] + [repr(float(v)) for v in env.covariates[i]] + [repr(float(env.target[i]))]
                writer.writerow(row)


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
