"""Outside-in tracer for the localicp benchmark.

The tracer never edits the package.  While it is installed it swaps module
attributes for timing wrappers, and ``restore`` puts the original objects
back.  Each wrapped call records one span: name, start, end, the span that
caused it, and a small per-call count taken from the arguments or the result.
Spans stay in memory until ``per_layer`` reduces them to the per-operation
layer metrics.

Span stacks are kept per thread.  A span opened on a thread whose stack is
empty (a pool worker) takes as parent the innermost open span of the thread
that installed the tracer, which is the thread waiting on the pool.  A span's
self time is its duration minus the part of its interval that the union of
its children covers, so two children running side by side on two workers are
not subtracted twice.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict

from localicp import cli, dataset, discovery, experiments, invariance, linalg

# Span record layout (a list, so the wrapper can fill it in place).
NAME, START, END, PARENT, INFO = range(5)


def _mc_info(args, kwargs, result):
    """Chi-squared variates drawn: B x E for a finite statistic, None if skipped."""
    statistic, dofs, b = args[:3]
    return None if math.isinf(statistic) else b * len(dofs)


def _discover_info(args, kwargs, result):
    return result.subsets_tested, 2 ** args[0].num_covariates


def _network_info(args, kwargs, result):
    return kwargs["runs"], result.failures


def _get(owner, key):
    """The object in a module or class attribute, or in a keyword-default dict."""
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# (owner, attribute, span name, per-call count).  The same function reached
# through several names gets one span name, so a layer is counted however it
# is called.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "discover", "discovery", _discover_info),
    (experiments, "discover", "discovery", _discover_info),
    (discovery.discover.__kwdefaults__, "test", "invariance.phi_S", None),
    (invariance, "phi_S", "invariance.phi_S", None),
    (invariance, "_fit_environments", "invariance.fit", None),
    (invariance, "mc_pvalue", "invariance.mc", _mc_info),
    (invariance, "subset_rng", "invariance.rng", None),
    (linalg, "least_squares", "linalg", None),
    (linalg, "residuals", "linalg", None),
    (linalg, "numerical_rank", "linalg", None),
    (dataset, "read_csv", "dataset.read_csv", None),
    (dataset.MultiEnvDataset, "with_intercept", "dataset.with_intercept", None),
    (experiments, "gen_lorenz", "datagen.gen_lorenz", None),
    (experiments, "split_environments", "datagen.split", None),
    (cli, "network_detect", "experiments", _network_info),
)


class Tracer:
    """Install with ``install()``, run one operation, then ``restore()``."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._root_stack: list[list] = []
        self._originals: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info):
        clock = time.perf_counter
        record = self.spans.append  # list.append is atomic in CPython

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._root_stack
            span = [name, 0.0, 0.0, outer[-1] if outer else None, None]
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                record(span)
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._root_stack = self._stack()
        self._originals = [_get(owner, key) for owner, key, _, _ in TARGETS]
        for (owner, key, name, info), original in zip(TARGETS, self._originals):
            _set(owner, key, self._wrap(original, name, info))

    def restore(self) -> bool:
        """Put every original back; True when each slot holds it again."""
        slots = [(owner, key) for owner, key, _, _ in TARGETS]
        for (owner, key), original in zip(slots, self._originals):
            _set(owner, key, original)
        return all(
            _get(owner, key) is original for (owner, key), original in zip(slots, self._originals)
        )

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``install``."""
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append(span)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        batched_fits = 0
        for span in self.spans:
            kids = children.get(id(span), ())
            self_s[span[NAME]] += span[END] - span[START] - _covered(span, kids)
            calls[span[NAME]] += 1
            if span[NAME] == "invariance.fit" and not any(k[NAME] == "linalg" for k in kids):
                batched_fits += 1
        by_name = defaultdict(list)
        for span in self.spans:
            if span[INFO] is not None:
                by_name[span[NAME]].append(span[INFO])
        tested = sum(t for t, _ in by_name["discovery"])
        possible = sum(p for _, p in by_name["discovery"])
        runs = sum(r for r, _ in by_name["experiments"])
        fits = calls["invariance.fit"]
        return {
            "linalg_s": self_s["linalg"],
            "linalg.calls": calls["linalg"],
            "invariance.fit_s": self_s["invariance.fit"],
            "invariance.fit.calls": fits,
            "invariance.fit.batched_frac": batched_fits / fits if fits else 0.0,
            "invariance.mc_s": self_s["invariance.mc"],
            "invariance.mc.draws": sum(by_name["invariance.mc"]),
            "invariance.mc.skipped": calls["invariance.mc"] - len(by_name["invariance.mc"]),
            "invariance.phi_S.self_s": self_s["invariance.phi_S"],
            "invariance.rng_s": self_s["invariance.rng"],
            "discovery.self_s": self_s["discovery"],
            "discovery.subsets_tested": tested,
            "discovery.tested_frac": tested / possible if possible else 0.0,
            "dataset.with_intercept_s": self_s["dataset.with_intercept"],
            "datagen.gen_lorenz_s": self_s["datagen.gen_lorenz"],
            "datagen.split_s": self_s["datagen.split"],
            "dataset.read_csv_s": self_s["dataset.read_csv"],
            "cli.self_s": self_s["cli.main"],
            "experiments.self_s": self_s["experiments"],
            "experiments.attempts_per_run": calls["datagen.gen_lorenz"] / runs if runs else 0.0,
            "experiments.failed_runs": sum(f for _, f in by_name["experiments"]),
        }


def _covered(span, kids) -> float:
    """Length of the part of ``span``'s interval covered by any child span."""
    start, end = span[START], span[END]
    total = 0.0
    reach = start
    for kid in sorted(kids, key=lambda k: k[START]):
        lo, hi = max(kid[START], reach), min(kid[END], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
