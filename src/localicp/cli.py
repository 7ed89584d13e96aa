"""Command-line front end.

Subcommands: ``discover`` (user data), ``simulate`` (scenario sweeps),
``network`` (dynamical-system study), ``calibrate`` (self-checks).

Exit codes: 0 success, 1 self-check failure, 2 input error, 3 capacity
error.  Standard output carries results only; progress and diagnostics go to
standard error so output can be piped.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import dataset as ds
from .calibration import run_calibration
from .datagen import LorenzGenConfig
from .discovery import DEFAULT_MAX_DIM, discover
from .errors import CapacityError, InvalidInputError, ShapeError
from .experiments import (
    RESULTS_SCHEMA_VERSION,
    Scenario,
    metrics_to_csv,
    network_detect,
    run_trials,
    trials_to_dict,
)
from .invariance import TestConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _add_test_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.1, help="test level (default 0.1)")
    parser.add_argument(
        "--mc-samples", type=int, default=100, metavar="B",
        help="Monte-Carlo samples per test (default 100)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1,
        help="threads over the independent runs of simulate and network; discover "
        "and calibrate run serially (results are identical for any value)",
    )
    parser.add_argument(
        "--no-intercept", action="store_true",
        help="do not append a constant-one column before regression",
    )
    parser.add_argument(
        "--rank-tol", type=float, default=None,
        help="relative singular-value cutoff for rank/pseudo-inverse",
    )
    parser.add_argument(
        "--max-dim", type=int, default=DEFAULT_MAX_DIM,
        help=f"refuse more candidate covariates than this (default {DEFAULT_MAX_DIM})",
    )
    parser.add_argument("--output", default=None, help="write results here instead of stdout")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format where both are supported",
    )


def _test_config(args) -> TestConfig:
    return TestConfig(
        alpha=args.alpha, mc_samples=args.mc_samples, seed=args.seed, rank_tol=args.rank_tol
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _load_dataset(path: str, fmt: str | None) -> ds.MultiEnvDataset:
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    return ds.read_json(path) if fmt == "json" else ds.read_csv(path)


def cmd_discover(args) -> int:
    try:
        data = _load_dataset(args.input, args.format)
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidInputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if data.num_envs < 2:
        print(
            "error: the dataset contains a single environment; invariance across "
            "environments is the source of causal information, so at least two "
            "are required",
            file=sys.stderr,
        )
        return EXIT_INPUT
    labels = data.env_labels or tuple(str(i + 1) for i in range(data.num_envs))
    if not args.no_intercept:
        data = data.with_intercept()
    config = _test_config(args)
    try:
        result = discover(data, config, max_dim=args.max_dim)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvalidInputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "config": {
            "alpha": config.alpha,
            "mc_samples": config.mc_samples,
            "seed": config.seed,
            "intercept": not args.no_intercept,
        },
        "env_labels": {label: i + 1 for i, label in enumerate(labels)},
    }
    doc.update(result.to_dict())
    _emit(_dump_json(doc), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.scenario) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        print(f"error: no such file: {args.scenario}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.scenario}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    try:
        scenario = Scenario.from_dict(doc)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(
        f"running {len(scenario.grid)} grid points x {scenario.runs} runs", file=sys.stderr
    )
    metrics = run_trials(scenario, args.seed, workers=args.workers)
    if (args.format or "csv") == "json":
        _emit(_dump_json(trials_to_dict(scenario, metrics, args.seed)), args.output)
    else:
        buf = io.StringIO()
        metrics_to_csv(metrics, buf)
        _emit(buf.getvalue(), args.output)
    return EXIT_OK


def cmd_network(args) -> int:
    try:
        lorenz = LorenzGenConfig(horizon=args.horizon)
        config = _test_config(args)
        result = network_detect(
            lorenz,
            window=args.window,
            num_envs=args.num_envs,
            runs=args.runs,
            test_config=config,
            seed=args.seed,
            warmup=args.warmup,
            workers=args.workers,
        )
    except (InvalidInputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(_dump_json(result.to_dict()), args.output)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    report = run_calibration(
        alpha=args.alpha,
        mc_samples=args.mc_samples,
        replications=args.replications,
        seed=args.seed,
    )
    doc = {"schema_version": RESULTS_SCHEMA_VERSION}
    doc.update(report)
    _emit(_dump_json(doc), args.output)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"calibration failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localicp",
        description="Causal parent discovery from multi-environment data "
        "under locally linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="estimate causal parents from a dataset file")
    p.add_argument("input", help="dataset file (CSV: env,x1..xD,y; or JSON)")
    _add_test_options(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("simulate", help="run a scenario sweep and report FNR/FPR")
    p.add_argument("scenario", help="scenario JSON file")
    _add_test_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("network", help="dynamical-system network detection study")
    p.add_argument("--horizon", type=int, default=8500, help="trajectory length (default 8500)")
    p.add_argument("--warmup", type=int, default=500, help="discarded initial steps (default 500)")
    p.add_argument("--window", type=int, default=20, help="environment window length (default 20)")
    p.add_argument("--num-envs", type=int, default=300, help="windows per run (default 300)")
    p.add_argument("--runs", type=int, default=50, help="independent trajectories (default 50)")
    _add_test_options(p)
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("calibrate", help="run statistical self-checks")
    p.add_argument(
        "--replications", type=int, default=500,
        help="null replications for the rejection-rate check (default 500)",
    )
    _add_test_options(p)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
