"""Command-line front end.

Subcommands: ``discover`` (user data), ``simulate`` (scenario sweeps),
``network`` (dynamical-system study), ``calibrate`` (self-checks).

Exit codes: 0 success, 1 self-check failure, 2 input error (a malformed
value or document, an unreadable input or unwritable output path), 3 capacity
error; ``main`` alone maps errors to them.  Standard output carries results
only; progress and diagnostics go to standard error so output can be piped.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

from . import dataset as ds
from .calibration import run_calibration
from .discovery import DEFAULT_MAX_DIM, discover
from .errors import CapacityError, InvalidInputError, ShapeError
from .experiments import (
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

SCHEMA_VERSION = 1  # of discover and calibrate; simulate and network: RESULTS_SCHEMA_VERSION


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


# Every option a subcommand may declare; each subcommand picks the ones its
# command reads.  ``--format`` means the input format for ``discover`` and the
# output format for ``simulate``, so each declares its own.
OPTIONS = {
    "--alpha": dict(type=float, default=0.1, help="test level (default 0.1)"),
    "--mc-samples": dict(
        type=int, default=100, metavar="B", help="Monte-Carlo samples per test (default 100)"
    ),
    "--seed": dict(type=_seed, default=0, help="base random seed (a non-negative integer)"),
    "--workers": dict(
        type=_positive, default=os.cpu_count() or 1,
        help="threads over the independent runs of network (results are identical for "
        "any value); no effect on discover",
    ),
    "--no-intercept": dict(
        action="store_true", help="do not append a constant-one column before regression"
    ),
    "--max-dim": dict(
        type=_positive, default=DEFAULT_MAX_DIM,
        help=f"refuse more candidate covariates than this (default {DEFAULT_MAX_DIM})",
    ),
    "--output": dict(default=None, help="write results here instead of stdout"),
}


def _add_options(parser: argparse.ArgumentParser, *flags: str, format_help: str = "") -> None:
    for flag in flags:
        parser.add_argument(flag, **OPTIONS[flag])
    if format_help:
        parser.add_argument("--format", choices=("csv", "json"), default=None, help=format_help)


def _emit(chunks: Iterable[str], output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


_REPORT = (
    '{}    {{\n      "subset": {},\n      "residual_norms_sq": [\n        {}\n      ],\n'
    '      "dofs": [\n        {}\n      ],\n      "statistic": {},\n      "p_value": {},\n'
    '      "rejected": {}\n    }}'
)
_ITEM = ",\n        "


def _discover_json(doc: dict, levels: Sequence[tuple]) -> Iterator[str]:
    """``_dump_json({**doc, "reports": [...]})`` of ``DiscoveryResult.levels``, a report a chunk, without
    ``json``'s ``indent`` encoder: numbers are ``repr`` of one ``tolist`` per array, infinity ``"inf"``."""
    head, tail = _dump_json({**doc, "reports": []}).rsplit("[]", 1)
    yield head + "["
    rows = (row for subsets, *arrays in levels for row in zip(subsets, *(a.tolist() for a in arrays)))
    for i, (subset, norms, dofs, statistic, p_value, rejected) in enumerate(rows):
        yield _REPORT.format(
            ",\n" if i else "\n",
            f"[\n        {_ITEM.join(map(repr, subset))}\n      ]" if subset else "[]",
            _ITEM.join(map(repr, norms)),
            _ITEM.join(map(repr, dofs)),
            '"inf"' if math.isinf(statistic) else repr(statistic),
            repr(p_value),
            "true" if rejected else "false",
        )
    yield ("\n  ]" if any(subsets for subsets, *_ in levels) else "]") + tail


def _load_dataset(path: str, fmt: str | None) -> ds.MultiEnvDataset:
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    return ds.read_json(path) if fmt == "json" else ds.read_csv(path)


def cmd_discover(args) -> int:
    data = _load_dataset(args.input, args.format)
    if not args.no_intercept:
        data = data.with_intercept()
    config = TestConfig(alpha=args.alpha, mc_samples=args.mc_samples, seed=args.seed)
    result = discover(data, config, max_dim=args.max_dim)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "alpha": config.alpha,
            "mc_samples": config.mc_samples,
            "seed": config.seed,
            "intercept": not args.no_intercept,
        },
        "env_labels": {label: i + 1 for i, label in enumerate(data.env_labels)},
        "estimated_parents": list(result.estimated_parents),
        "status": result.status,
        "subsets_tested": result.subsets_tested,
        "early_stopped": result.early_stopped,
    }
    _emit(_discover_json(doc, result.levels), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = Scenario.from_dict(ds.read_json_document(args.scenario))
    print(
        f"running {len(scenario.grid)} grid points x {scenario.runs} runs", file=sys.stderr
    )
    metrics = run_trials(scenario, args.seed)
    if args.format == "json":
        _emit([_dump_json(trials_to_dict(scenario, metrics, args.seed))], args.output)
    else:
        buf = io.StringIO()
        metrics_to_csv(metrics, buf)
        _emit([buf.getvalue()], args.output)
    return EXIT_OK


def cmd_network(args) -> int:
    result = network_detect(
        window=args.window,
        num_envs=args.num_envs,
        runs=args.runs,
        test_config=TestConfig(alpha=args.alpha, mc_samples=args.mc_samples),
        seed=args.seed,
        warmup=args.warmup,
        workers=args.workers,
    )
    _emit([_dump_json(result.to_dict())], args.output)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    report = run_calibration(
        alpha=args.alpha,
        mc_samples=args.mc_samples,
        replications=args.replications,
        seed=args.seed,
    )
    _emit([_dump_json({"schema_version": SCHEMA_VERSION, **report})], args.output)
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
    _add_options(
        p, "--alpha", "--mc-samples", "--seed", "--workers", "--no-intercept", "--max-dim",
        "--output",
        format_help="input format (default: json for a .json file, csv otherwise)",
    )
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("simulate", help="run a scenario sweep and report FNR/FPR")
    p.add_argument("scenario", help="scenario JSON file; it sets the test, intercept and max_dim")
    _add_options(p, "--seed", "--output", format_help="output format (default csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("network", help="dynamical-system network detection study")
    p.add_argument("--warmup", type=int, default=500, help="discarded initial steps (default 500)")
    p.add_argument("--window", type=int, default=20, help="environment window length (default 20)")
    p.add_argument("--num-envs", type=int, default=300, help="windows per run (default 300)")
    p.add_argument("--runs", type=int, default=50, help="independent trajectories (default 50)")
    _add_options(p, "--alpha", "--mc-samples", "--seed", "--workers", "--output")
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("calibrate", help="run statistical self-checks")
    p.add_argument(
        "--replications", type=int, default=500,
        help="null replications for the rejection-rate check (default 500)",
    )
    _add_options(p, "--alpha", "--mc-samples", "--seed", "--output")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place where an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, ShapeError) as exc:
        message, code = str(exc), EXIT_INPUT
    except OSError as exc:  # unreadable input or unwritable output
        reason = (exc.strerror or str(exc)).lower()
        message, code = (f"{exc.filename}: {reason}" if exc.filename else reason), EXIT_INPUT
    except CapacityError as exc:
        message, code = str(exc), EXIT_CAPACITY
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
