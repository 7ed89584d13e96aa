import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from localicp.cli import (
    EXIT_CAPACITY,
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_OK,
    _discover_json,
    build_parser,
    main,
)
from localicp import experiments, invariance
from localicp.datagen import IndependentGenConfig, gen_independent
from localicp.dataset import read_csv, write_csv, write_json
from localicp.discovery import discover
from localicp.errors import MAX_DOUBLES
from localicp.invariance import SubsetTestReport, TestConfig


def _source_env():
    """The environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_commands(argvs, prelude=""):
    """Exit code of each argv run through ``main`` in one fresh interpreter, and the
    scipy modules loaded after it; ``prelude`` runs before the package is imported."""
    script = (
        "import contextlib, io, json, sys\n"
        f"{prelude}"
        "from localicp.cli import main\n"
        "seen = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen.append([code, sorted(m for m, v in sys.modules.items() if v and m.split('.')[0] == 'scipy')])\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_source_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _all_commands(dataset_csv, tmp_path):
    """One small call of each command: discover, network, simulate and calibrate."""
    return [
        ["discover", dataset_csv, "--mc-samples", "5"],
        ["network", "--warmup", "200", "--window", "10", "--num-envs", "20", "--runs", "2",
         "--mc-samples", "20"],
        ["simulate", TestSimulate().scenario_file(tmp_path), "--format", "json"],
        ["calibrate", "--replications", "20", "--mc-samples", "20"],
    ]


@pytest.fixture
def dataset_csv(tmp_path):
    data, _ = gen_independent(
        IndependentGenConfig(num_envs=8, samples_per_env=25, dimension=3, parent_set=(1,)), 0
    )
    path = tmp_path / "data.csv"
    write_csv(data, path)
    return str(path)


@pytest.fixture
def dataset_json(tmp_path):
    data, _ = gen_independent(
        IndependentGenConfig(num_envs=8, samples_per_env=25, dimension=3, parent_set=(1,)), 0
    )
    path = tmp_path / "data.json"
    write_json(data, path)
    return str(path)


def _oracle_json(doc, reports):
    """The reference for ``discover``'s output: ``json.dumps(indent=2)`` of the whole document."""
    listed = [
        {
            "subset": list(r.subset),
            "residual_norms_sq": list(r.residual_norms_sq),
            "dofs": list(r.dofs),
            "statistic": "inf" if math.isinf(r.statistic) else r.statistic,
            "p_value": r.p_value,
            "rejected": r.rejected,
        }
        for r in reports
    ]
    return json.dumps({**doc, "reports": listed}, indent=2) + "\n"


def _discover_header(labels, subsets_tested, intercept=True):
    return {
        "schema_version": 1,
        "config": {"alpha": 0.1, "mc_samples": 100, "seed": 1, "intercept": intercept},
        "env_labels": {label: i + 1 for i, label in enumerate(labels)},
        "estimated_parents": [1],
        "status": "ok",
        "subsets_tested": subsets_tested,
        "early_stopped": False,
    }


# Floats whose repr takes each form: subnormal, the largest double, exponent
# notation either way, and integral.
EDGE_FLOATS = (5e-324, sys.float_info.max, 1e-07, 1e16, 1.0, 0.0)
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


def _discover_document(labels, levels, envs):
    """``_discover_json``'s arguments for ``levels`` of reports over ``envs`` environments, and
    the reports ``_oracle_json`` reads.  Each level holds its subsets and real float64, int64
    and bool arrays, as ``DiscoveryResult.levels`` does, so a number written without
    ``tolist`` shows in the output."""
    arrays = [
        (
            [r.subset for r in level],
            np.array([r.residual_norms_sq for r in level], dtype=np.float64).reshape(len(level), envs),
            np.array([r.dofs for r in level], dtype=np.int64).reshape(len(level), envs),
            np.array([r.statistic for r in level], dtype=np.float64),
            np.array([r.p_value for r in level], dtype=np.float64),
            np.array([r.rejected for r in level], dtype=bool),
        )
        for level in levels
    ]
    reports = [r for level in levels for r in level]
    return _discover_header(labels, len(reports)), arrays, reports


@st.composite
def discover_documents(draw):
    labels = draw(st.lists(st.text(max_size=6), min_size=2, max_size=4, unique=True))
    e = len(labels)
    report = st.builds(
        SubsetTestReport,
        subset=st.lists(st.integers(1, 30), unique=True, max_size=4).map(lambda s: tuple(sorted(s))),
        residual_norms_sq=st.lists(_floats, min_size=e, max_size=e).map(tuple),
        dofs=st.lists(st.integers(0, 10**6), min_size=e, max_size=e).map(tuple),
        statistic=_floats | st.just(math.inf),
        p_value=_floats,
        rejected=st.booleans(),
    )
    return _discover_document(labels, draw(st.lists(st.lists(report, max_size=3), max_size=3)), e)


_EDGE_REPORTS = tuple(
    SubsetTestReport(subset, (x, 2.5), (0, 41), statistic, 1 / 101, rejected)
    for subset, x, statistic, rejected in zip(
        [(), (1,), (2, 3), (1, 2, 3), (), (4,)],
        EDGE_FLOATS,
        [math.inf, *EDGE_FLOATS[1:]],
        [False, True] * 3,
    )
)


@settings(deadline=None)
@given(discover_documents())
@example(_discover_document(['say "hi"', "back\\slash", "caf\u00e9 \u2603"], [_EDGE_REPORTS[:4], _EDGE_REPORTS[4:]], 2))
@example(_discover_document(["a", "b"], [], 2))
def test_discover_json_matches_json_dumps(document):
    doc, levels, reports = document
    assert "".join(_discover_json(doc, levels)) == _oracle_json(doc, reports)


class TestDiscover:
    @pytest.mark.parametrize("intercept", [True, False])
    def test_output_equals_json_dumps_of_the_document(self, dataset_csv, intercept, capsys):
        argv = ["discover", dataset_csv, "--seed", "1"] + ([] if intercept else ["--no-intercept"])
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        data = read_csv(dataset_csv)
        result = discover(data.with_intercept() if intercept else data, TestConfig(seed=1))
        doc = _discover_header(data.env_labels, result.subsets_tested, intercept)
        doc.update(
            estimated_parents=list(result.estimated_parents),
            status=result.status,
            early_stopped=result.early_stopped,
        )
        expected = _oracle_json(doc, result.reports)
        assert json.loads(out) == json.loads(expected)
        assert out == expected

    def test_csv_input_writes_json_results(self, dataset_csv, capsys):
        code = main(["discover", dataset_csv, "--seed", "1", "--workers", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["estimated_parents"] == [1]
        assert doc["config"]["alpha"] == 0.1
        assert len(doc["reports"]) == 8

    def test_json_input_by_extension(self, dataset_json, capsys):
        assert main(["discover", dataset_json]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimated_parents"] == [1]

    def test_output_file(self, dataset_csv, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(["discover", dataset_csv, "--output", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["estimated_parents"] == [1]
        # The file holds exactly what the same call writes to standard output.
        assert main(["discover", dataset_csv]) == EXIT_OK
        assert target.read_bytes() == capsys.readouterr().out.encode()

    def test_missing_file(self, dataset_csv, tmp_path, capsys):
        assert main(["discover", "/nonexistent.csv"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "no such file" in err

        # Any path that cannot be read or written is reported the same way.
        unwritable = str(tmp_path / "missing" / "result.json")
        for argv, message in (
            (["discover", dataset_csv, "--output", unwritable], f"{unwritable}: no such file"),
            (["discover", str(tmp_path)], f"{tmp_path}: is a directory"),
        ):
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"error: {message}")

    def test_discover_process_never_loads_scipy(self, dataset_csv, tmp_path):
        # A fresh interpreter, since this test process has scipy loaded already.
        # None of the four commands, run one after another, loads it.
        seen = _fresh_commands(_all_commands(dataset_csv, tmp_path))
        assert [modules for _, modules in seen] == [[]] * 4
        assert [code for code, _ in seen][:3] == [EXIT_OK] * 3
        assert seen[3][0] in (EXIT_OK, EXIT_CHECK_FAILED)

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for content, message in (
            (b"env,x1,y\n1,abc,2\n", "line 2"),
            (b"env,x1,y\n1,\xff\xfe,2\n", "not UTF-8 text"),
        ):
            path.write_bytes(content)
            assert main(["discover", str(path)]) == EXIT_INPUT
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {path}: ") and message in line

    def test_overflowing_csv(self, tmp_path, capsys):
        # Every entry is finite, but 1e200 squared overflows the Gram matrix.
        path = tmp_path / "huge.csv"
        path.write_text("env,x1,y\n1,1e200,1.0\n1,2.0,1.0\n2,1.0,1.0\n2,2.0,3.0\n")
        assert main(["discover", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "error: environment data contains non-finite or overflowing entries"

    def test_single_environment_refused_with_explanation(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("env,x1,y\n1,1.0,2.0\n1,2.0,3.0\n1,3.0,4.0\n")
        assert main(["discover", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "single environment" in err
        assert "at least two" in err

    def test_capacity_guard(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data, _ = gen_independent(
            IndependentGenConfig(num_envs=3, samples_per_env=10, dimension=4, parent_set=(1,)), 0
        )
        path = tmp_path / "wide.csv"
        write_csv(data, path)
        assert main(["discover", str(path), "--max-dim", "3"]) == EXIT_CAPACITY

    def test_null_above_capacity_refused_before_anything_is_drawn(self, dataset_csv, monkeypatch, capsys):
        # 10^12 draws in each of the environments would ask numpy for hundreds
        # of TiB; the search refuses them before it fits or draws anything.
        monkeypatch.setattr(invariance, "fit_subsets", None)
        monkeypatch.setattr(invariance, "sample_null_ratio", None)
        assert main(["discover", dataset_csv, "--mc-samples", str(10**12)]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: mc_samples=1000000000000 x ")
        assert line.endswith(f"above the limit of {MAX_DOUBLES} (1 GiB)")

    def test_deterministic_output_across_worker_counts(self, dataset_csv, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["discover", dataset_csv, "--seed", "3", "--workers", "1", "--output", str(a)]) == EXIT_OK
        assert main(["discover", dataset_csv, "--seed", "3", "--workers", "4", "--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_refused(self, dataset_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discover", dataset_csv, "--seed", "-1"])
        assert exc.value.code == EXIT_INPUT
        assert "--seed: must be a non-negative integer" in capsys.readouterr().err

    def test_no_intercept_flag_changes_config_echo(self, dataset_csv, capsys):
        assert main(["discover", dataset_csv, "--no-intercept"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["intercept"] is False

    def test_env_labels_reported(self, tmp_path, capsys):
        path = tmp_path / "named.csv"
        rows = ["env,x1,y"]
        rng = np.random.default_rng(5)
        for label in ("alpha", "beta"):
            for _ in range(6):
                x = rng.normal()
                rows.append(f"{label},{x},{2 * x + rng.normal()}")
        path.write_text("\n".join(rows) + "\n")
        assert main(["discover", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["env_labels"] == {"alpha": 1, "beta": 2}

    def test_repeated_env_label_refused(self, dataset_json, tmp_path, capsys):
        # Labels a, a, b would collapse env_labels to {"a": 2, "b": 3}.
        doc = json.loads(Path(dataset_json).read_text())
        for env, label in zip(doc["environments"], ("a", "a", "b", "c", "d", "e", "f", "g")):
            env["label"] = label
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        assert main(["discover", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: environment label 'a' is repeated"]


class TestSimulate:
    def scenario_file(self, tmp_path):
        doc = {
            "generator": {
                "kind": "independent",
                "num_envs": 5,
                "samples_per_env": 15,
                "dimension": 3,
                "parent_set": [1],
            },
            "test": {"alpha": 0.1, "mc_samples": 50},
            "sweep": {"parameter": "samples_per_env", "grid": [10, 20]},
            "runs": 3,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_repeated_parent_refused(self, tmp_path, capsys):
        # Two coefficients would be drawn for one column and the last kept.
        doc = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        doc["generator"]["parent_set"] = [2, 2]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: parent_set (2, 2) holds repeated indices"]

    def test_csv_default_output(self, tmp_path, capsys):
        assert main(["simulate", self.scenario_file(tmp_path), "--seed", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("sweep,fnr")
        assert len(lines) == 3
        assert "grid points" in captured.err  # progress goes to stderr only

    def test_json_format(self, tmp_path, capsys):
        assert main(
            ["simulate", self.scenario_file(tmp_path), "--seed", "2", "--format", "json"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 2
        assert len(doc["points"]) == 2
        assert "failures" not in doc["points"][0]

    def test_malformed_scenario_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["simulate", str(path)]) == EXIT_INPUT
        assert "line 1" in capsys.readouterr().err

    def test_missing_scenario_keys(self, tmp_path, capsys):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"generator": {"kind": "sem"}}))
        assert main(["simulate", str(path)]) == EXIT_INPUT

        # A fresh interpreter, so an escaping exception would show up as a
        # traceback on stderr rather than as a test error.
        no_parameter = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        del no_parameter["sweep"]["parameter"]
        bad_grid = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        bad_grid["sweep"]["grid"] = ["ten"]
        string_grid = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        string_grid["sweep"]["grid"] = "ten"
        for doc, named in (
            (no_parameter, "parameter"),
            (bad_grid, "sweep.grid value 'ten'"),
            (string_grid, "sweep.grid must be a list"),
        ):
            path.write_text(json.dumps(doc))
            proc = subprocess.run(
                [sys.executable, "-m", "localicp.cli", "simulate", str(path)],
                capture_output=True, text=True, env=_source_env(),
            )
            assert proc.returncode == EXIT_INPUT
            assert "Traceback" not in proc.stderr
            assert named in proc.stderr

    @pytest.mark.parametrize("in_grid", [False, True], ids=["generator", "grid"])
    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("independent", "sigma_range", [1, 5, 7]),
            ("independent", "mean_range", [0]),
            ("independent", "sigma_range", {"a": 1, "b": 2}),
            ("independent", "beta_range", {"a": 1, "b": 2}),
            ("independent", "sigma_range", [math.nan, 5]),
            ("independent", "beta_range", [1, math.inf]),
            ("independent", "mean_range", [-math.inf, 1]),
            ("independent", "mean_range", [-1e308, 1e308]),
            ("sem", "heterogeneity", math.nan),
        ],
    )
    def test_malformed_range_or_scale_refused(self, tmp_path, capsys, kind, field, value, in_grid):
        # A range must be two finite numbers low <= high a finite span apart,
        # a scale a finite number; each is refused with one line naming it,
        # in the generator block or as a sweep.grid entry.
        gen = {"kind": kind, "num_envs": 3, "samples_per_env": 8}
        sweep = {"parameter": field, "grid": [value]} if in_grid else {"parameter": "samples_per_env", "grid": [8]}
        if not in_grid:
            gen[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"generator": gen, "test": {"mc_samples": 20}, "sweep": sweep, "runs": 1}))
        assert main(["simulate", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and f"{field} must be" in line

    def test_test_seed_refused(self, tmp_path, capsys):
        # Each run's test seed derives from --seed, so a seed in the test
        # block would not be read.
        doc = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        doc["test"]["seed"] = 5
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--seed", "3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: test.seed is not read: each run's test seed derives from --seed"
        ]

    def test_unknown_scenario_key_refused(self, tmp_path, capsys):
        # A misspelt key would otherwise be ignored and its default used.
        top = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        top.update(intercep=False, max_dims=2)
        sweep = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        sweep["sweep"]["grids"] = [10]
        path = tmp_path / "misspelt.json"
        for doc, key in ((top, "intercep"), (sweep, "sweep.grids")):
            path.write_text(json.dumps(doc))
            assert main(["simulate", str(path), "--seed", "3"]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: unknown scenario key '{key}'"]

    def test_capacity_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        doc = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        doc["generator"]["dimension"] = 5
        doc["max_dim"] = 3
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "5 candidate covariates means 32 subsets" in err
        assert "runs failed" not in err
        # A count too large to allocate is refused before any data is drawn,
        # whether the generator block or the sweep grid (over samples_per_env) holds it.
        big_count = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        big_count["generator"]["samples_per_env"] = 999999999
        big_grid = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        big_grid["sweep"]["grid"] = [10, 999999999]
        for doc in (big_count, big_grid):
            path.write_text(json.dumps(doc))
            assert main(["simulate", str(path)]) == EXIT_CAPACITY
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.strip().splitlines()) == 1
            assert captured.err.startswith("error: num_envs=5 x samples_per_env=999999999")


class TestNetwork:
    def test_small_study(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(
            [
                "network",
                "--warmup", "200",
                "--window", "10",
                "--num-envs", "20",
                "--runs", "2",
                "--mc-samples", "50",
                "--seed", "0",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["counts"]) == 6
        assert doc["runs"] == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_refused(self, workers, capsys):
        # --max-dim shares the positive-integer type; below 1 it is a
        # malformed value, not a capacity error.
        for argv in (
            ["network", "--runs", "1", "--workers", workers],
            ["discover", "data.csv", "--max-dim", workers],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_INPUT
            assert f"{argv[-2]}: must be a positive integer" in capsys.readouterr().err

    def test_zero_window_refused(self, capsys):
        assert main(["network", "--window", "0", "--runs", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: window must be a positive integer, got 0"]

    def test_null_above_capacity_refused_before_simulating(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "gen_lorenz", None)
        monkeypatch.setattr(invariance, "sample_null_ratio", None)
        argv = ["network", "--runs", "1", "--num-envs", "30", "--mc-samples", str(10**12)]
        assert main(argv) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: mc_samples=1000000000000 x 30 environments is {30 * 10**12} doubles "
            f"per null draw, above the limit of {MAX_DOUBLES} (1 GiB)"
        ]

    def test_capacity_limit(self, capsys):
        # The trajectory is as long as its windows read, so the window counts
        # meet the ceiling before anything is simulated.
        assert main(["network", "--num-envs", "999999999", "--runs", "1"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(
            "error: warmup + num_envs x window = 500 + 999999999 x 20: "
        )


class TestCalibrate:
    def test_small_calibration_reports_checks(self, capsys):
        code = main(["calibrate", "--replications", "60", "--mc-samples", "50", "--seed", "4"])
        doc = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in doc["checks"]}
        assert names == {"null_rejection_rate", "residual_chi2_law"}
        assert code in (0, 1)
        assert doc["passed"] == (code == 0)

    def test_zero_replications_refused(self, capsys):
        assert main(["calibrate", "--replications", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: replications must be a positive integer, got 0"
        ]

    def test_null_above_capacity_refused_before_anything_is_drawn(self, monkeypatch, capsys):
        # 2^23 draws in each of the 30 environments of a replication are 2 GB.
        monkeypatch.setattr(invariance, "sample_null_ratio", None)
        assert main(["calibrate", "--mc-samples", str(2**23), "--replications", "1"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: mc_samples={2**23} x 30 environments is {30 * 2**23} doubles "
            f"per null draw, above the limit of {MAX_DOUBLES} (1 GiB)"
        ]

    @pytest.mark.parametrize("alpha", ["2", "-1"])
    def test_alpha_outside_unit_interval_refused(self, alpha, capsys):
        assert main(["calibrate", "--alpha", alpha, "--replications", "5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: alpha must lie in [0, 1)"]


def test_every_command_runs_with_scipy_blocked(dataset_csv, tmp_path):
    # With None in sys.modules, any import of scipy raises ImportError.
    seen = _fresh_commands(_all_commands(dataset_csv, tmp_path), prelude="sys.modules['scipy'] = None\n")
    assert [code for code, _ in seen][:3] == [EXIT_OK] * 3
    assert seen[3][0] in (EXIT_OK, EXIT_CHECK_FAILED)


# Each subcommand declares only the options it reads; the scenario file sets
# simulate's test, intercept and max_dim, and a sweep runs serially, so simulate
# has no ``--workers``.  No command has ``--rank-tol``, and
# ``network`` simulates exactly the steps its windows read, so it has no ``--horizon``.
@pytest.mark.parametrize(
    "argv",
    [
        ["discover", "d.csv", "--rank-tol", "1e-9"],
        ["simulate", "s.json", "--alpha", "0.05"],
        ["simulate", "s.json", "--mc-samples", "10"],
        ["simulate", "s.json", "--no-intercept"],
        ["simulate", "s.json", "--rank-tol", "1e-9"],
        ["simulate", "s.json", "--max-dim", "3"],
        ["simulate", "s.json", "--workers", "2"],
        ["network", "--no-intercept"],
        ["network", "--max-dim", "3"],
        ["network", "--format", "csv"],
        ["network", "--rank-tol", "1e-9"],
        ["network", "--horizon", "8500"],
        ["calibrate", "--workers", "2"],
        ["calibrate", "--no-intercept"],
        ["calibrate", "--rank-tol", "1e-9"],
        ["calibrate", "--max-dim", "3"],
        ["calibrate", "--format", "json"],
    ],
    ids=" ".join,
)
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_each_command_declares_the_options_it_reads():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {
        name: {a.option_strings[0]: a.help for a in p._actions if a.option_strings and a.dest != "help"}
        for name, p in commands.items()
    }
    test = {"--alpha", "--mc-samples", "--seed", "--workers", "--output"}
    assert set(options["discover"]) == test | {"--no-intercept", "--max-dim", "--format"}
    assert set(options["simulate"]) == {"--seed", "--output", "--format"}
    assert set(options["network"]) == test | {"--warmup", "--window", "--num-envs", "--runs"}
    assert set(options["calibrate"]) == test - {"--workers"} | {"--replications"}
    assert options["discover"]["--format"].startswith("input format")
    assert options["simulate"]["--format"].startswith("output format")


# ---------------------------------------------------------------------------
# Malformed documents: main maps every error to an exit code


def _dataset_doc():
    rng = np.random.default_rng(0)
    return {
        "schema_version": 1,
        "num_covariates": 2,
        "environments": [
            {
                "label": label,
                "covariates": rng.normal(size=(4, 2)).round(3).tolist(),
                "target": rng.normal(size=4).round(3).tolist(),
            }
            for label in ("a", "b", "c")
        ],
    }


def _dataset_csv():
    lines = ["env,x1,x2,y"]
    for env in _dataset_doc()["environments"]:
        for x, y in zip(env["covariates"], env["target"]):
            lines.append(",".join([env["label"], *map(str, x), str(y)]))
    return lines


def _scenario_doc():
    return {
        "generator": {
            "kind": "independent", "num_envs": 3, "samples_per_env": 8,
            "dimension": 2, "parent_set": [1], "sigma_range": [1.0, 5.0],
            "beta_range": [1.0, 5.0], "mean_range": [-1.0, 1.0], "target_noise_std": 2.0,
        },
        "test": {"alpha": 0.1, "mc_samples": 20},
        "sweep": {"parameter": "samples_per_env", "grid": [8]},
        "runs": 1,
    }


# Numbers stay small, so a document that happens to stay valid still runs in
# milliseconds.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=6)
    | st.floats(-1e3, 1e3) | st.sampled_from([1e300, float("inf"), float("-inf"), float("nan")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _not_a_large_number(line: bytes) -> bool:
    """False for a line that reads as a number above 20: a valid but expensive
    count (runs, samples), not a malformed one."""
    try:
        return abs(float(line.strip().rstrip(b","))) <= 20
    except ValueError:
        return True


# A replacement line: any text, or bytes that need not be UTF-8.
LINES = (st.text().map(str.encode) | st.binary()).filter(_not_a_large_number)


def _replace_line(data, lines: list[bytes]) -> bytes:
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[i] = data.draw(LINES, label="text")
    return b"\n".join(lines) + b"\n"


def _replace_field(data, doc) -> None:
    """Replace one value of ``doc``, at the end of a random walk from its root."""
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans(), label="stop"):
            node[key] = data.draw(JSON_VALUES, label="value")
            return
        node = child


def _run_main(argv, capsys):
    code = main(argv)  # an exception escaping here fails the test
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPACITY)
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == (code != EXIT_OK)


DOCUMENTS = {
    "dataset.json": (_dataset_doc, ["discover", "--mc-samples", "20"]),
    "scenario.json": (_scenario_doc, ["simulate"]),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), edit=st.none())
# Generator ranges that once escaped as tracebacks: three numbers, and a NaN bound.
@example(data=None, edit=("scenario.json", "sigma_range", [1, 5, 7]))
@example(data=None, edit=("scenario.json", "mean_range", [math.nan, 1.0]))
def test_malformed_json_document_exits_with_a_code(name, data, edit, tmp_path, capsys):
    if edit is not None and edit[0] != name:
        return  # an explicit example edits one document
    make, (command, *options) = DOCUMENTS[name]
    doc = make()
    if edit is not None:
        doc["generator"][edit[1]] = edit[2]
        content = json.dumps(doc).encode()
    elif data.draw(st.booleans(), label="replace a field"):
        _replace_field(data, doc)
        content = json.dumps(doc).encode()
    else:
        content = _replace_line(data, json.dumps(doc, indent=1).encode().splitlines())
    path = tmp_path / name
    path.write_bytes(content)
    _run_main([command, str(path), *options], capsys)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_csv_exits_with_a_code(data, tmp_path, capsys):
    lines = [line.encode() for line in _dataset_csv()]
    if data.draw(st.booleans(), label="replace a field"):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        fields = lines[i].split(b",")
        fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = data.draw(LINES, label="text")
        lines[i] = b",".join(fields)
        content = b"\n".join(lines) + b"\n"
    else:
        content = _replace_line(data, lines)
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    _run_main(["discover", str(path), "--mc-samples", "20"], capsys)


def test_console_entry_point_installed():
    """pyproject.toml declares the ``localicp`` script as ``localicp.cli:main``.

    The declared value is resolved the way the installed script wrapper does it,
    so the test holds when the suite runs from source without an install; where
    a ``localicp`` distribution is installed, its script entry must match too.
    """
    import importlib.metadata as md

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("localicp") == "localicp.cli:main"

    target = md.EntryPoint(
        name="localicp", value=scripts["localicp"], group="console_scripts"
    ).load()
    assert target is main
    assert callable(target)

    try:
        dist = md.distribution("localicp")
    except md.PackageNotFoundError:
        return
    installed = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
    assert installed.get("localicp") == scripts["localicp"]
