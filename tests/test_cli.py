import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from localicp.cli import EXIT_CAPACITY, EXIT_INPUT, EXIT_OK, main
from localicp.datagen import IndependentGenConfig, gen_independent
from localicp.dataset import write_csv, write_json


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


class TestDiscover:
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

    def test_missing_file(self, capsys):
        assert main(["discover", "/nonexistent.csv"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "no such file" in err

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("env,x1,y\n1,abc,2\n")
        assert main(["discover", str(path)]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

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

    def test_deterministic_output_across_worker_counts(self, dataset_csv, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["discover", dataset_csv, "--seed", "3", "--workers", "1", "--output", str(a)]) == EXIT_OK
        assert main(["discover", dataset_csv, "--seed", "3", "--workers", "4", "--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

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
        assert doc["schema_version"] == 1
        assert len(doc["points"]) == 2

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        path_entries = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
        no_parameter = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        del no_parameter["sweep"]["parameter"]
        bad_grid = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        bad_grid["sweep"]["grid"] = ["ten"]
        for doc, named in ((no_parameter, "parameter"), (bad_grid, "sweep.grid value 'ten'")):
            path.write_text(json.dumps(doc))
            proc = subprocess.run(
                [sys.executable, "-m", "localicp.cli", "simulate", str(path)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == EXIT_INPUT
            assert "Traceback" not in proc.stderr
            assert named in proc.stderr

    def test_capacity_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        doc = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        doc["generator"]["dimension"] = 5
        doc["max_dim"] = 3
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--workers", "2"]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "5 candidate covariates means 32 subsets" in err
        assert "runs failed" not in err


class TestNetwork:
    def test_small_study(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(
            [
                "network",
                "--horizon", "450",
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

    def test_too_short_horizon(self, capsys):
        code = main(
            ["network", "--horizon", "50", "--warmup", "40", "--window", "10",
             "--num-envs", "20", "--runs", "1"]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "series has 51 steps but warmup=40" in err
        assert "runs failed" not in err


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
            "error: replications must be at least 1, got 0"
        ]


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
