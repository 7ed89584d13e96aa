"""The benchmark harness runs against the current source.

``perfbench/tracer.py`` wraps package attributes by name and
``perfbench/run.py`` parses ``workers`` from each workload's argument list,
so a renamed or removed name that the harness reads fails here, in the
suite, not first in a benchmark run.  One traced operation per workload is
enough: tracing installs every wrapper and checks the output against the
untraced operation's.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_harness_runs_both_workloads_correctly():
    command = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    workloads = [line.split()[1] for line in lines if line.startswith("workload ")]
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert workloads == ["discover_cli", "network_cli"]
    assert [result["correct"] for result in results] == [True, True], proc.stdout
