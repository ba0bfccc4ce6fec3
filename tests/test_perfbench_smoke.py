"""Each benchmark workload runs briefly and reports a correct result.

``perfbench/run.py`` checks its own MAC counts, scan-order agreement and
trace coverage, and its last output line is a JSON result whose
``correct`` is false when any check or operation failed. Running every
workload declared in ``BENCHMARK.json`` untraced and traced catches a
package change that breaks the benchmark's use of the package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
