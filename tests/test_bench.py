"""Smoke runs of the benchmark harness at demo, city and metro size."""

import json
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("workload", ["demo", "city", "metro"])
def test_smoke_run_is_correct(workload):
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                           "--smoke"], cwd=root, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
