"""The benchmark harness still runs against the package on its smallest setting."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["resolve_deep", "module_pipeline", "cone_batch", "window_rays"])
def test_bench_harness_runs(workload):
    # zero seconds still runs one round of every part and checks it against the
    # oracle; the digests read the records (str of the cone terms, report.rays)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
