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


# the package has no eval_functional, table_arith or kernel_basis; the harness
# still lists their eight wrap sites, and nothing else may go missing
STALE_SITES = {
    "betticone.eval_functional", "betticone.cone.eval_functional", "betticone.resolve.eval_functional",
    "betticone.cli.eval_functional", "betticone.table_arith", "betticone.cone.table_arith",
    "betticone.resolve.kernel_basis", "betticone.linalg.kernel_basis",
}


def test_trace_reaches_the_resolve_layer():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "module_pipeline", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    head = "absent wrap targets: "
    absent = {site for line in lines if line.startswith(head) for site in line[len(head):].split(", ")}
    assert absent <= STALE_SITES
    metrics = json.loads(lines[-1])["metrics"]
    for metric in ("resolve.min_free_resolution.s", "resolve.hilbert_data.s", "resolve.betti_total"):
        assert metrics[metric]["value"] > 0, metric
