"""The tables, resolution, cone, window, acceptance and CLI suites under
python -O, where assert statements are stripped: every invariant the package
checks must still hold (the table constructor's refusals and the doubling and
cone functional enumerators among them), the guards that raise AssertionError
(the decomposition pivot, the local coefficients, the window cross check, the
step 3 certificate) must still raise, and unusable CLI input must still exit 2
with one error: line.
Pytest rewrites the asserts of test modules into explicit checks, so the
tests themselves keep checking."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(bool(sys.flags.optimize), reason="already running under -O")
def test_suites_pass_under_python_O():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_tables.py", "tests/test_resolve.py", "tests/test_acceptance.py", "tests/test_cone.py",
         "tests/test_window.py", "tests/test_cli.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
