"""The package under python -O.  -O strips assert statements and the code
under `if __debug__`, and changes nothing else a program can see except
sys.flags.optimize.  So a package with no assert statement, no __debug__
name and no read of sys.flags.optimize behaves the same under -O: the AST
check below proves that for every line of the source, not only for the lines
the tests happen to run.  The guards that raise AssertionError (the
decomposition pivot, the local coefficients, the window cross check, the
linear-time step 3 certificate on the step 2 generators) are explicit raises
and are tested in the normal run.
The acceptance suite still runs once under -O, end to end.
Pytest rewrites the asserts of test modules into explicit checks, so the
tests themselves keep checking."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "betticone").rglob("*.py"))


def _optimize_sensitive(tree):
    """(line, what) for each node whose meaning -O changes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"
        elif isinstance(node, ast.Attribute) and node.attr == "optimize":
            yield node.lineno, "sys.flags.optimize"


def test_no_source_line_changes_under_python_O():
    assert len(SOURCES) >= 7
    found = [(path.name, line, what) for path in SOURCES
             for line, what in _optimize_sensitive(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_what_O_strips():
    text = "assert x\nif __debug__:\n    pass\nlevel = sys.flags.optimize\n"
    assert [what for _, what in _optimize_sensitive(ast.parse(text))] \
        == ["assert statement", "__debug__", "sys.flags.optimize"]


@pytest.mark.skipif(bool(sys.flags.optimize), reason="already running under -O")
def test_acceptance_passes_under_python_O():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
