"""The package under python -O.  -O strips assert statements and the code
under `if __debug__`, and changes nothing else a program can see except
sys.flags.optimize.  So a package with no assert statement, no __debug__
name and no read of sys.flags.optimize behaves the same under -O: the AST
check below proves that for every line of the source, not only for the lines
the tests happen to run.  The guards that raise AssertionError (the
decomposition pivot and the window cross check) are explicit raises and are
tested in the normal run.
The acceptance suite still runs once under -O, end to end.
The stdlib is the package's only runtime dependency (pyproject.toml lists
none), and a second AST check keeps every absolute import inside it.  A
third parses every source file at the Python floor pyproject.toml declares.
Pytest rewrites the asserts of test modules into explicit checks, so the
tests themselves keep checking."""

import ast
import os
import re
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


def _absolute_imports(tree):
    """The top-level module of each absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_absolute_import_is_stdlib():
    found = {name for path in SOURCES for name in _absolute_imports(ast.parse(path.read_text(), str(path)))}
    assert {"fractions", "re"} <= found
    assert found - sys.stdlib_module_names == set()


def test_the_import_check_sees_every_absolute_import():
    text = "import numpy.linalg, os\nfrom sympy import Rational\nfrom .tables import INF\n"
    assert sorted(_absolute_imports(ast.parse(text))) == ["numpy", "os", "sympy"]


def test_every_source_parses_at_the_declared_python_floor():
    # requires-python read with a regex: tomllib exists only from Python 3.11 on
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    floor = int(found[1]), int(found[2])
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_the_floor_check_sees_newer_syntax():
    # except* arrived in Python 3.11
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(text, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=(3, 10))


@pytest.mark.skipif(bool(sys.flags.optimize), reason="already running under -O")
def test_acceptance_passes_under_python_O():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
