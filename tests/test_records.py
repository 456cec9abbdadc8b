"""The record types: value equality and hashing, read-only fields, their
printed forms, and the constructor checks of the four that validate."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from betticone import FP_DEFAULT, QQ, DegreeSequence, Functional, hk_ray, make_pure_diagram
from betticone import cone, linalg, resolve, tables, window
from betticone.cone import (
    BettiSequence,
    Decomposition,
    LocalDecomposition,
    MembershipVerdict,
    Violation,
)
from betticone.linalg import Field
from betticone.resolve import (
    BPolynomial,
    GradedModuleB,
    HilbertData,
    ResolutionResult,
    builtin,
    min_free_resolution,
)
from betticone.tables import HKRay, PureDiagram
from betticone.window import Window, WindowReport, cross_check

SRC = Path(__file__).resolve().parent.parent / "src"

# each factory builds a fresh record from the same fields on every call
RECORDS = {
    Violation: lambda: Violation("alpha(0)", Fraction(-1), Functional.alpha(0)),
    Decomposition: lambda: Decomposition(((DegreeSequence.free(0), Fraction(1, 2)),)),
    MembershipVerdict: lambda: MembershipVerdict(False, violation=Violation("b0", Fraction(-1))),
    BettiSequence: lambda: BettiSequence.of(1, 2, 3),
    LocalDecomposition: lambda: LocalDecomposition(Fraction(1), Fraction(0), Fraction(1, 6)),
    DegreeSequence: lambda: DegreeSequence.tail(0, 1),
    PureDiagram: lambda: make_pure_diagram(DegreeSequence.two_step(0, 2)),
    Functional: lambda: Functional.gamma(3),
    HKRay: lambda: hk_ray(Fraction(3, 2)),
    ResolutionResult: lambda: min_free_resolution(builtin("omega"), 8, 3),
    HilbertData: lambda: HilbertData(0, (1, 2), 3),
    WindowReport: lambda: cross_check(Window(0, 2)),
    Window: lambda: Window(0, 3),
    Field: lambda: Field(7),
    GradedModuleB: lambda: builtin("omega"),
}


def test_every_record_type_is_covered():
    found = {obj for mod in (cone, linalg, resolve, tables, window) for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__}
    assert found == set(RECORDS)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_equal_fields_give_equal_records_and_hashes(kind):
    a, b = RECORDS[kind](), RECORDS[kind]()
    assert type(a) is kind and a is not b
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_fields_are_read_only(kind):
    record = RECORDS[kind]()
    for name in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == RECORDS[kind]()


def test_printed_forms():
    assert repr(Window(0, 3)) == "Window(jmin=0, jmax=3)"
    assert repr(Field(7)) == "Field(p=7)"
    assert repr(HilbertData(0, (1, 2), 3)) == "HilbertData(offset=0, numerator=(1, 2), e=3)"
    assert repr(DegreeSequence.tail(0, 1)) == "DegreeSequence(shape='tail', d0=0, d1=1)"
    assert str(DegreeSequence.tail(0, 1)) == "(0, 1, 2, ...)"
    assert str(DegreeSequence.two_step(0, 2)) == "(0, 2, inf)"
    assert str(DegreeSequence.free(4)) == "(4, inf)"
    assert repr(Functional.alpha(2)) == "Functional(kind='alpha', i=None, j=None, k=2)"


def test_fields_and_defaults_are_kept():
    assert Violation("x", Fraction(-1)).functional is None
    assert MembershipVerdict(True).decomposition is None
    assert Field() == QQ and Field().p == 0
    assert DegreeSequence.free(3).d1 is None
    assert LocalDecomposition.RAYS == ((1, 0, 0), (1, 1, 0), (1, 3, 6))
    assert LocalDecomposition(1, 2, 3).terms() == (((1, 0, 0), 1), ((1, 1, 0), 2), ((1, 3, 6), 3))
    M = builtin("omega")
    assert M == GradedModuleB(gen_degrees=[0, 0], relations=M.relations, field=FP_DEFAULT)


X7 = BPolynomial.monomial("x", 1, Fraction(1, 7))


X = BPolynomial.variable("x")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Window(3, 1), "empty window", id="window"),
    pytest.param(lambda: Window(jmin=3, jmax=1), "empty window", id="window-kw"),
    pytest.param(lambda: DegreeSequence("tail", 2, 2), "need d0 < d1", id="tail"),
    pytest.param(lambda: DegreeSequence(shape="tail", d0=2, d1=2), "need d0 < d1", id="tail-kw"),
    pytest.param(lambda: DegreeSequence("free", 0, 1), "free shape takes d0 only", id="free"),
    pytest.param(lambda: DegreeSequence(shape="free", d0=0, d1=1), "free shape takes d0 only", id="free-kw"),
    pytest.param(lambda: DegreeSequence("two_step", 0), "needs d1", id="two_step"),
    pytest.param(lambda: DegreeSequence("line", 0, 1), "unknown shape", id="shape"),
    pytest.param(lambda: Field(4), "not prime", id="field"),
    pytest.param(lambda: Field(p=4), "not prime", id="field-kw"),
    pytest.param(lambda: Field(2 ** 31 + 11), "too large", id="field-large"),
    pytest.param(lambda: GradedModuleB((0, 0), ((X,),)), "length 1 against 2", id="ragged"),
    pytest.param(lambda: GradedModuleB(gen_degrees=(0, 0), relations=((X,),)), "length 1 against 2",
                 id="ragged-kw"),
    pytest.param(lambda: GradedModuleB((0,), ((X7,),), Field(7)), "divisible by 7", id="denominator"),
])
def test_constructors_still_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_with_field_rederives_the_branch_rows():
    M = GradedModuleB((0,), ((X7,),), QQ)
    with pytest.raises(ValueError, match="divisible by 7"):
        M.with_field(Field(7))
    omega = builtin("omega", QQ)
    moved = omega.with_field(FP_DEFAULT)
    assert moved == builtin("omega", FP_DEFAULT)
    assert moved._branch_rows == builtin("omega", FP_DEFAULT)._branch_rows != omega._branch_rows


def test_importing_the_cli_loads_no_code_generation():
    # the records are built without dataclasses, which loads inspect; typing
    # is left out here, as site may already load it through a .pth file
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import betticone.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
