"""The record types: value equality and hashing, read-only fields, their
printed forms, and the constructor checks of the four that validate; and the
package's list of public names."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import betticone
from betticone import FP_DEFAULT, QQ, BettiTable, DegreeSequence, Functional, hk_ray
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
from betticone.tables import HKRay
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
Y = BPolynomial.variable("y")


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
    pytest.param(lambda: GradedModuleB((0,), ((0,),)), "must be a BPolynomial", id="int-entry"),
    pytest.param(lambda: GradedModuleB((0,), (("x",),)), "must be a BPolynomial", id="str-entry"),
    pytest.param(lambda: GradedModuleB((0,), (), 3), "must be a Field", id="int-field"),
    pytest.param(lambda: GradedModuleB((0,), (), "QQ"), "must be a Field", id="str-field"),
    pytest.param(lambda: GradedModuleB((0,), (), None), "must be a Field", id="none-field"),
    pytest.param(lambda: builtin("omega", 7), "must be a Field", id="builtin-field"),
    # _make, and _replace which calls it, go through the constructor
    pytest.param(lambda: Window(0, 3)._replace(jmin=5), "empty window", id="window-replace"),
    pytest.param(lambda: Window._make((3, 1)), "empty window", id="window-make"),
    pytest.param(lambda: DegreeSequence.tail(0, 1)._replace(d1=0), "need d0 < d1", id="tail-replace"),
    pytest.param(lambda: DegreeSequence._make(("free", 0, 1)), "free shape takes d0 only", id="free-make"),
    pytest.param(lambda: Field._make([4]), "not prime", id="field-make"),
    pytest.param(lambda: QQ._replace(p=4), "not prime", id="field-replace"),
    pytest.param(lambda: builtin("omega")._replace(gen_degrees=(0,)), "length 2 against 1", id="module-replace"),
    pytest.param(lambda: GradedModuleB._make(((0,), ((X7,),), Field(7))), "divisible by 7", id="module-make"),
])
def test_constructors_still_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bad", [0.7, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("build", [
    pytest.param(lambda a: GradedModuleB((0, a)), id="module"),
    pytest.param(lambda a: DegreeSequence.free(a), id="free"),
    pytest.param(lambda a: DegreeSequence.tail(-1, a), id="tail"),
    pytest.param(lambda a: Window(a, 3), id="window"),
])
def test_degrees_are_ints_when_the_record_is_built(build, bad):
    # the rule of a table index: 0.7 is not cut to 0, nor True read as 1
    with pytest.raises(ValueError, match="must be ints"):
        build(bad)


def test_with_field_rederives_the_branch_rows():
    M = GradedModuleB((0,), ((X7,),), QQ)
    with pytest.raises(ValueError, match="divisible by 7"):
        M.with_field(Field(7))
    omega = builtin("omega", QQ)
    for moved in (omega.with_field(FP_DEFAULT), omega._replace(field=FP_DEFAULT)):
        assert moved == builtin("omega", FP_DEFAULT)
        assert moved._branch_rows == builtin("omega", FP_DEFAULT)._branch_rows != omega._branch_rows
    # (x, y) and (x, -y) span two dimensions in degree 1 over QQ and one over
    # F_2, so the rows 0..2 of the relation walk, taken when the module is
    # built, see the field
    rows = ((X, Y), (X, -Y))
    over_q, over_2 = GradedModuleB((0, 0), rows, QQ), GradedModuleB((0, 0), rows, Field(2))
    assert over_q._rows == BettiTable({(0, 0): 2, (1, 1): 2, (2, 2): 4})
    assert over_2._rows == BettiTable({(0, 0): 2, (1, 1): 1, (2, 2): 1})
    for moved in (over_q.with_field(Field(2)), over_q._replace(field=Field(2)),
                  GradedModuleB._make(((0, 0), rows, Field(2)))):
        assert moved._rows == over_2._rows
    assert over_2.with_field(QQ)._rows == over_q._rows


def test_make_and_replace_keep_the_namedtuple_contract():
    assert Window._make([0, 3]) == Window(0, 3) and type(Window._make([0, 3])) is Window
    assert Window(0, 3)._replace(jmax=5) == Window(0, 5)
    assert DegreeSequence._make(("two_step", 0, 2)) == DegreeSequence.two_step(0, 2)
    assert Field._make([7]) == Field(7)
    with pytest.raises(TypeError, match="Expected 2 arguments, got 3"):
        Window._make([0, 1, 2])
    with pytest.raises(ValueError, match="unexpected field names"):
        Window(0, 3)._replace(width=2)


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


def test_all_lists_exactly_the_public_names():
    # each listed name resolves, once, and each public name the package
    # binds, its submodules aside, is listed
    listed = betticone.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(betticone, name)] == []
    assert [name for name, value in vars(betticone).items()
            if not name.startswith("_") and not isinstance(value, ModuleType) and name not in listed] == []
