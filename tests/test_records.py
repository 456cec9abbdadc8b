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
from betticone import FP_DEFAULT, QQ, BettiTable, DegreeSequence, Functional, PrimeField, hk_ray, make_pure_diagram
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
    hilbert_data,
    min_free_resolution,
    parse_poly,
)
from betticone.tables import (ALPHA, EPSILON, EXPLICIT, GAMMA_INF, HKRay, collapse_tail, expand_tail,
                              syzygy_of_indecomposable)
from betticone.window import Window, WindowReport, cross_check, extreme_rays

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


BIG = int("7" * 1000)


# _int's refusal, which no CLI call reaches, and a StabilizationError; the
# refusals of the CLI, which exit 2, are rows of
# test_cli.py::test_a_refusal_quotes_a_long_text_by_its_prefix_and_length
@pytest.mark.parametrize("build", [
    pytest.param(lambda: hilbert_data(builtin("B"), -BIG), id="deg-bound"),
    pytest.param(lambda: Functional.alpha("7" * 100_000), id="int-rule-str"),
    pytest.param(lambda: Functional.alpha(Fraction(BIG, 3)), id="int-rule-fraction"),
])
def test_a_refusal_quotes_a_huge_argument_by_its_prefix_and_length(build):
    with pytest.raises((ValueError, RuntimeError)) as info:  # StabilizationError is a RuntimeError
        build()
    message = str(info.value)
    assert len(message) < 200 and "... (1" in message and "characters)" in message, message


HUGE, WORD, COEFF = 10 ** 5000, "w" * 100_000, int("7" * 1200)
NAMED = "<int of 16610 bits>"  # HUGE, past the interpreter's int-to-str digit limit
WORD_QUOTED = f"{'w' * 64!r}... (100000 characters)"
COEFF_QUOTED = f"{'7' * 64}... (1200 characters)"
SUM_QUOTED = f"{'7' * 64}... (1208 characters)"  # of the text of COEFF*x + y^2
PRODUCT_QUOTED = f"{str(2 ** 8000)[:64]}... (2409 characters)"


def raise_(exc):
    raise exc


# One row per refusal that quotes an argument, fed a 100,000-character str or
# 10^5000, whichever its argument takes, or a polynomial with a 1,200-digit
# coefficient: the call, the error it raises, and the argument as quoted.
@pytest.mark.parametrize("build, error, quoted", [
    pytest.param(lambda: BettiTable({}, tail_mode=WORD), ValueError, WORD_QUOTED, id="tail-mode"),
    pytest.param(lambda: BettiTable({WORD: 1}), ValueError, WORD_QUOTED, id="table-index"),
    pytest.param(lambda: BettiTable({(3, HUGE): 1}), ValueError, f"[(3, {NAMED})]", id="canonical-rows"),
    pytest.param(lambda: BettiTable({(-HUGE, 0): 1}), ValueError, f"-{NAMED}", id="negative-index"),
    pytest.param(lambda: DegreeSequence(WORD, 0), ValueError, WORD_QUOTED, id="shape"),
    pytest.param(lambda: DegreeSequence.two_step(HUGE, 3), ValueError, f"({NAMED}, 3)", id="d0-not-below-d1"),
    pytest.param(lambda: make_pure_diagram(WORD), ValueError, WORD_QUOTED, id="pure-diagram"),
    pytest.param(lambda: Functional(ALPHA, i=HUGE, k=1), ValueError, f"i={NAMED}", id="takes-k-only"),
    pytest.param(lambda: Functional(EPSILON, 0, 0, k=HUGE), ValueError, f"k={NAMED}", id="takes-i-and-j-only"),
    pytest.param(lambda: Functional(GAMMA_INF, j=HUGE), ValueError, f"j={NAMED}", id="takes-no-index"),
    pytest.param(lambda: Functional(WORD), ValueError, WORD_QUOTED, id="functional-kind"),
    pytest.param(lambda: Functional.alpha(Fraction(HUGE, 3)), ValueError, f"{NAMED}/3", id="int-rule"),
    pytest.param(lambda: collapse_tail(BettiTable({(2, HUGE): 1, (3, HUGE + 1): 3}, tail_mode=EXPLICIT)),
                 ValueError, f"(2, {NAMED})", id="doubling"),
    pytest.param(lambda: hk_ray(HUGE), ValueError, f"c = {NAMED}/1", id="ray-c"),
    pytest.param(lambda: HKRay(0, WORD, (1, 1, 0)), ValueError, WORD_QUOTED, id="ray-mcm-name"),
    pytest.param(lambda: HKRay(0, "B", (HUGE,)), ValueError, f"({NAMED},)", id="ray-vector"),
    pytest.param(lambda: syzygy_of_indecomposable(WORD), ValueError, WORD_QUOTED, id="indecomposable"),
    pytest.param(lambda: BPolynomial({WORD: 1}), ValueError, WORD_QUOTED, id="monomial"),
    pytest.param(lambda: (COEFF * X + Y * Y).degree(), ValueError, SUM_QUOTED, id="degree"),
    pytest.param(lambda: BPolynomial.constant(HUGE), ValueError, NAMED, id="coefficient-bits"),
    pytest.param(lambda: BPolynomial({("x", 1): -HUGE}), ValueError, f"-{NAMED}", id="negative-coefficient-bits"),
    pytest.param(lambda: BPolynomial.constant(2 ** 4000) * BPolynomial.constant(2 ** 4000), ValueError,
                 PRODUCT_QUOTED, id="product-coefficient-bits"),
    pytest.param(lambda: parse_poly(HUGE), resolve.PolyParseError, NAMED, id="poly-type"),
    pytest.param(lambda: parse_poly("x^y" + "+x" * 49_998), resolve.PolyParseError, "'y' in", id="poly-expected"),
    pytest.param(lambda: parse_poly(")" + "+x" * 49_999), resolve.PolyParseError, "')' in", id="poly-unexpected"),
    pytest.param(lambda: parse_poly(WORD), resolve.PolyParseError, f"'w' in {WORD_QUOTED}", id="poly-character"),
    pytest.param(lambda: GradedModuleB(HUGE), ValueError, NAMED, id="gen-degrees"),
    pytest.param(lambda: GradedModuleB((0,), HUGE), ValueError, NAMED, id="relations"),
    pytest.param(lambda: GradedModuleB((0,), (), WORD), ValueError, WORD_QUOTED, id="module-field"),
    pytest.param(lambda: GradedModuleB((0,), ((WORD,),)), ValueError, WORD_QUOTED, id="entry-type"),
    pytest.param(lambda: GradedModuleB((0,), ((COEFF * X + Y * Y,),)), ValueError, SUM_QUOTED,
                 id="entry-inhomogeneous"),
    pytest.param(lambda: GradedModuleB((0,), ((BPolynomial.constant(COEFF),),)), ValueError, COEFF_QUOTED,
                 id="entry-unit"),
    pytest.param(lambda: GradedModuleB((HUGE, 0), ((X, X * X),)), ValueError, f"[2, {NAMED}]",
                 id="row-degrees"),
    pytest.param(lambda: hilbert_data(builtin("B"), -HUGE), resolve.StabilizationError, f"-{NAMED}",
                 id="hilbert-deg-bound"),
    pytest.param(lambda: raise_(cone.DecompositionLoopError(BettiTable({(0, HUGE): 1}), ())),
                 cone.DecompositionLoopError, f"((0, {NAMED}),)", id="greedy-residual"),
    pytest.param(lambda: cone._greedy(BettiTable({(1, HUGE): 1})), AssertionError, "<BettiTable>",
                 id="greedy-row-0"),
    pytest.param(lambda: cone.decompose(BettiTable({(0, 0): -HUGE})), cone.NotInConeError, f"-{NAMED}/1",
                 id="not-in-cone"),
    pytest.param(lambda: Window(HUGE, 0), ValueError, f"[{NAMED}, 0]", id="empty-window"),
    pytest.param(lambda: Window(0, 3).index(0, HUGE), ValueError, f"(0, {NAMED})", id="window-index"),
    pytest.param(lambda: cross_check(Window(0, HUGE)), window.WindowCapError, "<int of 16612 bits>",
                 id="window-cap"),
    pytest.param(lambda: PrimeField(HUGE), ValueError, NAMED, id="prime-too-large"),
    pytest.param(lambda: PrimeField(-HUGE), ValueError, f"-{NAMED} is not prime", id="not-prime"),
])
def test_every_refusal_quotes_its_argument_by_the_one_rule(build, error, quoted):
    with pytest.raises(error) as info:
        build()
    message = str(info.value)
    assert type(info.value) is error and len(message) < 1000 and "Exceeds the limit" not in message, message
    assert quoted in message, message


# The sweep of every int, rational, name, record and sequence argument of the
# public calls and record constructors: each row is a call of one argument, a
# pattern its refusal must match, as it names the argument, and the swept
# values it takes.  An int argument takes none of them, not even 1.0, True,
# "1" or Fraction(1), which equal an int, but None where None is its default;
# a rational one takes a Fraction and an int or rational text, and gives what
# the exact value gives.
SWEPT = {"float": 1.0, "bool": True, "str": "1", "ratio": "3/2", "Fraction": Fraction(1), "None": None,
         "big-float": 2 ** 70 * 1.0, "name": "w"}
EXACT = {"str": 1, "ratio": Fraction(3, 2), "Fraction": 1}
RATIONAL = ("str", "ratio", "Fraction")
OMEGA = builtin("omega")
T = BettiTable({(2, 0): 3})
ARGUMENTS = [
    # ints
    pytest.param(lambda a: GradedModuleB((0, a)), "generator degree", (), id="module"),
    pytest.param(lambda a: DegreeSequence.free(a), "d0", (), id="free"),
    pytest.param(lambda a: DegreeSequence.tail(-1, a), "d1", (), id="tail"),
    pytest.param(lambda a: DegreeSequence.two_step(a, 5), "d0", (), id="two_step"),
    pytest.param(lambda a: DegreeSequence.free(0).degree(a), "position", (), id="position"),
    pytest.param(lambda a: Window(a, 3), "jmin", (), id="window"),
    pytest.param(lambda a: Window(0, a), "jmax", (), id="window-jmax"),
    pytest.param(lambda a: Window(0, 3).index(a, 1), "i", (), id="index-i"),
    pytest.param(lambda a: Window(0, 3).index(0, a), "j", (), id="index-j"),
    pytest.param(lambda a: extreme_rays(a, []), "dim", (), id="extreme_rays"),
    pytest.param(lambda a: BettiTable({(a, 0): 1}), "homological index", (), id="table-i"),
    pytest.param(lambda a: BettiTable({(0, a): 1}), "degree", (), id="table-j"),
    pytest.param(lambda a: BettiTable({a: 1}), "table index", (), id="table-key"),
    pytest.param(lambda a: BettiTable({(0, 0, a): 1}), "table index", (), id="table-key-3"),
    pytest.param(lambda a: T.entry(a, 0), "homological index", (), id="entry-i"),
    pytest.param(lambda a: T.entry(3, a), "degree", (), id="entry-j"),
    pytest.param(lambda a: expand_tail(T, a), "max_row", (), id="max_row"),
    pytest.param(lambda a: expand_tail(T, 4, a), "max_degree", ("None",), id="max_degree"),
    pytest.param(lambda a: Functional.epsilon(a, 0), "i", (), id="epsilon-i"),
    pytest.param(lambda a: Functional.epsilon(0, a), "j", (), id="epsilon-j"),
    pytest.param(lambda a: Functional.alpha(a), "k", (), id="alpha"),
    pytest.param(lambda a: Functional.gamma(a), "k", (), id="gamma"),
    pytest.param(lambda a: Functional.doubling_eq(a, 1), "i", (), id="doubling-i"),
    pytest.param(lambda a: Functional.doubling_eq(2, a), "j", (), id="doubling-j"),
    pytest.param(lambda a: hk_ray(1).entries(a), "n", (), id="ray-entries"),
    pytest.param(lambda a: Field(a), "field characteristic", (), id="field"),
    pytest.param(lambda a: PrimeField(a), "field characteristic", (), id="prime-field"),
    pytest.param(lambda a: min_free_resolution(OMEGA, a, 3), "deg_bound", (), id="resolve-deg"),
    pytest.param(lambda a: min_free_resolution(OMEGA, 8, a), "hom_bound", (), id="resolve-hom"),
    pytest.param(lambda a: hilbert_data(OMEGA, a), "deg_bound", (), id="hilbert"),
    pytest.param(lambda a: BPolynomial.monomial("x", a), "exponent", (), id="monomial-exp"),
    pytest.param(lambda a: BPolynomial({("x", a): 1}), "exponent", (), id="poly-exp"),
    pytest.param(lambda a: BPolynomial.variable("x") ** a, "exponent", (), id="power"),
    pytest.param(lambda a: Functional.alpha(1)._replace(k=a), "k", (), id="functional-replace"),
    # rationals
    pytest.param(lambda a: BettiTable({(0, 0): a}), "table entry", RATIONAL, id="table-entry"),
    pytest.param(lambda a: BettiSequence.of(a, 0, 0), "b0", RATIONAL, id="b0"),
    pytest.param(lambda a: BettiSequence.of(0, a, 0), "b1", RATIONAL, id="b1"),
    pytest.param(lambda a: BettiSequence.of(0, 0, a), "b2", RATIONAL, id="b2"),
    pytest.param(lambda a: hk_ray(a), "c", RATIONAL, id="hk_ray"),
    pytest.param(lambda a: BPolynomial.constant(a), "coefficient", RATIONAL, id="constant"),
    pytest.param(lambda a: BPolynomial.monomial("x", 1, a), "coefficient", RATIONAL, id="monomial-coeff"),
    pytest.param(lambda a: BPolynomial({("y", 2): a}), "coefficient", RATIONAL, id="poly-coeff"),
    pytest.param(lambda a: BettiSequence(0, a, 0), "b1", RATIONAL, id="sequence"),
    pytest.param(lambda a: HKRay(a, "M_i", (2, 3, 3)), "c|mcm_name", ("str", "Fraction"), id="ray"),
    # names
    pytest.param(lambda a: BPolynomial.variable(a), "monomial", (), id="variable"),
    pytest.param(lambda a: BPolynomial.monomial(a, 0, 5), "monomial", ("str",), id="monomial-var"),  # "1"^0
    pytest.param(lambda a: BPolynomial({a: 1}), "monomial", (), id="poly-key"),
    pytest.param(lambda a: parse_poly(a), "polynomial|bad character", ("str", "ratio"), id="parse_poly"),
    pytest.param(lambda a: builtin(a), "builtin", (), id="builtin"),
    pytest.param(lambda a: syzygy_of_indecomposable(a), "indecomposable", (), id="syzygy"),
    # records and sequences
    pytest.param(lambda a: make_pure_diagram(a), "d", (), id="pure-diagram"),
    pytest.param(lambda a: GradedModuleB(a), "gen_degrees|generator degree", (), id="module-gens"),
    pytest.param(lambda a: Functional(a), "kind", (), id="functional-kind"),
]


@pytest.mark.parametrize("kind", SWEPT)
@pytest.mark.parametrize("build, names, takes", ARGUMENTS)
def test_degrees_are_ints_when_the_record_is_built(build, names, takes, kind):
    # the int rule: 1.0 is not read as 1, nor True; the value rule refuses a
    # bool too, and reads "3/2" as Fraction(3, 2)
    if kind not in takes:
        with pytest.raises(ValueError, match=rf"\b({names})\b"):
            build(SWEPT[kind])
    elif "Fraction" in takes:
        assert repr(build(SWEPT[kind])) == repr(build(EXACT[kind]))
    else:
        build(SWEPT[kind])


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
