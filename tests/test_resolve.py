"""Ring elements, module presentations, resolutions, and Hilbert data."""

import io
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle as bench_oracle
from betticone import (
    FP_DEFAULT,
    QQ,
    PrimeField,
    BPolynomial,
    GradedModuleB,
    HilbertData,
    StabilizationError,
    BettiTable,
    DegreeSequence,
    Functional,
    builtin,
    check_finite_length,
    check_graded,
    collapse_tail,
    expand_tail,
    hilbert_data,
    min_free_resolution,
    parse_poly,
    quotient_module,
    syzygy_of_indecomposable,
)
import betticone.resolve as resolve_module
from betticone.cli import parse_table_text, run
from betticone.linalg import SpanTracker
from betticone.resolve import (
    BUILTIN_NAMES,
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE_SPAN,
    MAX_HOM_BOUND,
    MAX_INHOMOGENEOUS_POWER_DEGREE,
    MAX_NESTING,
    PolyParseError,
)
from betticone.tables import INDECOMPOSABLE_NAMES
from oracles import CapPassed, expression_value, functional_value, kernel_basis, row_sum, scrambled_sum, tor_betti

X = BPolynomial.variable("x")
Y = BPolynomial.variable("y")
Z = BPolynomial.variable("z")


def betti_entry_dict(res):
    return {ij: int(v) for ij, v in res.betti.items()}


_BETTI_CACHE = {}


def betti_of(name):
    if name not in _BETTI_CACHE:
        _BETTI_CACHE[name] = min_free_resolution(builtin(name), deg_bound=9, hom_bound=4).betti
    return _BETTI_CACHE[name]


# -- ring arithmetic ----------------------------------------------------------


def test_mixed_products_vanish():
    assert (X * Y).is_zero
    assert (Y * Z).is_zero
    assert (X * Z).is_zero
    assert X * X == BPolynomial.monomial("x", 2)


def test_power_of_the_diagonal_collapses_to_pure_powers():
    # (x + y + z)^n = x^n + y^n + z^n in B once n >= 2
    ell = X + Y + Z
    for n in (2, 3, 5, 1000000):
        expected = (
            BPolynomial.monomial("x", n) + BPolynomial.monomial("y", n) + BPolynomial.monomial("z", n)
        )
        assert ell ** n == expected
        assert parse_poly(f"(x+y+z)^{n}") == expected


def test_power_by_squaring_matches_repeated_products():
    for p in (parse_poly("x + 2"), parse_poly("x - y + 1/2"), 3 * Z, BPolynomial.zero()):
        product = BPolynomial.constant(1)
        for n in range(8):
            assert p ** n == product
            product = product * p


def test_products_with_constants():
    assert 2 * X == BPolynomial({("x", 1): 2})
    assert (X - X).is_zero
    assert BPolynomial.constant(Fraction(1, 2)) * BPolynomial.constant(4) == BPolynomial.constant(2)


def test_degree_and_homogeneity():
    assert (X + Y).degree() == 1
    assert BPolynomial.constant(3).degree() == 0
    assert BPolynomial.zero().is_homogeneous
    with pytest.raises(ValueError, match="no degree"):
        BPolynomial.zero().degree()
    with pytest.raises(ValueError, match="inhomogeneous"):
        (X + BPolynomial.constant(1)).degree()


def test_parse_poly_grammar():
    assert parse_poly("x^2 - 1/2*y^2") == X * X - Fraction(1, 2) * (Y * Y)
    assert parse_poly("(x+y+z)^3") == (X + Y + Z) ** 3
    one = BPolynomial.constant(1)
    assert parse_poly("(x+1)^3") == (X + one) ** 3
    assert parse_poly("(x+1)^64") == (X + one) ** MAX_INHOMOGENEOUS_POWER_DEGREE
    # products are bounded by their result, not by their factors
    assert parse_poly("(x+y^40)*(x+z^40)") == X * X
    assert parse_poly("(x+1)^32*(x+1)^32") == (X + one) ** 64
    assert parse_poly("3*(x+1)^64") == 3 * (X + one) ** 64
    # coefficients up to MAX_COEFFICIENT_BITS bits, parentheses up to MAX_NESTING deep
    assert parse_poly(f"(2*x)^{MAX_COEFFICIENT_BITS}") == 2 ** MAX_COEFFICIENT_BITS * X ** MAX_COEFFICIENT_BITS
    assert parse_poly(f"(1/2)^{MAX_COEFFICIENT_BITS - 1}*2*x") == Fraction(1, 2 ** (MAX_COEFFICIENT_BITS - 2)) * X
    assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == X
    assert parse_poly("-x + 2*z") == -X + 2 * Z
    assert parse_poly("3") == BPolynomial.constant(3)
    assert parse_poly("0").is_zero
    # a decimal digit of any script is read as its value
    assert parse_poly("١٢*y^٣") == 12 * Y ** 3


homogeneous_bases = st.tuples(
    st.integers(1, 4), st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=3, max_size=3)
).map(lambda t: BPolynomial({(v, t[0]): q for v, q in zip("xyz", t[1])}))


@given(homogeneous_bases, st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_homogeneous_power_is_the_repeated_product(base, n):
    product = BPolynomial.constant(1)
    for _ in range(n):
        product = product * base
    assert base ** n == product
    assert parse_poly(f"({base})^{n}") == product


def test_power_and_scalar_product_edge_cases():
    one = BPolynomial.constant(1)
    assert BPolynomial.zero() ** 0 == one
    assert parse_poly("0^0") == one
    assert parse_poly("(x-y)^0") == one
    assert parse_poly("0^3").is_zero
    assert parse_poly("(1/2)^3") == BPolynomial.constant(Fraction(1, 8))
    assert parse_poly("x*3") == parse_poly("3*x") == 3 * X
    assert parse_poly("0*(x+1)").is_zero
    assert parse_poly("2*(x+1)*1/2") == X + one


@pytest.mark.parametrize("bad", ["x/2", "2x", "w", "x^-1", "", "x +", "(x", "1/0",
                                 # powers of inhomogeneous bases past degree 64
                                 "(x+1)^65", "(x+1)^4000", "((x+1)^64)^2", "(x^2+x)^33",
                                 # products inhomogeneous past degree 64
                                 "(x+1)^64*(x+1)", "*".join(["(x+1)^64"] * 40),
                                 # coefficients past MAX_COEFFICIENT_BITS bits
                                 "3^1000000000000", "(2*x)^4097", "(1/3*y)^4097", "2^4096*2*x",
                                 "((2^64)^64)^2",
                                 # parentheses nested past MAX_NESTING
                                 "(" * 51 + "x" + ")" * 51, "(" * 5000 + "x" + ")" * 5000])
def test_parse_poly_rejects(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


@pytest.mark.parametrize("text, message", [("x +", "input ends early in 'x +'"), ("x^", "input ends early in 'x^'"),
                                           ("1/", "input ends early in '1/'"), ("", "empty entry"),
                                           (" ", "empty entry")])
def test_parse_poly_names_an_early_end(text, message):
    with pytest.raises(PolyParseError, match=re.escape(message)):
        parse_poly(text)


@given(st.text(st.sampled_from(list("0123456789xyz+-*/^() \t²٣a.,½")), max_size=40))
@example("x^²")  # a digit to str.isdigit, not a decimal digit that int() reads
@example("1" * 5000 + "*x")  # past Python's limit on int-to-text digits
@settings(max_examples=300, deadline=None)
def test_parse_poly_raises_only_poly_parse_error(text):
    try:
        parse_poly(text)
    except PolyParseError:
        pass


@st.composite
def expression_trees(draw, depth=0):
    """A tree of tests/oracles.py's expression_value: a sum of one to three
    signed terms of one or two factors, each an int, n/d, a variable or a sum
    in parentheses, nested at most 6 deep, with an optional power up to the
    inhomogeneous cap."""
    atoms = [st.tuples(st.just("int"), st.integers(0, 99)),
             st.tuples(st.just("ratio"), st.integers(0, 99), st.integers(1, 99)),
             st.tuples(st.just("var"), st.sampled_from("xyz"))]
    if depth < 6:
        atoms.append(expression_trees(depth + 1))
    powers = st.one_of(st.none(), st.integers(0, 3), st.integers(0, MAX_INHOMOGENEOUS_POWER_DEGREE))
    terms = []
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(("", "+", "-") if k == 0 else ("+", "-")))
        terms.append((sign, draw(st.lists(st.tuples(st.one_of(atoms), powers), min_size=1, max_size=2))))
    return ("sum", terms)


def render_expression(tree, gap) -> str:
    """The text of an expression tree, with gap() between every two tokens
    and at both ends."""
    tokens = []

    def emit(node):
        for sign, term in node[1]:
            if sign:
                tokens.append(sign)
            for k, (atom, n) in enumerate(term):
                if k:
                    tokens.append("*")
                if atom[0] == "sum":
                    tokens.append("(")
                    emit(atom)
                    tokens.append(")")
                elif atom[0] == "ratio":
                    tokens.extend((str(atom[1]), "/", str(atom[2])))
                else:
                    tokens.append(str(atom[1]))
                if n is not None:
                    tokens.extend(("^", str(n)))

    emit(tree)
    return gap() + "".join(t + gap() for t in tokens)


@given(expression_trees(), st.randoms(use_true_random=False))
@example(("sum", [("", [(("var", "x"), None)]), ("-", [(("var", "y"), None)])]), random.Random(0))  # x - y
@settings(max_examples=150, deadline=None)
def test_parse_poly_agrees_with_the_expression_oracle(tree, rnd):
    text = render_expression(tree, lambda: rnd.choice(("", "", " ", "  ", "\t")))
    try:
        expected = expression_value(tree, MAX_INHOMOGENEOUS_POWER_DEGREE, MAX_COEFFICIENT_BITS)
    except CapPassed:
        with pytest.raises(PolyParseError):
            parse_poly(text)
        return
    assert dict(parse_poly(text).items()) == expected, text


mono_keys = st.one_of(
    st.just(("1", 0)), st.tuples(st.sampled_from(("x", "y", "z")), st.integers(1, 4))
)
polys = st.dictionaries(mono_keys, st.fractions(min_value=-4, max_value=4, max_denominator=3),
                        max_size=5).map(BPolynomial)


@given(polys)
@settings(max_examples=80, deadline=None)
def test_str_parse_round_trip(p):
    assert parse_poly(str(p)) == p


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


def exact_coefficients(p):
    """Whether every coefficient of p is an int when integral, a Fraction otherwise."""
    return all(type(q) is (int if q.denominator == 1 else Fraction) for _, q in p.items())


@given(st.dictionaries(mono_keys, st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions(max_denominator=6)),
                       max_size=5), polys, st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_integral_coefficients_are_ints(terms, q, n):
    # ints and Fractions of the same values give the same polynomial, and
    # sums, products, powers and parsing keep an integral coefficient an int
    p = BPolynomial(terms)
    assert dict(p.items()) == {m: Fraction(c) for m, c in terms.items() if c}
    for r in (p, -p, p + q, p - q, p * q, p * Fraction(1, 2), p ** n, parse_poly(str(p))):
        assert exact_coefficients(r)


def test_float_coefficients_are_refused():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    for build in (lambda: BPolynomial.monomial("x", 1, 0.1), lambda: BPolynomial.constant(0.5),
                  lambda: BPolynomial({("y", 2): 2.0})):
        with pytest.raises(ValueError, match="float"):
            build()
    assert BPolynomial.monomial("x", 1, Fraction(1, 10)) == parse_poly("1/10*x")


def test_polynomial_validation_and_foreign_operands():
    for mono in (("w", 1), ("x", 0), ("y", -2), ("w", 0), ("x", 1, 1), None):
        with pytest.raises(ValueError, match="bad monomial"):
            BPolynomial({mono: 1})
    for mono in (("x", 1.5), ("y", 3.0), ("x", True), ("1", 0.0)):
        with pytest.raises(ValueError, match="exponent must be an int"):
            BPolynomial({mono: 1})
    for exp in (3.0, 0.0, False):
        with pytest.raises(ValueError, match="exponent must be an int"):
            BPolynomial.monomial("y", exp)
    # v^0 is 1 for a variable v and the unit's name "1" only: "w"^0 is refused
    assert BPolynomial.monomial("y", 0, 5) == BPolynomial.monomial("1", 0, 5) == BPolynomial.constant(5)
    with pytest.raises(ValueError, match="exponent must be a nonnegative int"):
        X ** -1
    for n in (1.5, "2", True, False):
        with pytest.raises(ValueError, match="exponent must be an int"):
            X ** n
    for text in (5, b"x"):
        with pytest.raises(PolyParseError, match="polynomial must be a str"):
            parse_poly(text)
    # a bool is no coefficient either
    for op in (lambda p: p * True, lambda p: False * p):
        with pytest.raises(ValueError, match="coefficient must be an int, a Fraction or a str, got bool"):
            op(X)
    assert repr(X - 2 * Y) == "BPolynomial(x - 2*y)"
    # an operand that is not a BPolynomial is left to Python, which refuses it
    for op in (lambda p: p + "x", lambda p: p - "x", lambda p: p * "x", lambda p: p * [1]):
        with pytest.raises(TypeError):
            op(X)
    assert X.__eq__("x") is NotImplemented and X != "x"


# -- presentations ------------------------------------------------------------


def test_graded_module_validation():
    with pytest.raises(ValueError, match="zero relation"):
        GradedModuleB((0,), ((BPolynomial.zero(),),))
    with pytest.raises(ValueError, match="length"):
        GradedModuleB((0, 0), ((X,),))
    with pytest.raises(ValueError, match="non-minimal"):
        GradedModuleB((0,), ((BPolynomial.constant(1),),))
    with pytest.raises(ValueError, match="not homogeneous"):
        GradedModuleB((0, 1), ((X, X),))
    with pytest.raises(ValueError, match="inhomogeneous"):
        GradedModuleB((0,), ((X + BPolynomial.constant(1),),))
    # generator and relation degrees span at most MAX_DEGREE_SPAN
    GradedModuleB((-5, MAX_DEGREE_SPAN - 5), ((BPolynomial.monomial("x", MAX_DEGREE_SPAN), BPolynomial.zero()),))
    for gens, rows in (((0, MAX_DEGREE_SPAN + 1), ()),
                       ((0,), ((BPolynomial.monomial("x", MAX_DEGREE_SPAN + 1),),)),
                       ((0,), ((BPolynomial.monomial("y", 10 ** 30),),))):
        with pytest.raises(ValueError, match="span"):
            GradedModuleB(gens, rows)
    # the cap counts the minimal degrees alone: x^20001 lies in (x), so this is B/(x)
    M = GradedModuleB((0,), ((X,), (X ** 20001,)))
    assert M._rows == builtin("M1")._rows
    assert hilbert_data(M, 2) == HilbertData(0, (1, 1), 2)


def test_relation_degrees():
    M = builtin("omega")
    assert M.gen_degrees == (0, 0)
    assert M.relation_degrees() == (1, 1, 1)


def test_quotient_module_accepts_strings():
    M = quotient_module(["x^2", "(x+y+z)^3"])
    assert M.gen_degrees == (0,)
    assert M.relation_degrees() == (2, 3)
    with pytest.raises(ValueError, match="unit"):
        quotient_module(["1"])
    with pytest.raises(ValueError, match="zero"):
        quotient_module(["0"])


def test_builtin_names():
    for name in BUILTIN_NAMES:
        builtin(name)
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("M21")


# -- resolutions ---------------------------------------------------------------


def test_bound_validation():
    M = builtin("B")
    with pytest.raises(ValueError, match="hom_bound"):
        min_free_resolution(M, deg_bound=9, hom_bound=1)
    # any int deg_bound is a window, however far below maxgen + hom_bound
    res = min_free_resolution(M, deg_bound=1, hom_bound=2)
    assert (betti_entry_dict(res), res.truncated_rows) == ({(0, 0): 1}, ())
    res = min_free_resolution(builtin("omega"), deg_bound=1, hom_bound=4)
    assert (betti_entry_dict(res), res.truncated_rows) == ({(0, 0): 2, (1, 1): 3}, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="hom_bound"):
        min_free_resolution(M, deg_bound=MAX_HOM_BOUND + 5, hom_bound=MAX_HOM_BOUND + 1)
    top = min_free_resolution(builtin("omega"), deg_bound=MAX_HOM_BOUND + 5, hom_bound=MAX_HOM_BOUND)
    assert top.betti.entry(MAX_HOM_BOUND, MAX_HOM_BOUND) == 3 * 2 ** (MAX_HOM_BOUND - 1)
    # the bounds are ints: 8.0 is not echoed back as deg_bound, nor 3.0 read as 3
    for deg_bound, hom_bound in ((8, 3.0), (8.0, 3), ("8", 3), (8, True), (Fraction(8), 3)):
        with pytest.raises(ValueError, match="_bound must be an int"):
            min_free_resolution(M, deg_bound, hom_bound)
    for module in (M, GradedModuleB((), ())):
        for deg_bound in (5.5, 5.0, "5", True):
            with pytest.raises(ValueError, match="must be an int"):
                hilbert_data(module, deg_bound)


def test_ring_resolves_to_itself():
    res = min_free_resolution(builtin("B"), deg_bound=6, hom_bound=3)
    assert betti_entry_dict(res) == {(0, 0): 1}
    assert res.tail_consistent
    assert res.truncated_rows == ()


def test_residue_field_resolution_is_the_unit_tail():
    res = min_free_resolution(builtin("k_residue"), deg_bound=9, hom_bound=4)
    assert betti_entry_dict(res) == {(0, 0): 1, (1, 1): 3, (2, 2): 6, (3, 3): 12, (4, 4): 24}
    assert res.tail_consistent
    # k has finite length, so its table lands in the finite length cone
    assert check_finite_length(collapse_tail(res.betti)).member


def test_omega_resolution():
    res = min_free_resolution(builtin("omega"), deg_bound=9, hom_bound=4)
    assert betti_entry_dict(res) == {(0, 0): 2, (1, 1): 3, (2, 2): 6, (3, 3): 12, (4, 4): 24}


def test_monomial_builtins_resolutions():
    assert {ij: int(v) for ij, v in betti_of("M1").items()} == {
        (0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 4, (4, 4): 8
    }
    assert {ij: int(v) for ij, v in betti_of("M12").items()} == {
        (0, 0): 1, (1, 1): 2, (2, 2): 4, (3, 3): 8, (4, 4): 16
    }


@pytest.mark.parametrize("name", INDECOMPOSABLE_NAMES)
def test_first_syzygy_matches_the_catalog(name):
    # beta_{i+1, j}(M) must equal the sum of beta_{i, j + t} over the syzygy
    # parts (N, t) recorded for M; resolutions provide both sides independently
    table = betti_of(name)
    parts = syzygy_of_indecomposable(name)
    for i in range(3):
        for j in range(8):
            expected = sum(betti_of(n).entry(i, j + t) for n, t in parts)
            assert table.entry(i + 1, j) == expected, (name, i + 1, j)


def test_redundant_relation_rows_do_not_inflate_betti():
    lean = quotient_module(["x^2"])
    fat = quotient_module(["x^2", "x^4"])  # x^4 lies in (x^2) already
    a = min_free_resolution(lean, deg_bound=10, hom_bound=3)
    b = min_free_resolution(fat, deg_bound=10, hom_bound=3)
    assert a.betti == b.betti


def test_truncation_is_exact_below_the_bound():
    M = quotient_module(["x^2", "y^3"])
    small = min_free_resolution(M, deg_bound=5, hom_bound=4)
    wide = min_free_resolution(M, deg_bound=11, hom_bound=4)
    for (i, j), v in wide.betti.items():
        if j <= 5:
            assert small.betti.entry(i, j) == v
    for (i, j), v in small.betti.items():
        assert wide.betti.entry(i, j) == v


def test_truncated_rows_are_flagged():
    res = min_free_resolution(quotient_module(["x^5", "y^5", "z^5"]), deg_bound=6, hom_bound=4)
    assert 2 in res.truncated_rows


def test_rows_past_the_window_are_flagged():
    # the relation x^5 lies past deg_bound 4: row 1 (degree 5) and row 2
    # (degree 6) are missing from the table, so both are flagged
    res = min_free_resolution(quotient_module(["x^5"]), deg_bound=4, hom_bound=2)
    assert dict(res.betti.items()) == {(0, 0): 1}
    assert res.truncated_rows == (1, 2)
    # row 2 has mass at deg_bound 6, so rows 3 and 4 may continue too
    res = min_free_resolution(quotient_module(["x^5", "y^5", "z^5"]), deg_bound=6, hom_bound=4)
    assert res.truncated_rows == (2, 3, 4)
    # a generator past deg_bound flags row 0, and so every row
    res = min_free_resolution(GradedModuleB((0, 3), ((X, BPolynomial.zero()),)), deg_bound=2, hom_bound=3)
    assert dict(res.betti.items()) == {(0, 0): 1, (1, 1): 1, (2, 2): 2}
    assert res.truncated_rows == (0, 1, 2, 3)


def test_resolved_tables_live_in_the_cone():
    for gens in (["x^2"], ["x^3", "y^2"], ["x^2", "y^2", "z^2"], ["(x+y+z)^2"]):
        res = min_free_resolution(quotient_module(gens), deg_bound=12, hom_bound=4)
        assert res.truncated_rows == ()
        assert check_graded(res.betti).member, gens


# -- the every-degree oracle ------------------------------------------------------
# The engine before branch coordinates: a labelled basis per degree and a
# tracker per degree, run over every degree up to deg_bound with no cut-off.


def _basis(degrees, d):
    """Basis labels of the degree d piece of the free module with these
    generator degrees: (k, "1") for generators in degree d, (k, var) for the
    pure power multiples of lower generators."""
    out = []
    for k, a in enumerate(degrees):
        if a == d:
            out.append((k, "1"))
        elif a < d:
            out.extend(((k, "x"), (k, "y"), (k, "z")))
    return out


def _shift(labels_from, coords_from, var, index_to, size):
    """Coordinates of var^e times an element, e >= 1 implied by the degrees."""
    out = [0] * size
    for (k, branch), c in zip(labels_from, coords_from):
        if c and (branch == "1" or branch == var):
            out[index_to[(k, var)]] += c
    return out


def _labelled_relations(M):
    """(degree, basis labels, int coordinates over M.field) of each relation row."""
    out = []
    for rdeg, row in zip(M.relation_degrees(), M.relations):
        labels = _basis(M.gen_degrees, rdeg)
        index = {lab: n for n, lab in enumerate(labels)}
        coords = [0] * len(labels)
        for k, poly in enumerate(row):
            for (var, exp), q in poly.items():
                coords[index[(k, var)]] += q
        out.append((rdeg, labels, M.field.int_row(coords)))
    return out


def truncated_rows(M, betti, deg_bound, hom_bound):
    """The rows of an oracle's betti dict that may continue past deg_bound,
    walked up one row at a time: row i is cut when it has mass at deg_bound,
    when row i - 1 is cut, for row 0 when a generator lies past deg_bound, or,
    for row 1, when a minimal relation does."""
    cut = []
    for i in range(hom_bound + 1):
        if ((i, deg_bound) in betti or (cut and cut[-1] == i - 1)
                or (i == 0 and any(a > deg_bound for a in M.gen_degrees))
                or (i == 1 and any(d > deg_bound for d in minimal_relation_degrees(M)))):
            cut.append(i)
    return tuple(cut)


def minimal_relation_degrees(M):
    """Oracle: the degrees of the minimal relations of M, those where row 1 of
    the every-degree loop, run up to the top degree of the presentation, is
    nonzero.  A relation in the span of lower ones has no such degree."""
    top = max(M.gen_degrees + M.relation_degrees(), default=0)
    return tuple(sorted({j for i, j in every_degree_betti(M, top, 1) if i == 1}))


def every_degree_resolution(M, deg_bound, hom_bound):
    """Oracle: the resolution loop run over every degree up to deg_bound at
    every step.  Returns (betti dict, tail_consistent, truncated_rows)
    computed from scratch."""
    betti = every_degree_betti(M, deg_bound, hom_bound)
    tail_ok = all(
        2 * betti.get((i, j), 0) == betti.get((i + 1, j + 1), 0)
        for i in range(2, hom_bound)
        for j in range(deg_bound)
    )
    return betti, tail_ok, truncated_rows(M, betti, deg_bound, hom_bound)


def every_degree_betti(M, deg_bound, hom_bound):
    """The betti dict of every_degree_resolution: a labelled basis and a
    fresh tracker per degree, at every step up to hom_bound."""
    field = M.field
    relations = _labelled_relations(M)
    betti = {}
    for a in M.gen_degrees:
        if a <= deg_bound:
            betti[(0, a)] = betti.get((0, a), 0) + 1
    upper_degrees, cur_degrees, cur_images = None, M.gen_degrees, None
    for step in range(1, hom_bound + 1):
        if not (relations if step == 1 else cur_degrees):
            break
        new_gens, prev_labels, prev_vectors = [], [], []
        for d in range(min(cur_degrees), deg_bound + 1):
            labels = _basis(cur_degrees, d)
            index = {lab: n for n, lab in enumerate(labels)}
            tracker = SpanTracker(field)
            for vec in prev_vectors:
                for var in "xyz":
                    tracker.add(_shift(prev_labels, vec, var, index, len(labels)))
            if step == 1:
                candidates = [coords for r, _, coords in relations if r == d]
            else:
                tgt_labels = _basis(upper_degrees, d)
                tgt_index = {lab: n for n, lab in enumerate(tgt_labels)}
                cols = []
                for g, branch in labels:
                    gdeg, gcoords = cur_images[g]
                    if branch == "1":
                        cols.append(gcoords)
                    else:
                        glabels = _basis(upper_degrees, gdeg)
                        cols.append(_shift(glabels, gcoords, branch, tgt_index, len(tgt_labels)))
                candidates = kernel_basis(list(zip(*cols)), len(labels), field)
            for cand in candidates:
                residual = tracker.add(cand)
                if residual is not None:
                    betti[(step, d)] = betti.get((step, d), 0) + 1
                    new_gens.append((d, residual))
            prev_labels, prev_vectors = labels, tracker.rows
        upper_degrees, cur_degrees, cur_images = cur_degrees, tuple(d for d, _ in new_gens), new_gens
    return betti


def full_matrix_branch_syzygies(gens, r, deg_bound, field):
    """Oracle: the minimal generators of degree <= deg_bound of the kernel of
    F_{i-1} -> F_{i-2}, as (degree, branch row over F_{i-1}) sorted by
    degree, from one elimination per branch of every column of the branch
    matrix, the zero columns of the other branches' generators among them.
    gens are the generators of F_{i-1} as (degree, branch row of the image
    over the r generators of F_{i-2}), sorted by degree."""
    s = len(gens)
    born = []
    for v in range(3):
        rows = list(zip(*(image[v * r:(v + 1) * r] for _, image in gens)))
        for vec in kernel_basis(rows, s, field):
            free = next(filter(vec.__getitem__, reversed(range(s))))
            d = gens[free][0] + 1
            if d <= deg_bound:
                born.append((d, [0] * (v * s) + vec + [0] * ((2 - v) * s)))
    born.sort(key=lambda gen: gen[0])
    return born


def every_step_resolution(M, deg_bound, hom_bound):
    """Oracle: the branch engine with three full-matrix eliminations at every
    step i >= 2, and the doubling observed afterwards instead of assumed from
    step 3 on.  Returns (betti dict, tail_consistent, truncated_rows)."""
    betti = {}
    for a in M.gen_degrees:
        if a <= deg_bound:
            betti[(0, a)] = betti.get((0, a), 0) + 1
    gens = [(d, row) for d, born, _ in resolve_module._relation_walk(M) if d <= deg_bound for row in born]
    rank = len(M.gen_degrees)
    for step in range(1, hom_bound + 1):
        if step > 1:
            gens, rank = full_matrix_branch_syzygies(gens, rank, deg_bound, M.field), len(gens)
        if not gens:
            break
        for d, _ in gens:
            betti[(step, d)] = betti.get((step, d), 0) + 1
    tail_ok = all(
        2 * betti.get((i, j), 0) == betti.get((i + 1, j + 1), 0)
        for i in range(2, hom_bound)
        for j in {j for (r, j) in betti if r == i} | {j - 1 for (r, j) in betti if r == i + 1}
        if j + 1 <= deg_bound
    )
    return betti, tail_ok, truncated_rows(M, betti, deg_bound, hom_bound)


def fresh_tracker_ranks(M, dstop):
    """Oracle: (d, size, rank) for every degree d from the lowest generator
    degree to dstop: the dimension of the degree d piece of the free module
    and that of the relation submodule in it, with a fresh tracker in every
    degree that takes all three shifts of every lower relation."""
    relations = _labelled_relations(M)
    out = []
    for d in range(min(M.gen_degrees), dstop + 1):
        labels = _basis(M.gen_degrees, d)
        index = {lab: n for n, lab in enumerate(labels)}
        tracker = SpanTracker(M.field)
        for rdeg, rlabels, coords in relations:
            if rdeg == d:
                tracker.add(coords)
            elif rdeg < d:
                for var in "xyz":
                    tracker.add(_shift(rlabels, coords, var, index, len(labels)))
        out.append((d, len(labels), tracker.rank))
    return out


def every_degree_hilbert(M, deg_bound):
    """Oracle: hilbert_data with a fresh tracker in every degree.  The
    dimensions are computed up to max(deg_bound, flat + 2), where flat is one
    past the top generator and minimal relation degree, and must be constant
    from flat on.  Returns the HilbertData, or the StabilizationError type
    exactly when deg_bound < flat."""
    if not M.gen_degrees:
        return HilbertData(0, (), 0)
    dmin = min(M.gen_degrees)
    flat = max(M.gen_degrees + minimal_relation_degrees(M)) + 1
    dims = [size - rank for _, size, rank in fresh_tracker_ranks(M, max(deg_bound, flat + 2))]
    assert len(set(dims[flat - dmin:])) == 1, (flat, dims)
    if deg_bound < flat:
        return StabilizationError
    diffs = [dims[0]] + [dims[n] - dims[n - 1] for n in range(1, len(dims))]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    return HilbertData(dmin, tuple(diffs), dims[-1])


@st.composite
def small_modules(draw, max_hom=5):
    gens = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    field = draw(st.sampled_from((QQ, PrimeField(2), PrimeField(7), FP_DEFAULT)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        pivot = draw(st.integers(0, len(gens) - 1))
        rdeg = gens[pivot] + draw(st.integers(1, 3))
        row = []
        for k, a in enumerate(gens):
            e = rdeg - a
            coeffs = [draw(st.integers(-5, 5)) for _ in "xyz"] if e >= 1 else [0, 0, 0]
            if k == pivot and not any(coeffs):
                coeffs[0] = 1
            row.append(BPolynomial({(v, e): c for v, c in zip("xyz", coeffs) if c}))
        rows.append(tuple(row))
        if draw(st.integers(0, 4)) == 0:
            rows.append(tuple(row))  # a redundant copy
    hom = draw(st.integers(2, max_hom))
    # from below every generator, which cuts row 0, to past maxgen + hom
    deg_bound = draw(st.integers(min(gens) - 1, max(gens) + hom + 5))
    return GradedModuleB(tuple(gens), tuple(rows), field), deg_bound, hom


@given(small_modules())
@settings(max_examples=300, deadline=None)
def test_branch_engine_matches_every_degree_oracle(case):
    M, deg_bound, hom = case
    res = min_free_resolution(M, deg_bound, hom)
    betti, tail_ok, truncated = every_degree_resolution(M, deg_bound, hom)
    assert betti_entry_dict(res) == betti
    assert res.tail_consistent == tail_ok
    assert res.truncated_rows == truncated


@given(small_modules())
@settings(max_examples=300, deadline=None)
def test_hilbert_walk_matches_every_degree_oracle(case):
    M, deg_bound, _ = case
    try:
        got = hilbert_data(M, deg_bound)
    except StabilizationError:
        got = StabilizationError
    assert got == every_degree_hilbert(M, deg_bound)


@given(small_modules(max_hom=9))
@settings(max_examples=300, deadline=None)
def test_certified_tail_matches_every_step_oracle(case):
    M, deg_bound, hom = case
    res = min_free_resolution(M, deg_bound, hom)
    betti, tail_ok, truncated = every_step_resolution(M, deg_bound, hom)
    assert betti_entry_dict(res) == betti
    assert res.tail_consistent == tail_ok
    assert res.truncated_rows == truncated


@pytest.mark.parametrize("field", [QQ, FP_DEFAULT], ids=["QQ", "F32003"])
def test_builtins_match_every_step_oracle_to_hom_10(field):
    for name in BUILTIN_NAMES:
        M = builtin(name, field)
        res = min_free_resolution(M, deg_bound=13, hom_bound=10)
        assert (betti_entry_dict(res), res.tail_consistent, res.truncated_rows) \
            == every_step_resolution(M, 13, 10), name
        assert res.tail_consistent, name
        assert res.truncated_rows == (), name


# -- Tor against the Koszul resolution of k ---------------------------------------


@given(small_modules())
@settings(max_examples=300, deadline=None)
def test_betti_numbers_match_the_tor_oracle(case):
    # over QQ, F_2, F_7 and F_32003 (small_modules draws the field), hom <= 5
    M, deg_bound, hom = case
    assert betti_entry_dict(min_free_resolution(M, deg_bound, hom)) == tor_betti(M, deg_bound, hom)


@pytest.mark.parametrize("field", [QQ, FP_DEFAULT], ids=["QQ", "F32003"])
def test_rows_three_on_double_by_the_tor_oracle(field):
    # judged by Tor alone: beta_{i+1,j+1} = 2 beta_{i,j} for i >= 2 inside the window
    deg_bound, hom = 10, 6
    for name in BUILTIN_NAMES:
        betti = tor_betti(builtin(name, field), deg_bound, hom)
        for i in range(2, hom):
            for j in range(deg_bound):
                assert betti.get((i + 1, j + 1), 0) == 2 * betti.get((i, j), 0), (name, i, j)
    # the doubling is not vacuous: omega's row 2 is 6 in degree 2
    assert tor_betti(builtin("omega", field), deg_bound, hom)[2, 2] == 6


# -- scrambled direct sums of pure diagram witnesses -------------------------------


def random_sum_terms(rng, max_gens=40):
    """5 to 30 (DegreeSequence, multiplicity) pairs, d0 in [0, 5] and
    d1 - d0 in [1, 3], with at most max_gens generators in all."""
    terms, gens = [], 0
    for _ in range(rng.randint(5, 30)):
        d0, e = rng.randint(0, 5), rng.randint(1, 3)
        m = min(rng.randint(1, 2), max_gens - gens)
        if m <= 0:
            break
        terms.append((rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + e),
                                  DegreeSequence.tail(d0, d0 + e))), m))
        gens += m
    return terms


@pytest.mark.parametrize("field", [QQ, FP_DEFAULT], ids=["QQ", "F32003"])
def test_scrambled_sums_resolve_to_their_tables(field):
    # d1 <= 8, so the tails' row 2 lies inside deg_bound 11
    rng = random.Random(808)
    dense = 0
    for _ in range(15):
        terms = random_sum_terms(rng)
        M = scrambled_sum(terms, field, rng)
        assert len(M.gen_degrees) <= 40
        dense += sum(sum(not p.is_zero for p in row) > 1 for row in M.relations)
        res = min_free_resolution(M, deg_bound=11, hom_bound=3)
        assert {ij: val for ij, val in res.betti.items() if ij[0] <= 2} == bench_oracle.combine(terms), terms
    assert dense > 50  # the automorphism did mix the summands
    # and Tor agrees on one small sum, every row of the window
    terms = random_sum_terms(rng, max_gens=8)
    M = scrambled_sum(terms, field, rng)
    assert betti_entry_dict(min_free_resolution(M, 10, 3)) == tor_betti(M, 10, 3)


def assert_engine_writes_the_expanded_window(M, rows):
    """At every hom_bound in (2, 3, 5) and every int deg_bound from 3 below
    the least degree of rows, the module's rows 0..2, to 3 past the last, the
    engine's window is what expand_tail writes from M._rows, from rows and
    from the window's own rows 0..2, and its truncated rows are the oracle's.
    Returns the truncated_rows of every window."""
    degrees = [j for _, j in rows]
    out = []
    for hom_bound in (2, 3, 5):
        for deg_bound in range(min(degrees) - 3, max(degrees) + 4):
            res = min_free_resolution(M, deg_bound, hom_bound)
            window = expand_tail(M._rows, hom_bound, deg_bound)
            assert res.betti == window == expand_tail(BettiTable(rows), hom_bound, deg_bound)
            assert res.betti == expand_tail(collapse_tail(res.betti), hom_bound, deg_bound)
            assert res.truncated_rows == truncated_rows(M, dict(window.items()), deg_bound, hom_bound)
            out.append(res.truncated_rows)
    return out


@pytest.mark.parametrize("field", [QQ, FP_DEFAULT, PrimeField(7)], ids=["QQ", "F32003", "F7"])
def test_the_engine_and_expand_tail_write_the_same_window(field):
    # one window contract for both writers, below maxgen + hom_bound as well
    for name in BUILTIN_NAMES:
        M = builtin(name, field)
        assert_engine_writes_the_expanded_window(M, tor_betti(M, 12, 2))
    # a scrambled sum's generators spread over degrees 0..5, so some windows
    # cut row 0, and a deg_bound below the end of row 2 cuts it
    rng = random.Random(2902)
    flags = Counter()
    for _ in range(30):
        terms = random_sum_terms(rng, max_gens=12)
        flags.update(cut[:1] for cut in assert_engine_writes_the_expanded_window(
            scrambled_sum(terms, field, rng), bench_oracle.combine(terms)))
    assert min(flags[(0,)], flags[(1,)], flags[(2,)], flags[()]) > 20, flags


def test_every_window_below_flat_is_truncated():
    # hilbert_data refuses a deg_bound below flat, and every such window is
    # truncated, so resolve's exit 1 below flat needs no Hilbert refusal
    cases = [(builtin(name, field), tor_betti(builtin(name, field), 12, 2))
             for field in (QQ, FP_DEFAULT) for name in BUILTIN_NAMES]
    rng = random.Random(3535)
    for field in (QQ, FP_DEFAULT):
        for _ in range(30):
            terms = random_sum_terms(rng, max_gens=12)
            cases.append((scrambled_sum(terms, field, rng), bench_oracle.combine(terms)))
    seen = Counter()
    for M, rows in cases:
        degrees = [j for _, j in rows]
        for hom_bound in (2, 3, 5):
            for deg_bound in range(min(degrees) - 3, max(degrees) + 4):
                try:
                    hilbert_data(M, deg_bound)
                except StabilizationError:
                    assert min_free_resolution(M, deg_bound, hom_bound).truncated_rows, (rows, deg_bound, hom_bound)
                    seen["below flat"] += 1
                else:
                    seen["from flat on"] += 1
    assert min(seen.values()) > 500, seen


# -- Hilbert data ---------------------------------------------------------------


def test_hilbert_of_builtins():
    assert hilbert_data(builtin("B"), 8) == hilbert_data(builtin("B"), 12)
    hd = hilbert_data(builtin("B"), 8)
    assert (hd.offset, hd.numerator, hd.e) == (0, (1, 2), 3)
    hd = hilbert_data(builtin("omega"), 8)
    assert (hd.offset, hd.numerator, hd.e) == (0, (2, 1), 3)
    hd = hilbert_data(builtin("M1"), 8)
    assert (hd.offset, hd.numerator, hd.e) == (0, (1, 1), 2)
    hd = hilbert_data(builtin("M12"), 8)
    assert (hd.offset, hd.numerator, hd.e) == (0, (1,), 1)
    hd = hilbert_data(builtin("k_residue"), 8)
    assert (hd.offset, hd.numerator, hd.e) == (0, (1, -1), 0)


def test_hilbert_counts_by_hand():
    # B/(x^2): 1, then x, y, z, then y^d, z^d forever
    hd = hilbert_data(quotient_module(["x^2"]), 8)
    assert hd.offset == 0
    assert hd.numerator == (1, 2, -1)
    assert hd.e == 2


def test_hilbert_numerator_sums_to_e():
    for gens in (["x^2"], ["x^4", "y^2"], ["x^2", "y^3", "z^4"]):
        hd = hilbert_data(quotient_module(gens), 12)
        assert sum(hd.numerator) == hd.e


def test_hilbert_stabilization_guard():
    with pytest.raises(StabilizationError):
        hilbert_data(quotient_module(["x^2"]), 2)
    with pytest.raises(StabilizationError):
        hilbert_data(builtin("B"), 0)
    # B is flat from degree 1 on: its dimensions are 1, 3, 3, ...
    hd = hilbert_data(builtin("B"), 1)
    assert (hd.offset, hd.numerator, hd.e) == (0, (1, 2), 3)


def test_hilbert_needs_one_past_the_top_relation_degree():
    # the dimensions of B/(x^5) are 1, 3, 3, 3, 3 up to degree 4 and 2 from
    # degree 5 on, so no window ending below 5 can tell e; the proof of
    # flatness starts at 6, one past the top relation degree
    with pytest.raises(StabilizationError, match="below 6"):
        hilbert_data(quotient_module(["x^5"]), 4)
    with pytest.raises(StabilizationError):
        hilbert_data(quotient_module(["x^5"]), 5)
    assert hilbert_data(quotient_module(["x^5"]), 6).e == 2
    # B/(x^2) is 1, 3, 2, 2, ...: flat from degree 3 on, so 3 is enough
    hd = hilbert_data(quotient_module(["x^2"]), 3)
    assert hd == hilbert_data(quotient_module(["x^2"]), 8)
    assert hd.e == 2


def test_relation_walk_visits_each_degree_and_relation_once():
    # 2,000 relations spread over 10,000 degrees.  The module takes its
    # relation walk when it is built, so the clock starts before that.
    start = time.perf_counter()
    M = GradedModuleB((0,), tuple((BPolynomial.monomial("xyz"[k % 3], k),) for k in range(8001, 10001)))
    res = min_free_resolution(M, 10 ** 9, 3)
    assert time.perf_counter() - start < 0.25
    start = time.perf_counter()
    hd = hilbert_data(M, 10 ** 9)
    assert time.perf_counter() - start < 0.25
    # only x^8001, y^8002 and z^8003 are minimal; the span ends at degree 8003
    assert dict(res.betti.items()) == {(0, 0): 1, **{(i, 8000 + i + n): 2 ** (i - 1) for i in (1, 2, 3)
                                                      for n in range(3)}}
    assert hd.e == 0 and hd.numerator[:2] == (1, 2) and hd.numerator[-3:] == (-1, -1, -1)
    assert len(hd.numerator) == 8004


@pytest.mark.parametrize("M", [
    quotient_module(["x^2", "y^3", "z^4"]),
    quotient_module(["x^3", "y"], QQ),
    builtin("omega"),
    builtin("omega", QQ),
], ids=["monomial", "monomial-qq", "omega", "omega-qq"])
def test_relation_walk_adds_no_zero_vector(M, monkeypatch):
    # each relation of these modules is zero in two branch blocks of three,
    # and a zero vector never grows a span, so the walk skips those blocks.
    # It visits the relation degrees alone, and the rows it gives fix the
    # Hilbert function that a fresh tracker in every degree counts
    added = []

    class Recording(SpanTracker):
        def add(self, vec):
            added.append(list(vec))
            return super().add(vec)

    monkeypatch.setattr(resolve_module, "SpanTracker", Recording)
    walk = list(resolve_module._relation_walk(M))
    assert added and all(any(vec) for vec in added)
    assert [d for d, _, _ in walk] == sorted(set(M.relation_degrees()))
    flat = max(M.gen_degrees + M.relation_degrees()) + 1
    assert hilbert_data(M, flat) == every_degree_hilbert(M, flat)


@pytest.mark.parametrize("M, minimal", [
    (GradedModuleB((0,), ((X,), (X ** 2,))), 1),
    (GradedModuleB((0,), ((X,), (X ** 2,)), QQ), 1),
    (GradedModuleB((0,), ((X + Y,), (2 * X,), (X ** 2 + 2 * Y ** 2,), (Z ** 3,))), 3),
    (quotient_module(["x^2", "y^3", "z^4"]), 3),
    (builtin("omega", QQ), 3),
    (scrambled_sum([(DegreeSequence.two_step(0, 2), 2), (DegreeSequence.tail(1, 2), 1)], QQ, random.Random(3)), 5),
], ids=["x-then-x2", "x-then-x2-qq", "non-minimal-mix", "monomial", "omega-qq", "scrambled"])
def test_relation_walk_eliminates_only_through_add(M, minimal, monkeypatch):
    # every question the walk asks is whether a vector grows a span, asked
    # by add: once per relation row, and once per nonzero branch block of a
    # minimal relation.  A relation in the span of lower ones, as x^2 is in
    # that of x, still takes its one add
    added = []

    class Recording(SpanTracker):
        def add(self, vec):
            added.append(list(vec))
            return super().add(vec)

    monkeypatch.setattr(resolve_module, "SpanTracker", Recording)
    born = [row for _, rows, _ in resolve_module._relation_walk(M) for row in rows]
    r = len(M.gen_degrees)
    blocks = sum(any(row[at:at + r]) for row in born for at in range(0, 3 * r, r))
    assert len(born) == minimal
    assert len(added) == len(M.relations) + blocks


def test_library_calls_read_the_walk_taken_at_construction(monkeypatch):
    # the relation walk builds every span tracker resolve.py builds, and a
    # module takes it once, when it is built: one for the blocks and one per
    # degree that holds relations, however far apart those degrees lie
    modules = [builtin("omega"), builtin("omega", QQ), builtin("B"), quotient_module(["x^5"]),
               GradedModuleB((0, 1), ((X ** 2, BPolynomial.zero()), (BPolynomial.zero(), Y ** 3)))]
    built = []

    class Counting(SpanTracker):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(resolve_module, "SpanTracker", Counting)
    for M in modules:
        min_free_resolution(M, 9, 4)
        hilbert_data(M, 9)
        top = max(M.gen_degrees + M.relation_degrees())  # no relation of these five is redundant
        with pytest.raises(StabilizationError):
            hilbert_data(M, top)
    assert built == []
    quotient_module(["x^5"])
    assert len(built) == 2
    built.clear()
    M = GradedModuleB((0,), ((X,), (Y ** 5000,), (Z ** 10000,)))
    assert len(built) == 1 + 3
    min_free_resolution(M, 10 ** 4 + 3, 3)
    hilbert_data(M, 10 ** 4 + 1)
    assert len(built) == 1 + 3


def test_large_linear_presentation_stays_fast():
    # 40 degree 0 generators and 80 random linear relations, all minimal: the
    # degree 1 blocks fill all 120 branch coordinates in degree 2, so 120 of
    # the 240 are step 2 generators and the module vanishes from degree 2 on
    rng = random.Random(7)
    rows = tuple(tuple(BPolynomial({(v, 1): rng.randint(-5, 5) for v in "xyz"}) for _ in range(40))
                 for _ in range(80))
    start = time.perf_counter()
    for field in (FP_DEFAULT, QQ):
        M = GradedModuleB((0,) * 40, rows, field)
        res = min_free_resolution(M, 8, 5)
        assert dict(res.betti.items()) == {(0, 0): 40, (1, 1): 80, (2, 2): 120, (3, 3): 240, (4, 4): 480,
                                           (5, 5): 960}
        assert hilbert_data(M, 8) == HilbertData(0, (40, 0, -40), 0)
    assert time.perf_counter() - start < 1.5


def test_hilbert_count_matches_every_degree_oracle_on_many_generators():
    # 120 generators over 1,200 degrees, some sharing a degree, most degrees
    # holding none; relations on a middle, a shared and the top generators
    gens = tuple(k * k % 1200 for k in range(120))
    top = gens.index(max(gens))
    middle = min(range(len(gens)), key=lambda k: abs(gens[k] - 600))
    shared = next(k for k, a in enumerate(gens) if gens.count(a) > 1 and a > 0)
    rows = []
    for k, poly in ((middle, "x^3"), (middle, "y^2 - 2*z^2"), (shared, "z^4"), (top, "x + y"), (top, "y^2")):
        rows.append(tuple(parse_poly(poly) if n == k else BPolynomial.zero() for n in range(len(gens))))
    for field in (QQ, FP_DEFAULT):
        M = GradedModuleB(gens, tuple(rows), field)
        flat = max(gens + M.relation_degrees()) + 1
        assert flat - min(gens) > 1000 and len(set(gens)) < len(gens)
        assert hilbert_data(M, flat) == every_degree_hilbert(M, flat)


def test_hilbert_count_is_linear_in_generators_plus_degrees():
    # 400 generators over 8,000 degrees: one pass over the 400 entries of
    # rows 0..2 and the numerator takes about 0.2 ms on a 2-vCPU Xeon, where
    # a sum over the generators at every degree of the walk took about 0.37 s
    M = GradedModuleB(tuple(20 * k for k in range(400)), (), FP_DEFAULT)
    start = time.perf_counter()
    hd = hilbert_data(M, 8000)
    assert time.perf_counter() - start < 0.1
    # each generator adds 1 in its own degree and 2 more one degree up
    assert hd == HilbertData(0, ((1, 2) + (0,) * 18) * 399 + (1, 2), 3 * 400)


def test_finite_length_witnesses_have_e_zero():
    for d1 in (1, 2, 3):
        hd = hilbert_data(quotient_module([f"(x+y+z)^{d1}"], field=QQ), d1 + 6)
        assert hd.e == 0


@pytest.mark.parametrize("field", [QQ, FP_DEFAULT], ids=["QQ", "F32003"])
def test_rows_and_hilbert_data_match_the_every_degree_oracles_on_scrambled_sums(field):
    # sums of 1-8 pure diagram witnesses, larger than small_modules draws:
    # up to 16 generators, mixed by the automorphism, with up to 48 relations
    rng = random.Random(3200)
    for _ in range(60):
        terms = [(rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + e),
                              DegreeSequence.tail(d0, d0 + e))), rng.randint(1, 2))
                 for d0, e in ((rng.randint(0, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 8)))]
        M = scrambled_sum(terms, field, rng)
        flat = max(M.gen_degrees + M.relation_degrees()) + 1
        assert hilbert_data(M, flat) == every_degree_hilbert(M, flat), terms
        # row 1 ends below flat and row 2 at flat, so this window holds them whole
        betti, _, _ = every_degree_resolution(M, flat, 2)
        assert M._rows == BettiTable(betti), terms


@pytest.mark.parametrize("field", ["qq", "fp"])
@pytest.mark.parametrize("rels, born", [
    (("x", "x^2"), 1),
    (("x + y", "2*x", "x^2 + 2*y^2", "z^3"), 3),
], ids=["x-then-x2", "non-minimal-mix"])
def test_the_cli_takes_the_rejecting_path_of_the_walk(capsys, monkeypatch, field, rels, born):
    # a relation that does not grow the copy of W is no minimal generator:
    # x^2 lies in the span of x's blocks, and x^2 + 2*y^2 in that of x + y
    text = "gens 0\n" + "".join(f"rel {rel}\n" for rel in rels)

    def cli(*argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = run([*argv, "--field", field])
        return code, capsys.readouterr().out

    M = GradedModuleB((0,), tuple((parse_poly(rel),) for rel in rels), QQ if field == "qq" else FP_DEFAULT)
    flat = max(M.relation_degrees()) + 1
    code, out = cli("resolve", "-", "--deg-bound", str(flat + 3), "--hom-bound", "3")
    betti, _, _ = every_degree_resolution(M, flat + 3, 3)
    assert code == 0 and sum(v for (i, _), v in betti.items() if i == 1) == born < len(rels)
    assert dict(parse_table_text(out).items()) == betti
    code, out = cli("hilbert", "-", "--deg-bound", str(flat))
    hd = every_degree_hilbert(M, flat)
    assert (code, out) == (0, f"offset: {hd.offset}\nnumerator: {' '.join(map(str, hd.numerator))}\ne: {hd.e}\n")


# -- redundant relations ----------------------------------------------------------


def seeded_presentation(rng, field):
    """1-3 generators in degrees 0-2 and up to 5 random relations, each 1-3
    degrees above the lowest generator; some may be redundant already."""
    gens = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
    rows = []
    for _ in range(rng.randint(1, 5)):
        rdeg = min(gens) + rng.randint(1, 3)
        row = tuple(BPolynomial({(v, rdeg - a): rng.randint(-3, 3) for v in "xyz"}) if rdeg > a
                    else BPolynomial.zero() for a in gens)
        if any(not p.is_zero for p in row):
            rows.append(row)
    return GradedModuleB(gens, tuple(rows), field)


def with_redundant_relations(M, rng):
    """M with relations added that lie in the submodule its own relations
    generate: a copy of one, v^k times one for k >= 1, and the sum of two of
    one degree, each put at a random place (a zero row is left out)."""
    rows, degrees = list(M.relations), M.relation_degrees()
    i = rng.randrange(len(rows))
    j = rng.choice([k for k, d in enumerate(degrees) if d == degrees[i]])
    power = BPolynomial.monomial(rng.choice("xyz"), rng.randint(1, 6))
    for extra in (rng.choice(M.relations), tuple(p * power for p in rng.choice(M.relations)),
                  tuple(p + q for p, q in zip(M.relations[i], M.relations[j]))):
        if any(not p.is_zero for p in extra):
            rows.insert(rng.randint(0, len(rows)), extra)
    return GradedModuleB(M.gen_degrees, tuple(rows), M.field)


def window_outputs(M, top):
    """min_free_resolution at every window from deg_bound one below the
    least generator degree, which cuts row 0, up to top + 2, and
    hilbert_data, or the StabilizationError type, at every bound up to top + 2."""
    outputs = []
    for hom in (2, 3, 4):
        for deg_bound in range(min(M.gen_degrees) - 1, top + 3):
            res = min_free_resolution(M, deg_bound, hom)
            outputs.append((res.betti, res.truncated_rows))
    for deg_bound in range(min(M.gen_degrees) - 1, top + 3):
        try:
            outputs.append(hilbert_data(M, deg_bound))
        except StabilizationError:
            outputs.append(StabilizationError)
    return outputs


@pytest.mark.parametrize("field", [QQ, FP_DEFAULT, PrimeField(7)], ids=["QQ", "F32003", "F7"])
def test_redundant_relations_change_no_window(field):
    # the windows read the minimal relations alone, so a relation the others
    # generate moves neither a table, nor a truncated row, nor the bound
    # from which hilbert_data answers
    rng = random.Random(3300)
    modules = []
    for _ in range(20):
        terms = [(rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + e),
                              DegreeSequence.tail(d0, d0 + e))), rng.randint(1, 2))
                 for d0, e in ((rng.randint(0, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))]
        modules.append(scrambled_sum(terms, field, rng))
    modules += [seeded_presentation(rng, field) for _ in range(40)]
    raised = 0
    for M in modules:
        if not M.relations:
            continue
        fat = with_redundant_relations(M, rng)
        top = max(fat.gen_degrees + fat.relation_degrees())
        lean_outputs = window_outputs(M, top)
        assert window_outputs(fat, top) == lean_outputs, (M, fat)
        raised += lean_outputs.count(StabilizationError)
    assert raised > 100


def test_a_redundant_relation_past_the_window_is_no_cut(capsys, monkeypatch):
    # x^5 lies in (x), so B/(x, x^5) is B/(x): flat from degree 2 on
    def cli(*argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("gens 0\nrel x\nrel x^5\n"))
        code = run(list(argv))
        return code, capsys.readouterr().out

    assert cli("resolve", "-", "--deg-bound", "4", "--hom-bound", "2") == (0, (
        "betti v1\nmode explicit\nentry 0 0 1\nentry 1 1 1\nentry 2 2 2\n"
        "tail_consistent: yes\ntruncated_rows: none\ngamma_inf: 2\ne: 2\n"))
    assert cli("hilbert", "-", "--deg-bound", "2") == (0, "offset: 0\nnumerator: 1 1\ne: 2\n")


# -- multiplicity identities -----------------------------------------------------


class BoundsError(RuntimeError):
    """Bounds too small to certify the rows a computation depends on."""


def syzygy_multiplicity(betti):
    """Multiplicity of the first syzygy module read off a Betti table, namely
    3 * (sum of row 1) - (sum of row 2)."""
    return 3 * row_sum(betti, 1) - row_sum(betti, 2)


def mult_identity_check(M, deg_bound, hom_bound):
    """Whether gamma_inf of the resolved table equals the multiplicity e from
    the Hilbert function.  This holds by construction: hilbert_data reads e
    off the module's rows 0..2 as their gamma_inf.  every_degree_hilbert here
    and monomial_hilbert in the bench's oracle judge e on their own."""
    res = min_free_resolution(M, deg_bound, hom_bound)
    low_truncated = [i for i in res.truncated_rows if i <= 2]
    if low_truncated:
        raise BoundsError(f"rows {low_truncated} not complete within deg_bound {deg_bound}")
    return functional_value(Functional.gamma_inf(), res.betti) == hilbert_data(M, deg_bound).e


def test_mult_identity_on_builtins():
    for name in BUILTIN_NAMES:
        assert mult_identity_check(builtin(name), deg_bound=9, hom_bound=4), name


def test_mult_identity_requires_complete_low_rows():
    with pytest.raises(BoundsError):
        mult_identity_check(quotient_module(["x^5", "y^5", "z^5"]), deg_bound=6, hom_bound=4)


def test_syzygy_multiplicity_reads_rows_one_and_two():
    t = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 6})
    assert syzygy_multiplicity(t) == 3 * 3 - 6
    # and via the doubling identity it equals the multiplicity of the cokernel
    # of the first map for the unit tail: 3*3 - 6 = 3 = e(B)
    assert syzygy_multiplicity(t) == 3


def test_resolution_agrees_between_fields():
    for gens in (["x^2", "y^3"], ["(x+y+z)^2"], ["x^3", "z^3"]):
        over_q = min_free_resolution(quotient_module(gens, field=QQ), 10, 4)
        over_p = min_free_resolution(quotient_module(gens), 10, 4)
        assert over_q.betti == over_p.betti


def test_rational_coefficients_resolve_like_their_integer_scaling():
    # a relation row and its multiple by a unit span the same module
    for field in (QQ, FP_DEFAULT):
        pairs = [
            (quotient_module(["1/2*x + 1/3*y"], field), quotient_module(["3*x + 2*y"], field)),
            (GradedModuleB((0, 0), [(parse_poly("1/2*x + 1/3*y"), parse_poly("2/5*z"))], field),
             GradedModuleB((0, 0), [(parse_poly("15*x + 10*y"), parse_poly("12*z"))], field)),
        ]
        for rational, scaled in pairs:
            assert min_free_resolution(rational, 10, 5).betti == min_free_resolution(scaled, 10, 5).betti
            assert hilbert_data(rational, 10) == hilbert_data(scaled, 10)
