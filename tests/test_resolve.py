"""Ring elements, module presentations, resolutions, and Hilbert data."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (
    FP_DEFAULT,
    QQ,
    BPolynomial,
    BoundsError,
    GradedModuleB,
    StabilizationError,
    BettiTable,
    builtin,
    check_finite_length,
    check_graded,
    collapse_tail,
    hilbert_data,
    min_free_resolution,
    mult_identity_check,
    parse_poly,
    quotient_module,
    syzygy_multiplicity,
    syzygy_of_indecomposable,
)
from betticone.resolve import BUILTIN_NAMES, PolyParseError
from betticone.tables import INDECOMPOSABLE_NAMES

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
    assert parse_poly("-x + 2*z") == -X + 2 * Z
    assert parse_poly("3") == BPolynomial.constant(3)
    assert parse_poly("0").is_zero


@pytest.mark.parametrize("bad", ["x/2", "2x", "w", "x^-1", "", "x +", "(x", "1/0"])
def test_parse_poly_rejects(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


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
    with pytest.raises(ValueError, match="deg_bound"):
        min_free_resolution(M, deg_bound=3, hom_bound=4)


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


def test_resolved_tables_live_in_the_cone():
    for gens in (["x^2"], ["x^3", "y^2"], ["x^2", "y^2", "z^2"], ["(x+y+z)^2"]):
        res = min_free_resolution(quotient_module(gens), deg_bound=12, hom_bound=4)
        assert res.truncated_rows == ()
        assert check_graded(res.betti).member, gens


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
    with pytest.raises(ValueError, match="deg_bound"):
        hilbert_data(builtin("B"), 1)


def test_finite_length_witnesses_have_e_zero():
    for d1 in (1, 2, 3):
        hd = hilbert_data(quotient_module([f"(x+y+z)^{d1}"], field=QQ), d1 + 6)
        assert hd.e == 0


# -- multiplicity identities -----------------------------------------------------


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
