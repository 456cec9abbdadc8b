"""Membership scans, greedy decomposition, and the local cone."""

import random
import time
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betticone import (
    EXPLICIT,
    FP_DEFAULT,
    QQ,
    BettiSequence,
    BettiTable,
    DecompositionLoopError,
    DegreeSequence,
    Functional,
    LocalDecomposition,
    NotInConeError,
    check_finite_length,
    check_graded,
    check_local,
    collapse_tail,
    decompose,
    decompose_local,
    degseq_leq,
    expand_tail,
    make_pure_diagram,
    min_free_resolution,
)
from betticone import cone
from betticone.tables import MAX_COEFFICIENT_BITS, _cone_functionals
from oracles import broken_doubling, combine, functional_value, scrambled_sum

OMEGA_TABLE = BettiTable({(0, 0): 2, (1, 1): 3, (2, 2): 6})


def combo(*terms) -> BettiTable:
    total = {}
    for d, c in terms:
        total = combine(1, total, c, make_pure_diagram(d))
    return BettiTable(total)


bounded_sequences = st.one_of(
    st.tuples(st.integers(-5, 6), st.integers(1, 4)).map(
        lambda t: DegreeSequence.two_step(t[0], t[0] + t[1])
    ),
    st.tuples(st.integers(-5, 6), st.integers(1, 4)).map(
        lambda t: DegreeSequence.tail(t[0], t[0] + t[1])
    ),
)

degree_sequences = st.one_of(st.integers(-5, 8).map(DegreeSequence.free), bounded_sequences)


def combinations_of(sequences):
    coefficients = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
    return st.lists(st.tuples(sequences, coefficients), min_size=0, max_size=4).map(
        lambda terms: combo(*terms)
    )


cone_points = combinations_of(degree_sequences)


# -- membership --------------------------------------------------------------


def test_zero_table_is_a_member_with_empty_decomposition():
    verdict = check_graded(BettiTable({}))
    assert verdict.member
    assert verdict.decomposition.terms == ()
    assert verdict.violation is None


def test_pure_diagrams_are_members():
    for d in (DegreeSequence.free(0), DegreeSequence.two_step(-1, 2), DegreeSequence.tail(0, 3)):
        verdict = check_graded(make_pure_diagram(d))
        assert verdict.member, d


def test_negative_entry_reports_epsilon():
    verdict = check_graded(BettiTable({(0, 0): -1}))
    assert not verdict.member
    assert verdict.violation.label == "epsilon(0,0)"
    assert verdict.violation.value == -1


def test_row_two_alone_reports_alpha():
    verdict = check_graded(BettiTable({(2, 1): 1}))
    assert not verdict.member
    assert verdict.violation.label == "alpha(0)"
    assert verdict.violation.value == -1


def test_row_one_alone_reports_gamma():
    verdict = check_graded(BettiTable({(1, 1): 1}))
    assert not verdict.member
    assert verdict.violation.label == "gamma(0)"
    assert verdict.violation.value == -3


def test_alpha_scan_precedes_gamma():
    # both families are violated here; alpha(0) must be the certificate
    verdict = check_graded(BettiTable({(1, 0): 2, (2, 1): 5}))
    assert not verdict.member
    assert verdict.violation.label == "alpha(0)"


def test_doubling_scan_comes_first_in_explicit_mode():
    bad = BettiTable({(0, 0): -1, (2, 2): 6, (3, 3): 11}, tail_mode=EXPLICIT)
    verdict = check_graded(bad)
    assert not verdict.member
    assert verdict.violation.label == "doubling_eq(2,2)"
    assert verdict.violation.value == 2 * 6 - 11


def test_explicit_window_of_member_is_member():
    window = expand_tail(OMEGA_TABLE, max_row=5)
    assert check_graded(window).member


def test_finite_length_requires_gamma_inf_zero():
    verdict = check_finite_length(OMEGA_TABLE)
    assert not verdict.member
    assert verdict.violation.label == "gamma_inf"
    assert verdict.violation.value == 3
    tail = make_pure_diagram(DegreeSequence.tail(0, 2))
    assert check_finite_length(tail).member


@given(cone_points)
@settings(max_examples=100, deadline=None)
def test_members_pass_and_round_trip(v):
    verdict = check_graded(v)
    assert verdict.member
    assert verdict.decomposition.recombine() == v


def test_check_scans_a_member_once(monkeypatch):
    calls = []
    scan = cone._first_violation

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cone, "_first_violation", counted)
    assert check_graded(OMEGA_TABLE).member
    assert len(calls) == 1
    assert check_finite_length(make_pure_diagram(DegreeSequence.tail(0, 2))).member
    assert len(calls) == 2


def test_members_spread_over_a_million_degrees_decompose_exactly():
    far = 10**6
    verdict = check_graded(BettiTable({(0, 0): 2, (1, far): 1, (0, 2 * far): 5}))
    assert verdict.member
    assert verdict.decomposition.terms == (
        (DegreeSequence.two_step(0, far), Fraction(1)),
        (DegreeSequence.free(0), Fraction(1)),
        (DegreeSequence.free(2 * far), Fraction(5)),
    )


# -- the greedy rounds against a reference that rebuilds the residual ---------
#
# reference_greedy is the greedy as it was written on whole tables: each round
# sorts rows 0 and 1 for the pivot and rebuilds the residual as a new table.
# cone._greedy must give the same terms, coefficient for coefficient, and so
# must any later decomposition that replaces it.


def row_degrees(v, i):
    """Degrees j with a stored nonzero entry in row i, sorted."""
    return tuple(sorted(j for (r, j) in v._entries if r == i))


def reference_pivot(v: BettiTable) -> DegreeSequence:
    row0 = row_degrees(v, 0)
    row1 = row_degrees(v, 1)
    # For a cone member with row 1 mass, row 0 must start strictly below it
    # (gamma at d1 - 1 forces it), so the pivot below is always well formed.
    if not row0:
        raise AssertionError(f"cone member without row 0 mass: {v!r}")
    d0 = row0[0]
    if not row1:
        return DegreeSequence.free(d0)
    d1 = row1[0]
    if v.entry(2, d1 + 1) != 0:
        return DegreeSequence.tail(d0, d1)
    return DegreeSequence.two_step(d0, d1)


def reference_max_step(v: BettiTable, pi: BettiTable) -> Fraction:
    """Largest c with v - c*pi still in the cone, by an exact ratio test over
    every functional that is positive on pi."""
    best = min(Fraction(v.entry(i, j), pval) for (i, j), pval in pi._entries.items())
    _, alphas, _, gammas, gamma_inf = _cone_functionals(v._entries.items(), pi._entries.items())
    for val, pval in [*zip(*alphas), *zip(*gammas), gamma_inf]:
        if pval > 0 and Fraction(val, pval) < best:
            best = Fraction(val, pval)
    return best


def reference_greedy(v: BettiTable) -> cone.Decomposition:
    """The rounds of decompose, for the rows 0..2 (a canonical table) of a
    table already known to be a member."""
    cap = 3 * len(v.support()) + 3
    terms: list[tuple[DegreeSequence, Fraction]] = []
    for _ in range(cap):
        if v.is_zero:
            return cone.Decomposition(tuple(terms))
        d = reference_pivot(v)
        pi = make_pure_diagram(d)
        c = reference_max_step(v, pi)
        if c <= 0:
            raise DecompositionLoopError(v, tuple(terms))
        terms.append((d, c))
        v = BettiTable(combine(1, v, -c, pi))
    if v.is_zero:
        return cone.Decomposition(tuple(terms))
    raise DecompositionLoopError(v, tuple(terms))


def spread_sequences(lo, hi, gap):
    """Degree sequences of all three shapes with d0 in [lo, hi] and d1 - d0 in [1, gap]."""
    return st.one_of(
        st.integers(lo, hi).map(DegreeSequence.free),
        st.tuples(st.integers(lo, hi), st.integers(1, gap)).map(
            lambda t: DegreeSequence.two_step(t[0], t[0] + t[1])
        ),
        st.tuples(st.integers(lo, hi), st.integers(1, gap)).map(
            lambda t: DegreeSequence.tail(t[0], t[0] + t[1])
        ),
    )


many_term_members = st.lists(
    st.tuples(spread_sequences(-30, 30, 8), st.fractions(min_value=Fraction(1, 6), max_value=9, max_denominator=6)),
    min_size=1,
    max_size=60,
).map(lambda terms: combo(*terms))
far_members = st.lists(
    st.tuples(spread_sequences(-(10**6), 10**6, 10**6), st.integers(1, 5)), min_size=1, max_size=8
).map(lambda terms: combo(*terms))
int_members = st.lists(
    st.tuples(spread_sequences(-30, 30, 8), st.integers(1, 9)), min_size=1, max_size=60
).map(lambda terms: combo(*terms))


def over_a_prime(v: BettiTable) -> BettiTable:
    """v / 10007: every entry of an int member below 10007 becomes a proper Fraction."""
    return BettiTable({ij: Fraction(x, 10007) for ij, x in v.items()})


def resolved_sum(seed: int) -> BettiTable:
    """The window min_free_resolution reports, all ints, for a scrambled sum
    of 2-8 pure diagram witnesses, d0 in [0, 4] and d1 - d0 in [1, 3]: row 3
    ends by degree 9, inside the degree bound, so the window is a member."""
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(2, 8)):
        d0, e = rng.randint(0, 4), rng.randint(1, 3)
        shapes = (DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + e), DegreeSequence.tail(d0, d0 + e))
        terms.append((rng.choice(shapes), rng.randint(1, 2)))
    M = scrambled_sum(terms, rng.choice((QQ, FP_DEFAULT)), rng)
    return min_free_resolution(M, deg_bound=10, hom_bound=3).betti


# int-only (int_members, far_members, resolved sums), Fraction-only (over_a_prime)
# and mixed (cone_points, many_term_members) entries
greedy_inputs = st.one_of(
    cone_points,
    st.tuples(cone_points, st.integers(2, 6)).map(lambda t: expand_tail(t[0], max_row=t[1])),
    many_term_members,
    far_members,
    int_members,
    int_members.map(over_a_prime),
    st.integers(0, 10**6).map(resolved_sum),
)


@given(greedy_inputs)
@example(OMEGA_TABLE)
@example(over_a_prime(OMEGA_TABLE))
@example(BettiTable({(0, 0): Fraction(1, 2), (0, 1): 2, (1, 2): Fraction(3, 2)}))
@settings(max_examples=150, deadline=None)
def test_greedy_matches_the_reference_greedy(v):
    expected = reference_greedy(collapse_tail(v)).terms
    for terms in (decompose(v).terms, check_graded(v).decomposition.terms):
        assert terms == expected
        assert all(type(d) is DegreeSequence and type(c) is Fraction for d, c in terms)


@given(greedy_inputs)
@settings(max_examples=100, deadline=None)
def test_each_pure_diagram_lies_in_the_support_of_its_residual(v):
    # so the support never grows, and every round zeroes at least one entry
    residual = collapse_tail(v)
    terms = decompose(v).terms
    assert len(terms) <= len(residual.support())
    for d, c in terms:
        pi = make_pure_diagram(d)
        assert set(pi.support()) <= set(residual.support()), (d, residual)
        residual = BettiTable(combine(1, residual, -c, pi))
    assert residual.is_zero


def test_each_greedy_step_is_the_entry_bound(monkeypatch):
    # the argument in cone._max_step's docstring: no cone functional binds
    # below min v[ij] / pi[ij] on the pivot the greedy picks
    steps = []
    ratio_test = cone._max_step

    def recorded(v, pi):
        c = ratio_test(v, pi)
        steps.append((c, min(Fraction(v[ij], pval) for ij, pval in pi.items())))
        return c

    monkeypatch.setattr(cone, "_max_step", recorded)
    rng = random.Random(2026)
    for _ in range(80):
        terms = []
        for _ in range(rng.randint(1, 60)):
            d0, gap = rng.randint(-50, 50), rng.randint(1, 40)
            d = rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + gap),
                            DegreeSequence.tail(d0, d0 + gap)))
            terms.append((d, Fraction(rng.randint(1, 12), rng.randint(1, 6))))
        assert check_graded(combo(*terms)).member
    assert len(steps) > 2000
    assert [c for c, _ in steps] == [bound for _, bound in steps]


def test_a_greedy_without_progress_raises_with_the_residual(monkeypatch):
    monkeypatch.setattr(cone, "_max_step", lambda v, pi: Fraction(0))
    with pytest.raises(DecompositionLoopError, match=r"^no progress after 0 subtractions; ") as exc:
        decompose(OMEGA_TABLE)
    assert exc.value.residual == OMEGA_TABLE
    assert exc.value.terms == ()


# -- the breakpoint scan against a walk over every degree of the span ----------


def full_span_functionals(v):
    """alpha_k and gamma_k at every k of the span of v, in scan order."""
    lo, hi = v.min_degree, v.max_degree
    alphas = [Functional.alpha(k) for k in range(lo - 1, hi + 2)]
    return alphas + [Functional.gamma(k) for k in range(lo - 2, hi + 1)]


def full_span_violation(v, finite_length):
    """(label, value) of the first violated functional, or None."""
    broken = broken_doubling(v) if v.tail_mode == EXPLICIT else None
    if broken is not None:
        i, j, val = broken
        return Functional.doubling_eq(i, j).label(), val
    for (i, j), val in v.items():
        if val < 0:
            return f"epsilon({i},{j})", val
    if not v.is_zero:
        for f in full_span_functionals(v):
            val = functional_value(f, v)
            if val < 0:
                return f.label(), val
    if finite_length:
        total = functional_value(Functional.gamma_inf(), v)
        if total != 0:
            return "gamma_inf", total
    return None


def full_span_decomposition(v):
    """Greedy terms, with the ratio test taken over every degree of the span."""
    v = collapse_tail(v)
    terms = []
    for _ in range(3 * len(v.support()) + 3):
        if v.is_zero:
            break
        d = reference_pivot(v)
        pi = make_pure_diagram(d)
        entries = [Functional.epsilon(i, j) for (i, j) in pi.support()]
        c = min(
            Fraction(functional_value(f, v), functional_value(f, pi))
            for f in entries + full_span_functionals(v)
            if functional_value(f, pi) > 0
        )
        terms.append((d, c))
        v = BettiTable(combine(1, v, -c, pi))
    assert v.is_zero
    return tuple(terms)


small_values = st.fractions(min_value=-2, max_value=6, max_denominator=3)
canonical_tables = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-4, 6)), small_values, max_size=6
).map(BettiTable)
explicit_tables = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(-4, 6)), small_values, max_size=6
).map(lambda entries: BettiTable(entries, tail_mode=EXPLICIT))
perturbed_members = st.tuples(
    cone_points,
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-6, 10)),
                    st.fractions(min_value=-1, max_value=1, max_denominator=4), max_size=1),
).map(lambda t: BettiTable(combine(1, t[0], 1, t[1])))
explicit_windows = st.tuples(cone_points, st.integers(2, 5)).map(
    lambda t: expand_tail(t[0], max_row=t[1])
)
scan_inputs = st.one_of(
    cone_points,
    combinations_of(bounded_sequences),
    perturbed_members,
    canonical_tables,
    explicit_tables,
    explicit_windows,
)


@given(scan_inputs, st.booleans())
@settings(max_examples=300, deadline=None)
def test_breakpoint_scan_matches_full_span_scan(v, finite_length):
    verdict = (check_finite_length if finite_length else check_graded)(v)
    expected = full_span_violation(v, finite_length)
    if expected is None:
        assert verdict.member
        assert verdict.decomposition.terms == full_span_decomposition(v)
    else:
        assert not verdict.member
        assert (verdict.violation.label, verdict.violation.value) == expected


# -- the int scan against the same walk, and its Fraction fallback ---------------


fine_values = st.fractions(min_value=-2, max_value=6, max_denominator=50)
fine_members = st.lists(
    st.tuples(degree_sequences, st.fractions(min_value=Fraction(1, 50), max_value=6, max_denominator=50)),
    max_size=4,
).map(lambda terms: combo(*terms))
fine_scan_inputs = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-4, 6)), fine_values, max_size=8).map(BettiTable),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(-4, 6)), fine_values, max_size=8).map(
        lambda entries: BettiTable(entries, tail_mode=EXPLICIT)
    ),
    fine_members,
    st.tuples(fine_members, st.integers(2, 5)).map(lambda t: expand_tail(t[0], max_row=t[1])),
    st.tuples(
        fine_members,
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-6, 10)),
                        st.fractions(min_value=-1, max_value=1, max_denominator=50), max_size=2),
    ).map(lambda t: BettiTable(combine(1, t[0], 1, t[1]))),
)


@given(fine_scan_inputs, st.booleans())
@settings(max_examples=300, deadline=None)
def test_int_scan_matches_full_span_scan(v, finite_length):
    viol = cone._first_violation(v, finite_length)
    expected = full_span_violation(v, finite_length)
    if expected is None:
        assert viol is None
    else:
        assert (viol.label, viol.value) == expected
        assert type(viol.value) is Fraction


def bench_member(rng, n_terms, base):
    """A member shaped like the benchmark's dense ones: n_terms pure diagrams
    cycling through the three shapes, d0 over a range half as wide as the
    term count, d1 - d0 in 1..3, and coefficients a/b, a <= 8, b <= 4."""
    width = max(4, n_terms // 2)
    terms = []
    for k in range(n_terms):
        d0, d1 = base + k % width, base + k % width + 1 + k // 3 % 3
        d = (DegreeSequence.free(d0), DegreeSequence.two_step(d0, d1), DegreeSequence.tail(d0, d1))[k % 3]
        terms.append((d, Fraction(rng.randint(1, 8), rng.randint(1, 4))))
    return combo(*terms)


def perturbed(rng, v, how, where):
    """v with an epsilon, an alpha or a gamma pushed below 0 at fraction
    `where` of its degree range, the benchmark's non-member shapes."""
    entries = dict(v.items())
    at = v.min_degree + int(where * (v.max_degree - v.min_degree))
    delta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    if how == "epsilon":
        entries[min(ij for ij in entries if ij[1] >= at)] = -delta
    elif how == "alpha":
        entries[2, at + 1] = 2 * entries.get((1, at), 0) + delta
    else:
        entries[1, at + 1] = entries.get((1, at + 1), 0) + functional_value(Functional.gamma(at), v) / 3 + delta
    return BettiTable(entries)


def test_bench_shaped_non_members_match_full_span_scan():
    rng = random.Random(27)
    cases = []
    for n_terms in (40, 80, 160):
        member = bench_member(rng, n_terms, rng.randint(-20, 20))
        for how in ("epsilon", "alpha", "gamma"):
            for where in (0.5, 0.75, 1.0):
                cases.append((how, perturbed(rng, member, how, where)))
        # gamma_inf is 3 times the free coefficients, so only finite length refuses it
        cases.append(("gamma_inf", member))
        # an explicit window with one entry off the doubling
        window = dict(expand_tail(member, max_row=rng.randint(3, 5)).items())
        ij = rng.choice(sorted(ij for ij in window if ij[0] >= 2))
        window[ij] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        cases.append(("doubling_eq", BettiTable(window, tail_mode=EXPLICIT)))
    for how, v in cases:
        for finite_length in (False, True):
            verdict = (check_finite_length if finite_length else check_graded)(v)
            expected = full_span_violation(v, finite_length)
            if how == "gamma_inf" and not finite_length:
                assert expected is None and verdict.member
                continue
            assert not verdict.member
            assert (verdict.violation.label, verdict.violation.value) == expected
            assert verdict.violation.label.startswith(how)
            assert type(verdict.violation.value) is Fraction


def coprime_denominators(n):
    """n pairwise coprime denominators of just under 4000 bits: k*N + 1 for
    k = 1..n, with N a multiple of n!.  A prime dividing two of them divides
    their difference, a multiple of N by less than n, so it divides N, and
    then it cannot divide k*N + 1."""
    big = factorial(n) << (3990 - factorial(n).bit_length())
    return [k * big + 1 for k in range(1, n + 1)]


def test_coprime_denominators_are_refused_promptly():
    # 100 free diagrams pi_(m) / d_m: L passes MAX_COEFFICIENT_BITS at the
    # second entry, and the scan and the greedy would sum ~4000-bit Fractions
    dens = coprime_denominators(100)
    table = BettiTable({(0, m): Fraction(1, d) for m, d in enumerate(dens)})
    assert len(table.support()) == 100
    local = BettiSequence.of(*(Fraction(1, d) for d in dens[:3]))  # the local cone shares the bound
    for call, arg in ((check_graded, table), (check_finite_length, table), (decompose, table),
                      (check_local, local), (decompose_local, local)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"lcm of the entry denominators passes {MAX_COEFFICIENT_BITS} bits"):
            call(arg)
        assert time.perf_counter() - start < 0.1


def test_the_refusal_comes_before_any_violation():
    # v[1, 200] = 1/d and v[2, 201] = 3/d violate alpha(200), and a negative
    # entry violates epsilon, but the scan never starts: L is refused first
    dens = coprime_denominators(3)
    entries = {(0, 0): Fraction(-1, dens[0]), (1, 200): Fraction(1, dens[1]), (2, 201): Fraction(3, dens[1])}
    table = BettiTable(entries)
    for finite_length in (False, True):
        with pytest.raises(ValueError, match="lcm of the entry denominators"):
            cone._first_violation(table, finite_length)
    # up to the bound the scan runs on ints: one 4000-bit denominator is fine
    table = BettiTable({ij: val for ij, val in entries.items() if val.denominator == dens[1]})
    assert cone._scaled(table)[2] == dens[1]
    viol = cone._first_violation(table)
    assert (viol.label, viol.value) == full_span_violation(table, False)
    assert viol.value == Fraction(-1, dens[1])


def test_one_lcm_per_distinct_denominator(monkeypatch):
    # 2,000 entries over the denominators {1, 2, 3}: at most one lcm for each
    table = BettiTable({(i, j): Fraction(2 * j + 1 + i, 1 + j % 3) for i in range(2) for j in range(1000)})
    assert len(table.support()) == 2000
    assert {val.denominator for _, val in table.items()} == {1, 2, 3}
    calls = []

    def counting_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(cone, "lcm", counting_lcm)
    keys, values, scale = cone._scaled(table)
    entries = dict(zip(keys, values))
    assert len(calls) <= 3
    # the per-entry formula: L folds every entry's denominator, and each
    # entry is its numerator times L over its denominator
    expected_scale = 1
    for _, val in table.items():
        expected_scale = lcm(expected_scale, val.denominator)
    expected = {ij: val.numerator * (expected_scale // val.denominator) for ij, val in table.items()}
    assert (entries, scale) == (expected, expected_scale) == (expected, 6)
    assert all(type(val) is int for val in entries.values())


def test_betti_sequence_rejects_floats():
    with pytest.raises(ValueError, match="float"):
        BettiSequence.of(1, 0.5, 0)


# -- greedy decomposition ----------------------------------------------------


def test_omega_table_decomposition_is_tail_plus_free():
    deco = decompose(OMEGA_TABLE)
    assert deco.terms == (
        (DegreeSequence.tail(0, 1), Fraction(1)),
        (DegreeSequence.free(0), Fraction(1)),
    )


def test_pure_diagram_decomposes_to_itself():
    for d in (DegreeSequence.free(3), DegreeSequence.two_step(0, 2), DegreeSequence.tail(-2, 1)):
        deco = decompose(BettiTable(combine(0, {}, Fraction(5, 2), make_pure_diagram(d))))
        assert deco.terms == ((d, Fraction(5, 2)),)


def test_decompose_rejects_non_members():
    with pytest.raises(NotInConeError) as exc:
        decompose(BettiTable({(1, 1): 1}))
    assert exc.value.violation.label == "gamma(0)"


def test_decompose_accepts_explicit_windows():
    deco = decompose(expand_tail(OMEGA_TABLE, max_row=6))
    assert deco.recombine() == OMEGA_TABLE


@given(cone_points)
@settings(max_examples=100, deadline=None)
def test_decomposition_terms_form_a_chain(v):
    terms = decompose(v).terms
    assert len(terms) <= max(len(v.support()), 1)
    for m in range(len(terms)):
        for n in range(m + 1, len(terms)):
            assert degseq_leq(terms[m][0], terms[n][0]), (terms[m][0], terms[n][0])


@given(cone_points)
@settings(max_examples=100, deadline=None)
def test_decomposition_coefficients_are_positive(v):
    for _, c in decompose(v).terms:
        assert c > 0


# -- the degree sequence order ------------------------------------------------


def test_degseq_leq_basic_cases():
    assert degseq_leq(DegreeSequence.free(0), DegreeSequence.free(1))
    assert degseq_leq(DegreeSequence.free(0), DegreeSequence.free(0))  # reflexive
    assert degseq_leq(DegreeSequence.tail(0, 1), DegreeSequence.two_step(0, 1))
    assert not degseq_leq(DegreeSequence.two_step(0, 1), DegreeSequence.tail(0, 1))
    assert degseq_leq(DegreeSequence.tail(0, 1), DegreeSequence.free(0))
    assert degseq_leq(DegreeSequence.two_step(0, 1), DegreeSequence.free(0))
    assert degseq_leq(DegreeSequence.two_step(0, 1), DegreeSequence.two_step(0, 2))
    assert degseq_leq(DegreeSequence.two_step(2, 4), DegreeSequence.tail(2, 7))  # (2, 4, inf) <= (2, 7, 8)


def test_degseq_leq_incomparable_pair():
    d = DegreeSequence.two_step(0, 3)
    e = DegreeSequence.two_step(1, 2)
    assert not degseq_leq(d, e)
    assert not degseq_leq(e, d)


# -- local cone ---------------------------------------------------------------


def local_first_violation(b0, b1, b2, finite_length=False):
    """(label, value) of the first violated of the six local functionals, in
    the scan order check_local keeps, written out from scratch; None for a
    member."""
    hk = 3 * b0 + b2 - 3 * b1
    for label, val in (("b0", b0), ("b1", b1), ("b2", b2), ("2b1-b2", 2 * b1 - b2), ("3b0+b2-3b1", hk)):
        if val < 0:
            return label, val
    if finite_length and hk != 0:
        return "3b0+b2-3b1 == 0", hk
    return None


def local_member_oracle(b0, b1, b2, finite_length=False) -> bool:
    # the halfspace description, written out from scratch
    if b0 < 0 or b1 < 0 or b2 < 0:
        return False
    if 3 * b0 + b2 - 3 * b1 < 0:
        return False
    if 2 * b1 - b2 < 0:
        return False
    if finite_length and 3 * b0 + b2 - 3 * b1 != 0:
        return False
    return True


def test_local_rays_are_fixed():
    assert LocalDecomposition.RAYS == ((1, 0, 0), (1, 1, 0), (1, 3, 6))


def test_local_decomposition_known_values():
    deco = decompose_local(BettiSequence.of(2, 3, 3))
    assert (deco.a, deco.b, deco.c) == (0, Fraction(3, 2), Fraction(1, 2))
    deco = decompose_local(BettiSequence.of(1, 2, 3))
    assert (deco.a, deco.b, deco.c) == (0, Fraction(1, 2), Fraction(1, 2))


def test_local_check_scan_order():
    assert check_local(BettiSequence.of(-1, 0, 0)).violation.label == "b0"
    assert check_local(BettiSequence.of(0, 1, 0)).violation.label == "3b0+b2-3b1"
    assert check_local(BettiSequence.of(0, 0, 1)).violation.label == "2b1-b2"
    assert check_local(BettiSequence.of(1, 1, 3)).violation.label == "2b1-b2"
    assert check_local(BettiSequence.of(1, 1, 1), finite_length=True).violation.label == (
        "3b0+b2-3b1 == 0"
    )
    # 2b1-b2 and 3b0+b2-3b1 both negative: the graded scan names alpha(1) first
    viol = check_local(BettiSequence.of(0, Fraction(1, 2), Fraction(4, 3))).violation
    assert viol == ("2b1-b2", Fraction(-1, 3), Functional.alpha(1))


@given(
    st.fractions(min_value=0, max_value=5, max_denominator=4),
    st.fractions(min_value=0, max_value=5, max_denominator=4),
    st.fractions(min_value=0, max_value=5, max_denominator=4),
)
@settings(max_examples=120, deadline=None)
def test_local_recombination_identity(a, b, c):
    s = BettiSequence.of(a + b + c, b + 3 * c, 6 * c)
    deco = decompose_local(s)
    assert (deco.a, deco.b, deco.c) == (a, b, c)
    assert check_local(s).member


@given(
    st.fractions(min_value=-3, max_value=6, max_denominator=3),
    st.fractions(min_value=-3, max_value=6, max_denominator=3),
    st.fractions(min_value=-3, max_value=6, max_denominator=3),
    st.booleans(),
)
@example(0, Fraction(1, 2), Fraction(4, 3), False)  # 2b1-b2 and 3b0+b2-3b1 both negative
@settings(max_examples=150, deadline=None)
def test_local_check_matches_oracle(b0, b1, b2, finite_length):
    s = BettiSequence.of(b0, b1, b2)
    verdict = check_local(s, finite_length=finite_length)
    assert verdict.member == local_member_oracle(b0, b1, b2, finite_length)
    if verdict.member:
        deco = verdict.decomposition
        assert deco.a + deco.b + deco.c == b0
        assert deco.b + 3 * deco.c == b1
        assert 6 * deco.c == b2
        if finite_length:
            assert deco.a == 0
    else:
        viol = verdict.violation
        assert (viol.label, viol.value) == local_first_violation(b0, b1, b2, finite_length)
        with pytest.raises(NotInConeError):
            decompose_local(s, finite_length=finite_length)


# -- guards that survive python -O ------------------------------------------------


def test_guards_fire_past_the_membership_scan():
    # the pivot trusts the scan; called without it on a non-member it
    # raises, under python -O too
    with pytest.raises(AssertionError, match="without row 0 mass"):
        cone._greedy(BettiTable({(1, 1): 1}))
