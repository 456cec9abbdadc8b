"""Tables, pure diagrams, functionals, HK rays, and the doubling tail rules."""

import random
import re
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betticone import (
    CANONICAL,
    EXPLICIT,
    INDECOMPOSABLE_NAMES,
    INF,
    BettiTable,
    DegreeSequence,
    Functional,
    check_graded,
    collapse_tail,
    expand_tail,
    hk_ray,
    make_pure_diagram,
    syzygy_of_indecomposable,
)
from betticone import resolve
from betticone.cli import TableFormatError, parse_table_text
from betticone.tables import ALPHA, GAMMA, GAMMA_INF, MAX_HOM_BOUND, _broken_doubling, _cone_functionals
from oracles import broken_doubling, combine, functional_value


def gamma_by_definition(v: BettiTable, k: int) -> Fraction:
    # independent of the enumerator: the literal truncated sum over j <= k
    if v.is_zero:
        return Fraction(0)
    total = Fraction(0)
    for j in range(v.min_degree - 3, k + 1):
        total += 3 * v.entry(0, j) - 3 * v.entry(1, j + 1) + v.entry(2, j + 2)
    return total


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)

canonical_tables = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-4, 6)), small_fractions, max_size=8
).map(lambda d: BettiTable(d, tail_mode=CANONICAL))


# -- construction ------------------------------------------------------------


def test_zero_entries_are_dropped():
    t = BettiTable({(0, 0): 1, (1, 2): 0})
    assert t.support() == ((0, 0),)
    assert t.entry(1, 2) == 0


def test_duplicate_entry_rejected():
    # table text is the one input that can repeat an (i, j); a mapping cannot
    def text(*entries):
        return "betti v1\nmode canonical\n" + "".join(f"entry {i} {j} {v}\n" for i, j, v in entries)

    with pytest.raises(TableFormatError, match=r"duplicate table entry at \(0, 0\)"):
        parse_table_text(text((0, 0, 1), (0, 0, 2)))
    # a zero first value is dropped from the table, but its key was still given
    for entries in (((0, 0, 0), (0, 0, 1)), ((1, 2, 0), (0, 0, 1), (1, 2, 0))):
        with pytest.raises(TableFormatError, match="duplicate"):
            parse_table_text(text(*entries))
    assert parse_table_text(text((1, 2, 0), (0, 0, 1))) == BettiTable({(0, 0): 1})


def test_negative_row_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        BettiTable({(-1, 0): 1})


def test_non_int_index_rejected():
    with pytest.raises(ValueError, match="pair of ints"):
        BettiTable({(0, Fraction(1, 2)): 1})
    # entry reads with the rule construction uses: 3.0 would pass through
    # 2 ** (i - 2) and return the float 6.0
    t = BettiTable({(2, 0): 3})
    for i, j in ((3.0, 1), (3, 1.0), (Fraction(3), 1), (2, "0")):
        with pytest.raises(ValueError, match="pair of ints"):
            t.entry(i, j)


def test_float_entry_rejected():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="float"):
        BettiTable({(0, 0): 0.1})


def test_bool_index_rejected():
    # (True, 0) would be kept as a key and printed as "entry True 0 1"
    for key in ((True, 0), (0, False)):
        with pytest.raises(ValueError, match="pair of ints"):
            BettiTable({key: 1})
        with pytest.raises(ValueError, match="pair of ints"):
            BettiTable({(0, 0): 1}).entry(*key)


def test_table_validation_branches():
    assert repr(INF) == "INF"
    with pytest.raises(ValueError, match="unknown tail mode: 'weird'"):
        BettiTable({}, tail_mode="weird")
    t = BettiTable({(0, 0): 1, (2, 2): 6})
    with pytest.raises(ValueError, match="homological index must be >= 0, got -1"):
        t.entry(-1, 0)
    assert t.__eq__({(0, 0): 1, (2, 2): 6}) is NotImplemented and t != {(0, 0): 1, (2, 2): 6}
    with pytest.raises(ValueError, match="expand_tail expects a canonical table"):
        expand_tail(expand_tail(t, 3), 4)
    with pytest.raises(ValueError, match="position must be >= 0"):
        DegreeSequence.free(0).degree(-1)


def test_canonical_mode_rejects_high_rows():
    with pytest.raises(ValueError, match="rows 0..2"):
        BettiTable({(3, 3): 12})
    BettiTable({(3, 3): 12}, tail_mode=EXPLICIT)  # fine there


def test_entries_accept_rationals():
    t = BettiTable({(0, 0): "3/2"})
    assert t.entry(0, 0) == Fraction(3, 2)


# -- tail derivation ---------------------------------------------------------


def test_canonical_tail_is_derived_from_row_two():
    t = BettiTable({(2, 5): 6})
    assert t.entry(3, 6) == 12
    assert t.entry(4, 7) == 24
    assert t.entry(3, 5) == 0  # wrong diagonal
    assert t.entry(7, 10) == 2 ** 5 * 6


def test_a_tail_entry_off_row_two_costs_no_power_of_two():
    # a canonical row past MAX_HOM_BOUND is refused before 2^(i-2) is built,
    # which at i = 10^8 is a 12 MB int, whether the row 2 base is missing or
    # present
    t = BettiTable({(2, 5): 6, (2, 0): 3})
    for i, j in ((10 ** 8, 5), (10 ** 7, 10 ** 7 - 2), (10 ** 8, 10 ** 8 - 2), (MAX_HOM_BOUND + 1, 5)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"at most {MAX_HOM_BOUND}"):
            t.entry(i, j)
        assert time.perf_counter() - start < 0.05
    assert t.entry(MAX_HOM_BOUND, MAX_HOM_BOUND - 2) == 3 * 2 ** (MAX_HOM_BOUND - 2)
    assert BettiTable({(2, 5): 6}, tail_mode=EXPLICIT).entry(10 ** 8, 5) == 0


def test_explicit_mode_stores_literally():
    t = BettiTable({(2, 5): 6}, tail_mode=EXPLICIT)
    assert t.entry(3, 6) == 0


def test_expand_tail_materializes_the_doubling():
    t = BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 6})
    e = expand_tail(t, max_row=4)
    assert e.tail_mode == EXPLICIT
    assert e.entry(3, 3) == 12 and e.entry(4, 4) == 24
    assert e.entry(5, 5) == 0  # beyond max_row
    # a derived entry has its row 2 entry's type: int stays int, Fraction stays Fraction
    e = expand_tail(BettiTable({(1, 1): 3, (2, 2): 6, (2, 3): Fraction(1, 3)}), max_row=4)
    assert [(e.entry(i, j), type(e.entry(i, j))) for i, j in ((3, 3), (4, 4), (3, 4), (4, 5))] \
        == [(12, int), (24, int), (Fraction(2, 3), Fraction), (Fraction(4, 3), Fraction)]


def test_expand_tail_respects_max_degree():
    t = BettiTable({(2, 2): 6})
    e = expand_tail(t, max_row=6, max_degree=4)
    assert e.entry(3, 3) == 12 and e.entry(4, 4) == 24
    assert e.entry(5, 5) == 0
    # stored entries past max_degree go too: (2, 7) and (0, 9) lie past 5, as their image (3, 8) does
    t = BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 6, (0, 5): 1, (1, 6): 3, (2, 7): 6, (0, 9): 1})
    window = expand_tail(t, 4, 5)
    assert window == BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 6, (0, 5): 1, (3, 3): 12, (4, 4): 24},
                                tail_mode=EXPLICIT)
    assert collapse_tail(window) == BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 6, (0, 5): 1})
    assert check_graded(window).member


def test_expand_tail_stops_at_max_hom_bound():
    assert resolve.MAX_HOM_BOUND == MAX_HOM_BOUND
    t = BettiTable({(2, 2): 6})
    top = MAX_HOM_BOUND
    assert expand_tail(t, max_row=top).entry(top, top) == 6 * 2 ** (top - 2)
    # rows 0..2 are always kept, so a last row below 2 would hold rows past it
    for max_row in (MAX_HOM_BOUND + 1, 1, 0, -5):
        with pytest.raises(ValueError, match=f"max_row must be at least 2 and at most {MAX_HOM_BOUND}"):
            expand_tail(t, max_row=max_row)
    for max_row, max_degree in ((3.5, None), (3.0, None), (True, None), (4, 4.0), (4, "4")):
        with pytest.raises(ValueError, match="must be ints"):
            expand_tail(t, max_row, max_degree)


def test_collapse_tail_round_trip():
    t = BettiTable({(0, 0): 2, (1, 1): 3, (2, 2): 6})
    assert collapse_tail(expand_tail(t, max_row=5)) == t


def test_collapse_tail_rejects_broken_doubling():
    bad = BettiTable({(2, 2): 6, (3, 3): 13}, tail_mode=EXPLICIT)
    with pytest.raises(ValueError, match="doubling"):
        collapse_tail(bad)


def test_collapse_tail_rejects_orphan_high_row():
    # mass in row 3 with nothing at (2, 2) cannot come from a tail
    bad = BettiTable({(3, 3): 12}, tail_mode=EXPLICIT)
    with pytest.raises(ValueError, match="doubling"):
        collapse_tail(bad)


def test_a_window_cut_at_its_last_degree_collapses():
    # (2, 5) sits at the window's last degree, so its image (3, 6) lies past it
    t = BettiTable({(0, 0): 2, (1, 1): 3, (2, 2): 6, (0, 3): 1, (1, 4): 3, (2, 5): 6})
    window = expand_tail(t, 4, 5)
    assert window.max_degree == 5 and window.entry(3, 6) == 0
    assert collapse_tail(window) == t
    assert _broken_doubling(window._entries) is None
    assert check_graded(window).member
    # below the last degree the doubling still binds
    entries = dict(window.items())
    del entries[(3, 3)]
    with pytest.raises(ValueError, match=r"^doubling fails at \(2, 2\); table is not a tail window$"):
        collapse_tail(BettiTable(entries, tail_mode=EXPLICIT))


def seeded_member(rng):
    """A combination of 1 to 6 pure diagrams with small int coefficients,
    topped by a tail diagram whose row 2 entry holds the last degree."""
    entries = {}
    for _ in range(rng.randint(0, 5)):
        d0 = rng.randint(-3, 4)
        d = rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + rng.randint(1, 3)),
                        DegreeSequence.tail(d0, d0 + rng.randint(1, 3))))
        entries = combine(1, entries, rng.randint(1, 5), make_pure_diagram(d))
    entries = combine(1, entries, rng.randint(1, 5), make_pure_diagram(DegreeSequence.tail(4, 8)))
    return BettiTable(entries)


def test_collapse_inverts_expand_cut_inside_the_tail():
    rng = random.Random(2802)
    for _ in range(200):
        t = seeded_member(rng)
        assert t.max_degree == 9
        max_row = rng.randint(3, 6)
        max_degree = rng.randint(9, 9 + max_row - 3)  # drops row max_row's image of (2, 9)
        window = expand_tail(t, max_row, max_degree)
        assert window != expand_tail(t, max_row) and window.max_degree == max_degree
        assert broken_doubling(window) is None
        assert collapse_tail(window) == t


def test_collapse_of_expand_keeps_rows_0_to_2_up_to_max_degree():
    rng = random.Random(2901)
    for _ in range(300):
        t = seeded_member(rng)
        max_row, max_degree = rng.randint(2, 6), rng.randint(t.min_degree - 2, t.max_degree + 2)
        window = expand_tail(t, max_row, max_degree)
        assert broken_doubling(window) is None
        assert collapse_tail(window) == BettiTable({(i, j): v for (i, j), v in t.items() if j <= max_degree})


def seeded_explicit_table(rng):
    """Up to 12 int or Fraction entries in rows 0..7, each high-row entry
    put on the doubling of the row below with probability 1/2; or a
    seeded member's window cut at a random degree."""
    if rng.random() < 0.2:
        return expand_tail(seeded_member(rng), rng.randint(2, 6), rng.randint(5, 12))
    top, entries = rng.randint(0, 7), {}
    for _ in range(rng.randint(0, 12)):
        value = rng.randint(-2, 9)
        entries[rng.randint(0, top), rng.randint(-5, 9)] = value if rng.random() < 0.6 else Fraction(value, 3)
    for (i, j), value in sorted(entries.items()):
        if i >= 3 and rng.random() < 0.5:
            entries[i, j] = 2 * entries.get((i - 1, j - 1), 0) or value
    return BettiTable(entries, tail_mode=EXPLICIT)


def test_broken_doubling_matches_the_window_oracle():
    rng = random.Random(2803)
    broken = 0
    for _ in range(2000):
        t = seeded_explicit_table(rng)
        expected = broken_doubling(t)
        got = _broken_doubling(t._entries)
        assert got == expected and type(got) is type(expected), t
        if expected is None:
            assert collapse_tail(t) == BettiTable({ij: v for ij, v in t.items() if ij[0] <= 2})
        else:
            assert type(got[2]) is type(expected[2])
            broken += 1
            with pytest.raises(ValueError, match=rf"^doubling fails at \({got[0]}, {got[1]}\); "):
                collapse_tail(t)
    assert 500 < broken < 1500


@given(canonical_tables, st.integers(3, 7))
@settings(max_examples=60, deadline=None)
def test_expand_collapse_round_trip(t, max_row):
    assert collapse_tail(expand_tail(t, max_row)) == t


# -- arithmetic --------------------------------------------------------------


# combine, the tests' a*u + b*v on entry dicts, builds the inputs of many tests


def test_combine_combines_exactly():
    u = BettiTable({(0, 0): 1, (1, 1): 2})
    v = BettiTable({(1, 1): Fraction(1, 3)})
    w = BettiTable(combine(2, u, -3, v))
    assert w.entry(0, 0) == 2
    assert w.entry(1, 1) == 3


@given(canonical_tables, canonical_tables, small_fractions, small_fractions)
@settings(max_examples=60, deadline=None)
def test_combine_is_entrywise(u, v, a, b):
    w = BettiTable(combine(a, u, b, v))
    probe = set(u.support()) | set(v.support())
    for (i, j) in probe:
        assert w.entry(i, j) == a * u.entry(i, j) + b * v.entry(i, j)


# -- degree sequences and pure diagrams --------------------------------------


def test_degree_sequence_shapes_and_positions():
    f = DegreeSequence.free(2)
    assert f.degree(0) == 2 and f.degree(1) == INF and f.degree(5) == INF
    t = DegreeSequence.two_step(0, 3)
    assert t.degree(1) == 3 and t.degree(2) == INF
    tl = DegreeSequence.tail(1, 2)
    assert [tl.degree(n) for n in range(5)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("d", [DegreeSequence.free(-2), DegreeSequence.two_step(0, 3), DegreeSequence.tail(1, 2)])
def test_degrees_are_ints_or_INF_never_floats(d):
    for n in range(6):
        k = d.degree(n)
        assert type(k) is int or k is INF, (n, k)


def test_INF_is_above_every_int_and_equals_only_itself():
    for k in (-10 ** 100, -1, 0, 1, 10 ** 100):
        assert k < INF and k <= INF and INF > k and INF >= k and k != INF
        assert not (INF < k or INF <= k or k > INF or k >= INF or INF == k)
    assert INF == INF and INF <= INF and INF >= INF and not INF < INF
    assert INF != float("inf") and not isinstance(INF, float)
    assert len({INF, INF}) == 1


def test_degree_sequence_requires_increasing():
    with pytest.raises(ValueError, match="d0 < d1"):
        DegreeSequence.two_step(3, 3)
    with pytest.raises(ValueError, match="d0 < d1"):
        DegreeSequence.tail(2, 0)


def test_degree_sequence_str_forms():
    assert str(DegreeSequence.free(0)) == "(0, inf)"
    assert str(DegreeSequence.two_step(0, 2)) == "(0, 2, inf)"
    assert str(DegreeSequence.tail(0, 2)) == "(0, 2, 3, ...)"


def test_pure_diagram_entries():
    assert make_pure_diagram(DegreeSequence.free(1)) == BettiTable({(0, 1): 1})
    assert make_pure_diagram(DegreeSequence.two_step(0, 2)) == BettiTable(
        {(0, 0): 1, (1, 2): 1}
    )
    pi = make_pure_diagram(DegreeSequence.tail(0, 2))
    assert pi == BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 6})
    # implied doubled rows: 3 * 2^(i-1) at (i, d1 + i - 1)
    for i in range(1, 7):
        assert pi.entry(i, 2 + i - 1) == 3 * 2 ** (i - 1)


# -- functionals -------------------------------------------------------------


def test_functional_labels():
    assert Functional.epsilon(0, 1).label() == "epsilon(0,1)"
    assert Functional.alpha(2).label() == "alpha(2)"
    assert Functional.gamma(-1).label() == "gamma(-1)"
    assert Functional.gamma_inf().label() == "gamma_inf"
    assert Functional.doubling_eq(2, 2).label() == "doubling_eq(2,2)"
    # the record does not validate its kind when built, so label() refuses an unknown one
    for kind in ("bogus", "doubling", "", None):
        with pytest.raises(ValueError, match=rf"^unknown functional kind: {re.escape(repr(kind))}$"):
            Functional(kind).label()


def test_functional_validation():
    with pytest.raises(ValueError):
        Functional.epsilon(-1, 0)
    with pytest.raises(ValueError):
        Functional.doubling_eq(1, 1)


# alpha_k and gamma_k read off the columns of _cone_functionals, which hold
# them only at the keys where they can change


def alpha_at(v: BettiTable, k: int):
    """alpha_k: the alpha at key k, or 0 where no key is."""
    alpha_keys, (alphas,), _, _, _ = _cone_functionals(v.items())
    return dict(zip(alpha_keys, alphas)).get(k, 0)


def gamma_at(v: BettiTable, k: int):
    """gamma_k: the running gamma at the last key <= k, or 0 below them all."""
    _, _, gamma_keys, (gammas,), _ = _cone_functionals(v.items())
    n = bisect_right(gamma_keys, k)
    return gammas[n - 1] if n else 0


def test_alpha_by_hand():
    v = BettiTable({(1, 2): 5, (2, 3): 4})
    assert alpha_at(v, 2) == 2 * 5 - 4
    assert alpha_at(v, 1) == 0
    assert alpha_at(v, 3) == 0


def test_gamma_by_hand():
    v = BettiTable({(0, 0): 2, (1, 1): 3, (2, 2): 6})
    # j = 0 slice: 3*2 - 3*3 + 6 = 3, later slices add nothing
    assert gamma_at(v, 0) == 3
    assert gamma_at(v, 5) == 3
    # below the support nothing has accumulated yet
    assert gamma_at(v, -1) == 0
    assert gamma_at(v, -2) == 0
    w = BettiTable({(1, 0): 1, (2, 0): 5})
    assert gamma_at(w, -1) == -3 * 1 + 5


@given(canonical_tables, st.integers(-6, 9))
@settings(max_examples=80, deadline=None)
def test_gamma_matches_definition(v, k):
    assert gamma_at(v, k) == gamma_by_definition(v, k)


@given(canonical_tables)
@settings(max_examples=60, deadline=None)
def test_gamma_stabilizes_to_gamma_inf(v):
    k = (v.max_degree if not v.is_zero else 0) + 2
    assert gamma_at(v, k) == functional_value(Functional.gamma_inf(), v)


@given(canonical_tables, st.integers(-5, 7))
@settings(max_examples=60, deadline=None)
def test_gamma_increments_by_slices(v, k):
    lhs = gamma_at(v, k) - gamma_at(v, k - 1)
    rhs = 3 * v.entry(0, k) - 3 * v.entry(1, k + 1) + v.entry(2, k + 2)
    assert lhs == rhs


def test_doubling_eq_holds_on_canonical_tail():
    v = BettiTable({(2, 3): 6})
    # rows 2 and 3 of the canonical tail, the window the equalities read
    window = dict(expand_tail(v, max_row=3).items())
    assert window == {(2, 3): 6, (3, 4): v.entry(3, 4)}
    assert _broken_doubling(window) is None


def reference_cone_functionals(*tables):
    """The enumerator as it was when it summed a list of per-table values at
    each key in Python, kept as the oracle of the one in tables."""
    zeros = (0,) * len(tables)
    alpha: dict[int, list] = {}
    gamma_jumps: dict[int, list] = {}
    for t, v in enumerate(tables):
        for (i, j), val in v.items():
            if i > 2:
                continue
            gamma_jumps.setdefault(j - i, list(zeros))[t] += (3, -3, 1)[i] * val
            if i > 0:
                alpha.setdefault(j - i + 1, list(zeros))[t] += (2, -1)[i - 1] * val
    for k in sorted(alpha):
        yield ALPHA, k, tuple(alpha[k])
    gamma = zeros
    for k in sorted(gamma_jumps):
        gamma = tuple(g + dg for g, dg in zip(gamma, gamma_jumps[k]))
        yield GAMMA, k, gamma
    # gamma_inf from its definition, the sum over all of rows 0..2
    yield GAMMA_INF, None, tuple(sum(((3, -3, 1)[i] * val for (i, _), val in v.items() if i <= 2), 0)
                                 for v in tables)


int_or_fraction = st.one_of(st.integers(-6, 6), small_fractions)


@st.composite
def functional_inputs(draw):
    """1, 2 or 18 tables, each a dict (zero values kept) or an explicit
    BettiTable, with entries in rows 0..4 over a few degrees, so that keys
    collide across rows, plus pairs whose contributions cancel:
    v[0, j] = v[1, j + 1] in the gamma jump at j, and v[2, j + 1] = 2 v[1, j]
    in alpha_j."""
    tables = []
    for _ in range(draw(st.sampled_from((1, 2, 18)))):
        cell = st.tuples(st.integers(0, 4), st.integers(-3, 4))
        entries = draw(st.dictionaries(cell, int_or_fraction, max_size=6))
        for j in draw(st.lists(st.integers(-3, 4), max_size=2)):
            a = draw(int_or_fraction)
            entries[0, j] = entries[1, j + 1] = a
        for j in draw(st.lists(st.integers(-3, 4), max_size=2)):
            a = draw(int_or_fraction)
            entries[1, j], entries[2, j + 1] = a, 2 * a
        tables.append(BettiTable(entries, tail_mode=EXPLICIT) if draw(st.booleans()) else entries)
    return tables


def flattened(scan, n_tables):
    """The columns of _cone_functionals as the reference's (kind, k, values)
    triples, each column checked to be aligned with its keys."""
    alpha_keys, alphas, gamma_keys, gammas, gamma_inf = scan
    assert len(alphas) == len(gammas) == len(gamma_inf) == n_tables
    assert all(len(col) == len(alpha_keys) for col in alphas)
    assert all(len(col) == len(gamma_keys) for col in gammas)
    return [*zip(repeat(ALPHA), alpha_keys, zip(*alphas)), *zip(repeat(GAMMA), gamma_keys, zip(*gammas)),
            (GAMMA_INF, None, tuple(gamma_inf))]


def typed(functionals):
    return [(kind, k, values, tuple(map(type, values))) for kind, k, values in functionals]


@given(functional_inputs())
@example([{(0, 0): 1, (1, 1): 1, (3, 0): 5}])
@example([{(1, 0): Fraction(1, 2), (2, 1): 1}, BettiTable({(0, 2): 4, (4, 9): 1}, tail_mode=EXPLICIT)])
@example([{}])
@settings(max_examples=100, deadline=None)
def test_cone_functionals_match_the_reference(tables):
    got = typed(flattened(_cone_functionals(*(v.items() for v in tables)), len(tables)))
    assert got == typed(reference_cone_functionals(*tables))
    assert all(len(values) == len(tables) for _, _, values, _ in got)


# -- Herzog-Kuhl rays ---------------------------------------------------------


def test_hk_ray_vectors_and_names():
    assert hk_ray(0).vector == (1, 1, 0) and hk_ray(0).mcm_name == "B"
    assert hk_ray(1).vector == (2, 3, 3) and hk_ray(1).mcm_name == "M_i"
    assert hk_ray(Fraction(3, 2)).vector == (1, 2, 3) and hk_ray(Fraction(3, 2)).mcm_name == "omega"
    assert hk_ray(2).vector == (1, 3, 6) and hk_ray(2).mcm_name == "M_ij"


def test_hk_ray_rejects_other_slopes():
    with pytest.raises(ValueError, match="admitted"):
        hk_ray(Fraction(1, 2))
    # 1.5 and 2.0 are not read as omega's and M_ij's slopes
    for c in (1.5, 2.0, 0.0):
        with pytest.raises(ValueError, match="float"):
            hk_ray(c)
    assert type(hk_ray(2).c) is Fraction and hk_ray("3/2") == hk_ray(Fraction(3, 2))


def test_hk_entries_double_past_row_two():
    assert hk_ray(2).entries(6) == (1, 3, 6, 12, 24, 48)
    assert hk_ray(0).entries(5) == (1, 1, 0, 0, 0)


def test_hk_slope_equation():
    # 3*(b0 - b1) + c*b1 = 0 on each ray
    for c in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)):
        b0, b1, _ = hk_ray(c).vector
        assert 3 * (b0 - b1) + c * b1 == 0


def test_hk_relations_hold_on_eight_entries():
    # 2*v3 = v1 + v4 and 2*v2 = 3*v1 + v4, entry by entry, and on to twelve
    for n in (8, 12):
        v1, v2, v3, v4 = (hk_ray(c).entries(n) for c in (0, 1, Fraction(3, 2), 2))
        assert len(v1) == len(v2) == len(v3) == len(v4) == n
        assert all(2 * a == b + c for a, b, c in zip(v3, v1, v4))
        assert all(2 * a == 3 * b + c for a, b, c in zip(v2, v1, v4))


# -- syzygies of the indecomposables ------------------------------------------


def test_syzygy_table_is_complete():
    assert INDECOMPOSABLE_NAMES == ("B", "M1", "M12", "M13", "M2", "M23", "M3", "omega")
    assert syzygy_of_indecomposable("B") == ()
    assert syzygy_of_indecomposable("omega") == (("M12", -1), ("M13", -1), ("M23", -1))
    assert syzygy_of_indecomposable("M1") == (("M23", -1),)
    assert syzygy_of_indecomposable("M12") == (("M13", -1), ("M23", -1))


def test_syzygy_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown"):
        syzygy_of_indecomposable("M21")
