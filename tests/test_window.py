"""Window generators, facet vectors, and the double description pass."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import window as window_module
from betticone import (
    BettiTable,
    Window,
    WindowCapError,
    cross_check,
    extreme_rays,
    make_pure_diagram,
    normalize_ray,
    table_vector,
    window_facets,
    window_generators,
)
from oracles import functional_value


def generator_count(width: int, finite_length: bool) -> int:
    # free: one per column; two step: pairs d0 < d1; tail: pairs with d1 + 1 inside
    free = 0 if finite_length else width
    two_step = width * (width - 1) // 2
    tail = (width - 1) * (width - 2) // 2
    return free + two_step + tail


def window_tables(w: Window):
    keys = st.tuples(st.integers(0, 2), st.integers(w.jmin, w.jmax))
    return st.dictionaries(keys, st.fractions(min_value=-6, max_value=6, max_denominator=4),
                           max_size=9).map(BettiTable)


# -- window mechanics ----------------------------------------------------------


def test_window_geometry():
    w = Window(-1, 2)
    assert w.width == 4
    assert w.dim == 12
    assert w.index(0, -1) == 0
    assert w.index(1, -1) == 4
    assert w.index(2, 2) == 11
    with pytest.raises(ValueError):
        w.index(3, 0)
    with pytest.raises(ValueError):
        w.index(0, 3)
    with pytest.raises(ValueError, match="empty"):
        Window(2, 1)


def test_table_vector_known_values():
    w = Window(0, 1)
    free0 = BettiTable({(0, 0): 1})
    assert table_vector(free0, w) == [1, 0, 0, 0, 0, 0]
    two01 = BettiTable({(0, 0): 1, (1, 1): 1})
    assert table_vector(two01, w) == [1, 0, 0, 1, 0, 0]
    with pytest.raises(ValueError, match="outside"):
        table_vector(BettiTable({(0, 2): 1}), w)


def test_generator_counts_match_the_combinatorial_oracle():
    for jmin, jmax in ((0, 1), (0, 3), (-2, 2), (4, 9)):
        w = Window(jmin, jmax)
        for fl in (False, True):
            gens = window_generators(w, finite_length=fl)
            assert len(gens) == generator_count(w.width, fl)
            assert len(set(gens)) == len(gens)


def test_generators_fit_in_the_window():
    w = Window(0, 3)
    for d in window_generators(w):
        vec = table_vector(make_pure_diagram(d), w)  # raises if support leaks out
        assert any(vec)


# -- facet vectors ---------------------------------------------------------------


def test_facet_counts():
    w = Window(0, 3)
    ineqs, eqs = window_facets(w)
    # 12 entry signs, alpha for k in [-1, 3], gamma for k in [-2, 3]
    assert len(ineqs) == 12 + 5 + 6
    assert eqs == []
    ineqs, eqs = window_facets(w, finite_length=True)
    assert len(eqs) == 1
    ineqs, _ = window_facets(w, include_alpha=False)
    assert len(ineqs) == 12 + 6
    ineqs, _ = window_facets(w, include_gamma=False)
    assert len(ineqs) == 12 + 5


def test_facet_labels_and_coefficient_types():
    ineqs, eqs = window_facets(Window(-1, 2), finite_length=True)
    assert [f.label() for f, _ in ineqs + eqs] == (
        [f"epsilon({i},{j})" for i in range(3) for j in range(-1, 3)]
        + [f"alpha({k})" for k in range(-2, 3)]
        + [f"gamma({k})" for k in range(-3, 3)]
        + ["gamma_inf"]
    )
    assert all(type(c) is int for _, a in ineqs + eqs for c in a)


@given(window_tables(Window(0, 3)))
@settings(max_examples=80, deadline=None)
def test_facet_vectors_agree_with_functionals(v):
    # the coordinate form of each facet must match the abstract functional
    # on every table supported in the window
    w = Window(0, 3)
    vec = table_vector(v, w)
    ineqs, eqs = window_facets(w, finite_length=True)
    for fun, a in ineqs + eqs:
        dotted = sum(c * x for c, x in zip(a, vec))
        assert dotted == functional_value(fun, v), fun.label()


# -- double description -----------------------------------------------------------


def test_extreme_rays_of_the_orthant():
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ineqs = [tuple(u) for u in units]
    assert extreme_rays(3, ineqs) == sorted(units)


def test_extreme_rays_simple_slice():
    # x >= y inside the orthant: rays are e_z, e_x, and the diagonal (1, 1, 0)
    ineqs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0)]
    assert extreme_rays(3, ineqs) == sorted([(1, 0, 0), (0, 0, 1), (1, 1, 0)])


def test_extreme_rays_with_equality():
    # x = y inside the orthant
    ineqs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rays = extreme_rays(3, ineqs, eqs=[(1, -1, 0)])
    assert rays == sorted([(0, 0, 1), (1, 1, 0)])


def test_window_zero_one_rays_solved_by_hand():
    # eliminating v20 and v21 by alpha(-1), gamma(-1), alpha(0) leaves the
    # cone 0 <= v11 <= v00, v01 >= 0, whose rays are the three below
    w = Window(0, 1)
    ineqs, eqs = window_facets(w)
    rays = extreme_rays(w.dim, [a for _, a in ineqs], [b for _, b in eqs])
    assert rays == sorted([
        (1, 0, 0, 0, 0, 0),  # free at 0
        (0, 1, 0, 0, 0, 0),  # free at 1
        (1, 0, 0, 1, 0, 0),  # two step (0, 1)
    ])


def frozenset_extreme_rays(dim, ineqs, eqs=()):
    """The double description pass that recomputes every ray's zero set, as a
    frozenset of processed constraints, before each constraint."""
    def zero_set(processed, r):
        return frozenset(n for n, a in enumerate(processed) if sum(c * x for c, x in zip(a, r)) == 0)

    rays = [tuple(int(m == n) for m in range(dim)) for n in range(dim)]
    processed = list(rays)
    todo = list(ineqs)
    for b in eqs:
        todo.append(b)
        todo.append(tuple(-c for c in b))
    for a in todo:
        vals = [sum(c * x for c, x in zip(a, r)) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(a)
            continue
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        masks = [zero_set(processed, r) for r in rays]
        plus = [n for n, v in enumerate(vals) if v > 0]
        minus = [n for n, v in enumerate(vals) if v < 0]
        seen = set(keep)
        fresh = []
        for np_ in plus:
            for nm in minus:
                common = masks[np_] & masks[nm]
                if any(common <= masks[o] for o in range(len(rays)) if o != np_ and o != nm):
                    continue
                rp, rm = rays[np_], rays[nm]
                key = normalize_ray([vals[np_] * cm - vals[nm] * cp for cp, cm in zip(rp, rm)])
                if key not in seen:
                    seen.add(key)
                    fresh.append(key)
        rays = keep + fresh
        processed.append(a)
    return sorted(rays)


@st.composite
def constraint_systems(draw):
    """The coordinate inequalities plus up to 8 random ones, shuffled, and up
    to 2 equalities, all with entries in [-3, 3]."""
    dim = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    units = [tuple(int(m == n) for m in range(dim)) for n in range(dim)]
    ineqs = draw(st.permutations(units + draw(st.lists(row, max_size=8))))
    return dim, ineqs, draw(st.lists(row, max_size=2))


@given(constraint_systems())
@settings(max_examples=300, deadline=None)
def test_extreme_rays_agree_with_the_zero_set_oracle(system):
    assert extreme_rays(*system) == frozenset_extreme_rays(*system)


def test_normalize_ray():
    assert normalize_ray([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)
    assert normalize_ray([4, 6]) == (2, 3)
    with pytest.raises(ValueError, match="zero"):
        normalize_ray([0, 0])


# -- the cross check ---------------------------------------------------------------


def test_cross_check_on_small_windows():
    for jmin, jmax in ((0, 1), (0, 2), (-1, 1), (0, 4)):
        report = cross_check(Window(jmin, jmax))
        assert report.equal, report.witnesses
        assert report.n_rays == report.n_generators


def test_cross_check_zero_three_is_thirteen():
    report = cross_check(Window(0, 3))
    assert report.n_generators == 13
    assert report.n_rays == 13
    assert report.n_facets == 23
    assert report.equal


@pytest.mark.parametrize("n", range(6))
def test_ray_count_on_zero_to_n_is_closed_form(n):
    # on [0, n]: n + 1 free, n(n + 1)/2 two-step and n(n - 1)/2 tail
    # diagrams; the finite length cone keeps the last two kinds.  n = 5 is
    # the widest window under the dimension cap
    report = cross_check(Window(0, n))
    assert report.equal and report.n_rays == n * n + n + 1
    report = cross_check(Window(0, n), finite_length=True)
    assert report.equal and report.n_rays == n * n


def test_cross_check_finite_length_drops_free_generators():
    report = cross_check(Window(0, 3), finite_length=True)
    assert report.n_generators == 9
    assert report.n_rays == 9
    assert report.equal


def test_dropping_facets_breaks_the_equality():
    for kwargs in ({"include_alpha": False}, {"include_gamma": False}):
        report = cross_check(Window(0, 3), **kwargs)
        assert not report.equal
        assert report.witnesses


def test_cross_check_raises_when_a_generator_breaks_a_facet(monkeypatch):
    facets = window_module.window_facets

    def with_a_bad_facet(w, *args, **kwargs):
        ineqs, eqs = facets(w, *args, **kwargs)
        fun, a = ineqs[0]  # epsilon(0, jmin), on which the free diagram at jmin is 1
        return ineqs + [(fun, tuple(-c for c in a))], eqs

    monkeypatch.setattr(window_module, "window_facets", with_a_bad_facet)
    with pytest.raises(AssertionError, match=r"\(0, inf\) violates epsilon\(0,0\)"):
        cross_check(Window(0, 2))


def test_cross_check_raises_when_a_generator_breaks_an_equality(monkeypatch):
    facets = window_module.window_facets

    def with_a_bad_equality(w, *args, **kwargs):
        ineqs, eqs = facets(w, *args, **kwargs)
        return ineqs, eqs + [ineqs[0]]  # epsilon(0, jmin) = 0, which the free diagram at jmin breaks

    monkeypatch.setattr(window_module, "window_facets", with_a_bad_equality)
    with pytest.raises(AssertionError, match=r"\(0, inf\) violates epsilon\(0,0\) = 0"):
        cross_check(Window(0, 2))


def test_width_one_windows():
    report = cross_check(Window(2, 2))
    assert report.n_generators == 1 and report.n_rays == 1 and report.equal
    report = cross_check(Window(2, 2), finite_length=True)
    assert report.n_generators == 0 and report.n_rays == 0 and report.equal


def test_dimension_cap(monkeypatch):
    with pytest.raises(WindowCapError):
        cross_check(Window(0, 6))
    monkeypatch.setattr(window_module, "MAX_WINDOW_DIM", 21)
    assert cross_check(Window(0, 6)).equal
