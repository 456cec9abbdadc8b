"""Finite windows of the Betti cone, and the generator/facet cross check.

Restricting tables to rows 0..2 and a column range [jmin, jmax] (higher rows
ride along through the doubling identities) makes the cone a polyhedral cone
in 3 * width coordinates.  Both descriptions become finite:

* generators: the degree sequences d whose pure diagrams pi_d fit inside the
  window, each pi_d read off d by make_pure_diagram;
* facets: entrywise nonnegativity, the alpha functionals, and the cumulative
  gamma functionals, each truncated to the window coordinates.

extreme_rays recovers the generator description from the facet description by
double description, so the two can be compared exactly.  The alpha index runs
from jmin - 1 (that first one reads -v_{2,jmin} >= 0 and is what pins row 2
mass to lie above row 1 mass inside the window) and gamma is accumulated from
jmin - 2 up to jmax.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .tables import (
    BettiTable,
    DegreeSequence,
    Functional,
    _Checked,
    _cone_functionals,
    make_pure_diagram,
)

_ROWS = (0, 1, 2)


# Largest window dimension (3 * width) cross_check accepts: width 6, such as
# the window [0, 5].
MAX_WINDOW_DIM = 18


class WindowCapError(ValueError):
    """Window too wide for the double description pass."""


class Window(_Checked, namedtuple("Window", "jmin jmax")):
    __slots__ = ()

    def __new__(cls, jmin: int, jmax: int):
        if type(jmin) is not int or type(jmax) is not int:
            raise ValueError(f"window bounds must be ints, got [{jmin!r}, {jmax!r}]")
        if jmin > jmax:
            raise ValueError(f"empty window [{jmin}, {jmax}]")
        return super().__new__(cls, jmin, jmax)

    @property
    def width(self) -> int:
        return self.jmax - self.jmin + 1

    @property
    def dim(self) -> int:
        return 3 * self.width

    def columns(self):
        return range(self.jmin, self.jmax + 1)

    def index(self, i: int, j: int) -> int:
        if i not in _ROWS or not self.jmin <= j <= self.jmax:
            raise ValueError(f"({i}, {j}) outside window [{self.jmin}, {self.jmax}]")
        return i * self.width + (j - self.jmin)


def window_generators(w: Window, finite_length: bool = False) -> list[DegreeSequence]:
    """Degree sequences whose pure diagrams lie inside the window, ordered free
    first, then two step, then tails.  finite_length drops the free ones."""
    gens = [] if finite_length else [DegreeSequence.free(d0) for d0 in w.columns()]
    for d0 in w.columns():
        gens += (DegreeSequence.two_step(d0, d1) for d1 in range(d0 + 1, w.jmax + 1))
    for d0 in w.columns():
        gens += (DegreeSequence.tail(d0, d1) for d1 in range(d0 + 1, w.jmax))  # d1 + 1 inside too
    return gens


def table_vector(table: BettiTable, w: Window) -> list[Fraction]:
    """Rows 0..2 of a table as window coordinates.  Mass outside the columns
    is an error; stored rows >= 3 are ignored, the window does not see them."""
    vec = [Fraction(0)] * w.dim
    for (i, j), v in table.items():
        if i <= 2:
            vec[w.index(i, j)] = v
    return vec


def window_facets(w: Window, finite_length: bool = False,
                  include_alpha: bool = True, include_gamma: bool = True):
    """(inequalities, equalities) as (Functional, coefficient vector) pairs.
    A vector holds the functional's values on the window's unit tables, read
    across the columns of one scan of them: alpha and gamma at its keys, and
    gamma_inf, the finite length equality."""
    cells = [(i, j) for i in _ROWS for j in w.columns()]
    ineqs = [(Functional.epsilon(*ij), tuple(int(ij == other) for other in cells)) for ij in cells]
    alpha_keys, alphas, gamma_keys, gammas, gamma_inf = _cone_functionals(*([(ij, 1)] for ij in cells))
    if include_alpha:
        ineqs += zip(map(Functional.alpha, alpha_keys), zip(*alphas))
    if include_gamma:
        ineqs += zip(map(Functional.gamma, gamma_keys), zip(*gammas))
    eqs = [(Functional.gamma_inf(), tuple(gamma_inf))] if finite_length else []
    return ineqs, eqs


def _dot(a, r):
    return sum(c * x for c, x in zip(a, r))


def normalize_ray(vec) -> tuple[int, ...]:
    """Primitive integer vector on the same ray."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints) if ints else 1
    if g == 0:
        raise ValueError("zero vector is not a ray")
    return tuple(x // g for x in ints)


def extreme_rays(dim: int, ineqs, eqs=()):
    """Extreme rays of {v : a.v >= 0 for ineqs, b.v = 0 for eqs} by double
    description, assuming the inequalities contain the coordinate orthant
    (ours always do).  Rays are kept as primitive integer tuples throughout,
    and are returned sorted.

    Each ray carries an int bitmask of the constraints it is flat on: bit n
    for coordinate n, bit dim + t for the t-th constraint processed.  A new
    ray is a strictly positive combination of its two parents, so it is flat
    exactly where both of them are, and on the new constraint."""
    full = (1 << dim) - 1
    rays = {tuple(int(m == n) for m in range(dim)): full ^ (1 << n) for n in range(dim)}
    todo = list(ineqs)
    for b in eqs:
        todo.append(b)
        todo.append(tuple(-c for c in b))
    for t, a in enumerate(todo):
        bit = 1 << (dim + t)
        vals = {r: _dot(a, r) for r in rays}
        plus = [r for r, v in vals.items() if v > 0]
        minus = [r for r, v in vals.items() if v < 0]
        new = {r: m | bit if vals[r] == 0 else m for r, m in rays.items() if vals[r] >= 0}
        for rp in plus:
            for rm in minus:
                common = rays[rp] & rays[rm]
                # adjacency: no third extreme ray flat on every constraint both are flat on
                if any(common & m == common for o, m in rays.items() if o != rp and o != rm):
                    continue
                combo = [vals[rp] * cm - vals[rm] * cp for cp, cm in zip(rp, rm)]
                new.setdefault(normalize_ray(combo), common | bit)
        rays = new
    return sorted(rays)


class WindowReport(NamedTuple):
    window: Window
    n_generators: int
    n_facets: int
    n_rays: int
    equal: bool
    witnesses: tuple[str, ...]
    rays: tuple[tuple[int, ...], ...]


def cross_check(w: Window, finite_length: bool = False, include_alpha: bool = True,
                include_gamma: bool = True) -> WindowReport:
    """Compare the generator and facet descriptions on a window.

    The generators are checked against every facet (a failure there is a bug
    and raises AssertionError), then the facet cone's extreme rays are matched
    one to one against the generators up to positive scaling.  Dropping alpha
    or gamma facets widens the cone and shows up as witness rays.  Cost: the
    dense Fraction check of every generator against every facet, O(w^4)
    products for width w, is most of it; double description adds, per
    constraint, one int bitmask test per (plus, minus, other) triple of rays.
    """
    if w.dim > MAX_WINDOW_DIM:
        raise WindowCapError(f"window dimension {w.dim} exceeds cap {MAX_WINDOW_DIM}")
    gens = window_generators(w, finite_length)
    ineqs, eqs = window_facets(w, finite_length, include_alpha, include_gamma)
    gen_norm = []
    for d in gens:
        vec = table_vector(make_pure_diagram(d), w)
        for fun, a in ineqs:
            if _dot(a, vec) < 0:
                raise AssertionError(f"{d} violates {fun.label()}")
        for fun, b in eqs:
            if _dot(b, vec) != 0:
                raise AssertionError(f"{d} violates {fun.label()} = 0")
        gen_norm.append(normalize_ray(vec))
    rays = extreme_rays(w.dim, [a for _, a in ineqs], [b for _, b in eqs])
    gen_set = set(gen_norm)
    ray_set = set(rays)
    witnesses = []
    for r in rays:
        if r not in gen_set:
            witnesses.append(f"extreme ray {r} is not a pure diagram of the window")
    for d, gv in zip(gens, gen_norm):
        if gv not in ray_set:
            witnesses.append(f"pure diagram {d} is not an extreme ray")
    return WindowReport(
        window=w,
        n_generators=len(gens),
        n_facets=len(ineqs) + len(eqs),
        n_rays=len(rays),
        equal=not witnesses,
        witnesses=tuple(witnesses),
        rays=tuple(rays),
    )
