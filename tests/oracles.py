"""Reference arithmetic on tables for the tests, written from the definitions
in the Functional docstring and kept apart from the package's own evaluators
(tables._cone_functionals and tables._doubling_equalities) that the tests
judge.  Each helper takes a BettiTable or a plain dict of entries: anything
whose items() gives ((i, j), value) pairs."""

from fractions import Fraction

from betticone.tables import ALPHA, DOUBLING_EQ, EPSILON, GAMMA, GAMMA_INF


def row_sum(v, i: int) -> Fraction:
    """Sum of the stored entries in row i."""
    return sum((x for (r, _), x in v.items() if r == i), Fraction(0))


def combine(a, u, b, v) -> dict:
    """a*u + b*v as a dict of entries; entries that cancel stay, as 0."""
    out = {ij: a * x for ij, x in u.items()}
    for ij, x in v.items():
        out[ij] = out.get(ij, 0) + b * x
    return out


def functional_value(f, v) -> Fraction:
    """Value of the Functional f on the BettiTable v, reading the entries
    through v.entry, so a canonical table's derived rows count too.

    epsilon(i, j)      v[i, j]
    alpha(k)           2*v[1, k] - v[2, k + 1]
    gamma(k)           sum over j <= k of 3*v[0, j] - 3*v[1, j + 1] + v[2, j + 2]
    gamma_inf          the same sum over all j: 3*row 0 - 3*row 1 + row 2
    doubling_eq(i, j)  2*v[i, j] - v[i + 1, j + 1]
    """
    if f.kind == EPSILON:
        return v.entry(f.i, f.j)
    if f.kind == ALPHA:
        return 2 * v.entry(1, f.k) - v.entry(2, f.k + 1)
    if f.kind == GAMMA:
        # the slice at j reads v[i, j + i], so a stored (i, j) counts once j - i <= k
        weight = {0: 3, 1: -3, 2: 1}
        return sum((weight[i] * x for (i, j), x in v.items() if i in weight and j - i <= f.k), Fraction(0))
    if f.kind == GAMMA_INF:
        return 3 * row_sum(v, 0) - 3 * row_sum(v, 1) + row_sum(v, 2)
    if f.kind == DOUBLING_EQ:
        return 2 * v.entry(f.i, f.j) - v.entry(f.i + 1, f.j + 1)
    raise ValueError(f"unknown functional kind: {f.kind!r}")
