"""Reference arithmetic for the tests, kept apart from the package code the
tests judge.  The table helpers are written from the definitions in the
Functional docstring, not from the package's own evaluators
(tables._cone_functionals and tables._doubling_equalities); each takes a
BettiTable or a plain dict of entries: anything whose items() gives
((i, j), value) pairs.  kernel_basis is a Gauss-Jordan elimination of its
own, not linalg.SpanTracker."""

from fractions import Fraction
from math import gcd, lcm

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


def kernel_basis(rows, ncols: int, field) -> list[list[int]]:
    """Basis of the right kernel of a matrix given as a list of int rows, over
    field (Q for p = 0, F_p otherwise): one int vector per free column of the
    reduced echelon form, nonzero at that column and zero past it.  Over F_p
    the entries are residues mod p.  Column by column Gauss-Jordan on ints:
    over Q fraction free, each row divided by its content."""
    p = field.p
    m = [row for row in ([a % p for a in row] if p else list(row) for row in rows) if any(row)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top, lead = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [lead * a - f * b for a, b in zip(row, top)]
                if p:
                    row = [a % p for a in row]
                elif any(row):
                    g = gcd(*row)
                    row = [a // g for a in row]
                m[i] = row
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        if p:
            vec[free] = 1
            for row, c in zip(m, pivots):
                vec[c] = -row[free] * pow(row[c], -1, p) % p
        else:
            scale = lcm(*(row[c] for row, c in zip(m, pivots)))
            vec[free] = scale
            for row, c in zip(m, pivots):
                vec[c] = -row[free] * scale // row[c]
        basis.append(vec)
    return basis
