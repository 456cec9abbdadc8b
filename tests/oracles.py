"""Reference arithmetic for the tests, kept apart from the package code the
tests judge.  The table helpers are written from the definitions in the
Functional docstring, not from the package's own evaluators
(tables._cone_functionals and tables._doubling_equalities); each takes a
BettiTable or a plain dict of entries: anything whose items() gives
((i, j), value) pairs.  kernel_basis is a Gauss-Jordan elimination of its
own, not linalg.SpanTracker.  tor_betti computes Betti numbers as Tor
against the Koszul resolution of k, with an echelon form of its own and no
import from betticone.linalg.  scrambled_sum builds a module whose Betti
table is known without resolving it: a direct sum of the modules that
realise pure diagrams, under a random change of generators."""

from fractions import Fraction
from math import gcd, lcm

from betticone.resolve import BPolynomial, GradedModuleB
from betticone.tables import ALPHA, DOUBLING_EQ, EPSILON, FREE, GAMMA, GAMMA_INF, TWO_STEP


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


# -- Betti numbers from Tor ------------------------------------------------------
#
# B = k[x,y,z]/(xy,yz,xz) is a quadratic monomial ring, so it is Koszul, and
# the minimal resolution of k is K_i = B (x) span(words of length i in x, y, z
# with no letter twice in a row), generated in degree i, with
# d(1 (x) v w') = v (x) w'; d^2 = 0 as uv = 0 in B for u != v.  So
# beta_{i,j}(M) = dim H_i(M (x) K)_j, and (M (x) K)_{i,j} = M_{j-i} (x) words(i).


def _scalar(q, p: int):
    """The rational q in the field of characteristic p: a residue mod p, or
    a Fraction for p = 0."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, p) % p if p else q


def _echelon_add(pivots: dict, row: dict, p: int) -> bool:
    """Reduce row, a dict of column -> scalar, by the rows of pivots (lead
    column -> row with entry 1 there and no smaller column) and keep the
    residual as a new pivot row when it is nonzero.  True when it grew."""
    row = {c: a for c, a in row.items() if a}
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            inv = pow(row[lead], -1, p) if p else 1 / row[lead]
            pivots[lead] = {c: a * inv % p if p else a * inv for c, a in row.items()}
            return True
        f = row[lead]
        for c, a in piv.items():
            val = row.get(c, 0) - f * a
            val = val % p if p else val
            if val:
                row[c] = val
            else:
                row.pop(c, None)
    return False


def _normal_form(vec: dict, pivots: dict, p: int) -> dict:
    """vec reduced by every pivot row, so it is zero at each pivot column."""
    vec = dict(vec)
    for c in sorted(pivots):
        f = vec.get(c)
        if f:
            for cc, a in pivots[c].items():
                val = vec.get(cc, 0) - f * a
                vec[cc] = val % p if p else val
    return {c: a for c, a in vec.items() if a}


def koszul_words(i: int) -> list[str]:
    """The words of length i in x, y, z with no letter twice in a row."""
    words = [""]
    for _ in range(i):
        words = [w + v for w in words for v in "xyz" if not w.endswith(v)]
    return words


def tor_betti(M, deg_bound: int, hom_bound: int) -> dict:
    """{(i, j): beta_{i,j}} for i <= hom_bound and j <= deg_bound, the
    nonzero ones, as dim H_i(M (x) K)_j over M.field.

    M_t is F0_t / R_t: F0_t has the basis (k, "1") for a generator of degree
    t and (k, v), meaning v^(t - a) g_k, for a generator of degree a < t; R_t
    is spanned by the relations of degree t and the v^(t - e) multiples of
    those of degree e < t.  The columns of R_t's echelon form are dropped,
    and the others are the basis of M_t."""
    p = M.field.p
    relations = []
    for row in M.relations:
        vec, degrees = {}, set()
        for k, (a, poly) in enumerate(zip(M.gen_degrees, row)):
            for (var, e), q in poly.items():
                degrees.add(a + e)
                vec[k, var] = _scalar(q, p)
        if degrees:
            relations.append((degrees.pop(), vec))
    lo = min(M.gen_degrees, default=0)
    pieces = {}  # t -> (echelon form of R_t, basis of M_t)
    for t in range(lo, deg_bound + 2):
        pivots = {}
        for e, vec in relations:
            if e == t:
                _echelon_add(pivots, vec, p)
            elif e < t:
                for v in "xyz":
                    _echelon_add(pivots, {(k, v): a for (k, b), a in vec.items() if b in ("1", v)}, p)
        free = []
        for k, a in enumerate(M.gen_degrees):
            free += [(k, "1")] if a == t else [(k, v) for v in "xyz"] if a < t else []
        pieces[t] = (pivots, [lab for lab in free if lab not in pivots])

    def basis(t):
        return pieces[t][1] if t in pieces else []

    def times(v, t, lab):
        """v times the basis element lab of M_t, on the basis of M_{t+1}."""
        k, b = lab
        return _normal_form({(k, v): 1} if b in ("1", v) else {}, pieces[t + 1][0], p)

    def rank(i, t):
        """Rank of d: M_t (x) words(i) -> M_{t+1} (x) words(i - 1)."""
        if i == 0 or not basis(t):
            return 0
        pivots = {}
        for w in koszul_words(i):
            for lab in basis(t):
                _echelon_add(pivots, {(w[1:], c): a for c, a in times(w[0], t, lab).items()}, p)
        return len(pivots)

    betti = {}
    for i in range(hom_bound + 1):
        for j in range(lo + i, deg_bound + 1):
            t = j - i
            b = len(basis(t)) * len(koszul_words(i)) - rank(i, t) - rank(i + 1, t - 1)
            if b:
                betti[i, j] = b
    return betti


# -- modules with known Betti tables ---------------------------------------------
#
# With e = d1 - d0, the pure diagram of d is the Betti table of
#   free:     B(-d0);
#   two-step: B(-d0)/(x^e + y^e + z^e), as (x + y + z)^e = x^e + y^e + z^e in B
#             and x + y + z is a nonzerodivisor;
#   tail:     B(-d0)/(x^e, y^e, z^e).
# A graded automorphism of F_0 does not change the Betti table of a quotient.


def witness_relations(d) -> list[BPolynomial]:
    """The relations on the one generator, of degree d0, of the module that
    realises the pure diagram of the DegreeSequence d."""
    if d.shape == FREE:
        return []
    powers = [BPolynomial.monomial(v, d.d1 - d.d0) for v in "xyz"]
    return [powers[0] + powers[1] + powers[2]] if d.shape == TWO_STEP else powers


def _random_form(rng, degree: int) -> BPolynomial:
    """A random element of B of the given degree >= 0, coefficients in [-3, 3]."""
    if degree == 0:
        return BPolynomial.constant(rng.randint(-3, 3))
    return BPolynomial({(v, degree): rng.randint(-3, 3) for v in "xyz"})


def scrambled_sum(terms, field, rng) -> GradedModuleB:
    """The direct sum of m copies of each pure diagram's witness, for the
    (DegreeSequence, m) pairs of terms, with its generators changed by a
    random unitriangular graded automorphism of F_0.

    The automorphism sends g_i to g_i + sum of f_ij g_j over the j before i
    in a random order with d_j <= d_i, f_ij a random form of degree
    d_i - d_j.  A relation sum of r_i g_i then reads sum of
    (r_j + sum of r_i f_ij) g_j, so every generator meets relations of many
    summands, and the Betti table is the combination sum of m * pi_d."""
    degrees, rows = [], []
    for d, m in terms:
        for _ in range(m):
            degrees.append(d.d0)
            rows += [(len(degrees) - 1, rel) for rel in witness_relations(d)]
    r = len(degrees)
    order = list(range(r))
    rng.shuffle(order)
    shift = {}  # (i, j) -> f_ij
    for n, i in enumerate(order):
        for j in order[:n]:
            if degrees[j] <= degrees[i] and rng.random() < 0.5:
                shift[i, j] = _random_form(rng, degrees[i] - degrees[j])
    relations = []
    for k, rel in rows:
        row = [BPolynomial.zero()] * r
        row[k] = rel
        for (i, j), f in shift.items():
            if i == k:
                row[j] = row[j] + rel * f
        relations.append(row)
    return GradedModuleB(degrees, relations, field)
