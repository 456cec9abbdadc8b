"""Membership and decomposition for the cone of Betti tables.

The cone has two exact descriptions and this module implements both sides:

* halfspaces: all entries nonnegative, alpha_k >= 0 and gamma_k >= 0 for every
  k, plus the doubling equalities 2*v[i, j] = v[i + 1, j + 1] in rows i >= 2;
* generators: nonnegative rational combinations of the pure diagrams pi_d.

check_graded scans the halfspaces in a fixed order and returns the first
violated functional as a certificate; on success the certificate is an exact
greedy decomposition into pure diagrams.  The finite length variant adds the
single condition gamma_inf = 0, which kills the free summands.

alpha_k and gamma_k change only at the shifted degrees j - i of stored entries,
so the membership scan and the decomposition's ratio test read just those
breakpoints, as the aligned key and value columns of tables._cone_functionals:
their cost follows the number of stored entries, not the span of degrees
between them.  A greedy round builds no table: one pass over the keys of
its residual dict for the pivot, the ratio test over the breakpoints where
pi_d is positive, and an update of pi_d's 1-3 int entries.  The residual
keeps the table's own scalars, an integral entry as an int; the ratio test
compares by cross-multiplying and builds a Fraction only for a new minimum,
so every coefficient is an exact Fraction.

The membership scan runs on ints: it multiplies the entries once by L, the
lcm of their denominators, and reports a violated value as value / L.  A table
whose L passes MAX_COEFFICIENT_BITS bits is refused with ValueError before
the scan, as entries with pairwise coprime denominators would make every sum
of the scan, and every greedy round after it, that many bits wide.

Its cost: one pass over the entries in storage order, with one multiply each
and one lcm per distinct denominator, no sort of the entries (the first
negative entry is the least (i, j) among the negative ones), then one pass
to build the columns and one sort of the alpha and of the gamma breakpoints.
The first negative value of each column is found at C level, with no Python
loop over the breakpoints.

The local cone over Betti sequences (b0, b1, b2) is the graded cone on the
diagonal table {(0, 0): b0, (1, 1): b1, (2, 2): b2}; its rays (1,0,0), (1,1,0)
and (1,3,6) are rows 0..2 of the free, two-step and tail pure diagrams.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import gt, lt, mul
from typing import NamedTuple

from .tables import (
    ALPHA,
    EXPLICIT,
    FREE,
    GAMMA,
    MAX_COEFFICIENT_BITS,
    TAIL,
    TWO_STEP,
    BettiTable,
    DegreeSequence,
    Functional,
    RationalLike,
    _Checked,
    _broken_doubling,
    _cone_functionals,
    _echo,
    _rational,
)


class NotInConeError(ValueError):
    """Raised when an operation requires a cone member and the input is not one."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"table is not in the cone: {violation.label} = {_echo(violation.value, str)}")


class DecompositionLoopError(RuntimeError):
    """Greedy decomposition ran past its iteration cap; carries the residual."""

    def __init__(self, residual, terms):
        self.residual = residual
        self.terms = terms
        super().__init__(
            f"no progress after {len(terms)} subtractions; residual support {_echo(residual.support())}"
        )


class Violation(NamedTuple):
    """A functional with a value that breaks membership (negative, or nonzero
    for an equality constraint)."""

    label: str
    value: Fraction
    functional: Functional | None = None


class Decomposition(NamedTuple):
    """Nonnegative combination of pure diagrams, in greedy subtraction order."""

    terms: tuple[tuple[DegreeSequence, Fraction], ...]

    def recombine(self) -> BettiTable:
        total: dict[tuple[int, int], Fraction] = {}
        for d, coeff in self.terms:
            for ij, pval in d._pure_entries().items():
                total[ij] = total.get(ij, 0) + coeff * pval
        return BettiTable(total)


class MembershipVerdict(NamedTuple):
    member: bool
    decomposition: object | None = None
    violation: Violation | None = None


def _scaled(v: BettiTable) -> tuple[list, list, int]:
    """The positions of v's entries, and the entries times L, the lcm of
    their denominators, as two aligned lists in storage order; and L.
    Raises ValueError once L passes MAX_COEFFICIENT_BITS bits, which the lcm
    over the distinct denominators alone decides."""
    ratios = [q.as_integer_ratio() for q in v._entries.values()]
    nums, dens = zip(*ratios) if ratios else ((), ())
    factor = dict.fromkeys(dens)
    scale = 1
    for d in factor:
        scale = lcm(scale, d)
        if scale.bit_length() - 1 > MAX_COEFFICIENT_BITS:
            raise ValueError(f"the lcm of the entry denominators passes {MAX_COEFFICIENT_BITS} bits")
    for d in factor:
        factor[d] = scale // d
    return list(v._entries), list(map(mul, nums, map(factor.__getitem__, dens))), scale


def _violation(f: Functional, val, scale: int) -> Violation:
    return Violation(f.label(), Fraction(val, scale), f)


def _first_violation(v: BettiTable, finite_length: bool = False) -> Violation | None:
    """First violated halfspace in the fixed scan order: doubling equalities,
    then epsilon, then alpha, then gamma, each by increasing index, and last
    gamma_inf = 0 when finite_length is set.  Past the doubling equalities,
    each first negative value is found by a C-level search of a column."""
    keys, values, scale = _scaled(v)
    broken = _broken_doubling(dict(zip(keys, values))) if v.tail_mode == EXPLICIT else None
    if broken is not None:
        return _violation(Functional.doubling_eq(*broken[:2]), broken[2], scale)
    zero = repeat(0)
    if min(values, default=0) < 0:  # positions are distinct, so min compares (i, j) alone
        ij, val = min(compress(zip(keys, values), map(lt, values, zero)))
        return _violation(Functional.epsilon(*ij), val, scale)
    alpha_keys, (alphas,), gamma_keys, (gammas,), (gamma_inf,) = _cone_functionals(zip(keys, values))
    for kind, ks, vals in ((ALPHA, alpha_keys, alphas), (GAMMA, gamma_keys, gammas)):
        hit = next(compress(zip(ks, vals), map(lt, vals, zero)), None)
        if hit is not None:
            return _violation(Functional(kind, k=hit[0]), hit[1], scale)
    if finite_length and gamma_inf != 0:
        return _violation(Functional.gamma_inf(), gamma_inf, scale)
    return None


def _check(v: BettiTable, finite_length: bool) -> MembershipVerdict:
    viol = _first_violation(v, finite_length)
    if viol is not None:
        return MembershipVerdict(False, violation=viol)
    return MembershipVerdict(True, decomposition=_greedy(v))


def check_graded(v: BettiTable) -> MembershipVerdict:
    """Membership in the graded cone, with a certificate either way.  Raises
    ValueError when the lcm of the entry denominators passes
    MAX_COEFFICIENT_BITS bits.  Cost: O(entries + b log b) for a non-member,
    b the breakpoints; a member adds the greedy, up to one round per entry,
    each a pass over the residual and a ratio test over its breakpoints, so
    O(entries^2) operations on the entries' ints and Fractions."""
    return _check(v, finite_length=False)


def check_finite_length(v: BettiTable) -> MembershipVerdict:
    """Membership in the finite length cone: graded membership plus gamma_inf = 0."""
    return _check(v, finite_length=True)


def _max_step(v: dict, pi: dict) -> Fraction:
    """Largest c with v - c*pi still in the cone, by an exact ratio test over
    every functional that is positive on pi, on entry dicts with pi's keys in v.

    On the pivot _greedy picks, no functional binds below the bound from pi's
    own entries, min v[ij] / pi[ij].  Let d0 and d1 be the lowest degrees of
    rows 0 and 1 of the member v.  From alpha >= 0, v[2, m] <= 2 v[1, m - 1]
    = 0 for every m <= d1, and row 1 is empty below d1.  So gamma_k =
    3 * (sum over j <= k of v[0, j]) >= 3 v[0, d0] for d0 <= k < d1 - 1, and
    for every k >= d0 when row 1 is empty.  Those are the only gammas that
    are positive on pi (value 3); on the free shape gamma_inf, the same sum
    over all j, is positive too.  The only positive alpha is alpha_{d1} = 2,
    on the two-step shape, which the pivot picks only when v[2, d1 + 1] = 0,
    so alpha_{d1}(v) / 2 = v[1, d1].  The scan stays as the cone's own ratio
    test; test_each_greedy_step_is_the_entry_bound pins the equality.

    The bound starts as the least Fraction v[ij] / pi[ij].  The scan reads
    only where pi's column is positive, and skips gamma_inf: on the free
    shape it equals the last gamma, on v and on pi alike, and on the other
    shapes it is 0 on pi.  It tests a candidate val / pval by cross-
    multiplying, val < best * pval, so the loop never divides, and builds
    the Fraction only for a new minimum."""
    best = min(Fraction(v[ij], pval) for ij, pval in pi.items())
    _, alphas, _, gammas, _ = _cone_functionals(v.items(), pi.items())
    for vals, pvals in (alphas, gammas):
        for val, pval in compress(zip(vals, pvals), map(gt, pvals, repeat(0))):
            if val < best * pval:
                best = Fraction(val, pval)
    return best


def decompose(v: BettiTable) -> Decomposition:
    """Greedy exact decomposition of a cone member into pure diagrams.

    Each round picks d0 and d1 as the lowest degrees with mass in rows 0 and 1
    (d1 = inf when row 1 is empty), prefers the tail shape when row 2 has mass
    at d1 + 1, and subtracts the largest multiple of pi_d that keeps the
    residual in the cone.  A round costs one pass over the residual's keys for
    the pivot, the ratio test over the breakpoints, and an update of 1-3
    entries.  The binding functional of the ratio test zeroes at least one
    support entry per round, so the iteration cap of 3*|support| + 3 is
    generous; hitting it raises with the residual attached.  A table whose
    entry denominators have an lcm past MAX_COEFFICIENT_BITS bits is refused
    with ValueError, as in check_graded.  Cost: that of check_graded on a
    member, O(entries^2) operations on the entries' ints and Fractions.
    """
    viol = _first_violation(v)
    if viol is not None:
        raise NotInConeError(viol)
    return _greedy(v)


def _greedy(v: BettiTable) -> Decomposition:
    """The rounds of decompose on the rows 0..2 of a known member, on one
    residual dict in the table's own scalars: a round reads d0 and d1 off one
    pass over its keys, pi_d's 1-3 int entries off d._pure_entries(), runs the
    ratio test, and subtracts c*pi_d in place, deleting keys at 0.  An entry
    is an int while it is integral, the rule of BettiTable, and c is an exact
    Fraction, so each new entry is exact and stored as an int when integral.
    The pivot rule takes pi_d's keys from the residual's: the support never grows."""
    res = {ij: q for ij, q in v._entries.items() if ij[0] <= 2}
    terms: list[tuple[DegreeSequence, Fraction]] = []
    for _ in range(3 * len(res) + 3):
        if not res:
            break
        low = {}  # the least degree of each row
        for i, j in res:
            if i not in low or j < low[i]:
                low[i] = j
        d0, d1 = low.get(0), low.get(1)
        # in a member gamma at d1 - 1 puts row 0 mass below d1, so d0 exists
        if d0 is None:
            raise AssertionError(f"cone member without row 0 mass: {_echo(BettiTable(res))}")
        if d1 is None:
            d = DegreeSequence.free(d0)
        elif (2, d1 + 1) in res:
            d = DegreeSequence.tail(d0, d1)
        else:
            d = DegreeSequence.two_step(d0, d1)
        pi = d._pure_entries()  # ints; _max_step builds c as a Fraction
        c = _max_step(res, pi)
        if c <= 0:
            break
        terms.append((d, c))
        for ij, pval in pi.items():
            q = res[ij] - c * pval
            if not q:
                del res[ij]
            else:
                res[ij] = q.numerator if q.denominator == 1 else q
    if res:
        raise DecompositionLoopError(BettiTable(res), tuple(terms))
    return Decomposition(tuple(terms))


def degseq_leq(d: DegreeSequence, e: DegreeSequence) -> bool:
    """The order in which decomposition terms form a chain.

    d <= e when (d0, d1) <= (e0, e1) componentwise with one strict, whatever
    follows; when d0 = e0 and d1 = e1, d2 <= e2 decides (missing positions read
    as infinity).  So (2, 4, inf) <= (2, 7, 8), though not componentwise.
    """
    d0, e0 = d.degree(0), e.degree(0)
    d1, e1 = d.degree(1), e.degree(1)
    if d0 <= e0 and d1 <= e1 and (d0 < e0 or d1 < e1):
        return True
    if d0 == e0 and d1 == e1:
        # positions n >= 2 are determined by the shapes: tail gives d1 + n - 1,
        # anything else gives infinity, so one representative position decides
        return d.degree(2) <= e.degree(2)
    return False


# ---------------------------------------------------------------------------
# Local cone over Betti sequences (b0, b1, b2).


class BettiSequence(_Checked, namedtuple("BettiSequence", "b0 b1 b2")):
    """A total Betti sequence of rational values, each read by the value rule
    of tables._rational; signs are checked by check_local, not here."""

    __slots__ = ()

    def __new__(cls, b0: RationalLike, b1: RationalLike, b2: RationalLike):
        return super().__new__(cls, _rational(b0, "b0"), _rational(b1, "b1"), _rational(b2, "b2"))

    @classmethod
    def of(cls, b0: RationalLike, b1: RationalLike, b2: RationalLike) -> "BettiSequence":
        return cls(b0, b1, b2)


class LocalDecomposition(NamedTuple):
    """Coefficients over the local rays (1,0,0), (1,1,0), (1,3,6)."""

    a: Fraction
    b: Fraction
    c: Fraction

    RAYS = ((1, 0, 0), (1, 1, 0), (1, 3, 6))

    def terms(self) -> tuple[tuple[tuple[int, int, int], Fraction], ...]:
        return tuple(zip(self.RAYS, (self.a, self.b, self.c)))


_LOCAL_LABEL = {
    "epsilon(0,0)": "b0",
    "epsilon(1,1)": "b1",
    "epsilon(2,2)": "b2",
    "alpha(1)": "2b1-b2",
    "gamma(0)": "3b0+b2-3b1",
    "gamma_inf": "3b0+b2-3b1 == 0",
}


def check_local(s: BettiSequence, finite_length: bool = False) -> MembershipVerdict:
    """Membership of a Betti sequence in the local cone (graded by default):
    the graded verdict on the diagonal table, its violation renamed.  The scan
    order is b0, b1, b2, 2b1-b2, 3b0+b2-3b1, then, with finite_length, the
    equation 3b0+b2-3b1 == 0.  Raises ValueError as check_graded does."""
    verdict = _check(BettiTable({(0, 0): s.b0, (1, 1): s.b1, (2, 2): s.b2}), finite_length)
    if not verdict.member:
        viol = verdict.violation
        return verdict._replace(violation=viol._replace(label=_LOCAL_LABEL[viol.label]))
    coeff = dict.fromkeys((FREE, TWO_STEP, TAIL), Fraction(0))  # a, b, c
    for d, c in verdict.decomposition.terms:
        coeff[d.shape] += c
    return verdict._replace(decomposition=LocalDecomposition(*coeff.values()))


def decompose_local(s: BettiSequence, finite_length: bool = False) -> LocalDecomposition:
    """Unique coefficients over the local rays; the membership inequalities are
    exactly the statements a >= 0, b >= 0, c >= 0."""
    verdict = check_local(s, finite_length)
    if not verdict.member:
        raise NotInConeError(verdict.violation)
    return verdict.decomposition
