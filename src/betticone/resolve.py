"""Minimal graded free resolutions over B = k[x,y,z]/(xy,yz,xz).

B has a very small monomial basis: 1 in degree 0 and the three pure powers
x^d, y^d, z^d in each degree d >= 1, with mixed products vanishing.  So B is
the fiber product of the three lines k[x], k[y], k[z] over k, and the engine
works in branch coordinates:

* an element of a free module B(-a1) + ... + B(-ar) with no entry of degree 0
  is x^e, y^e and z^e times three scalar vectors over the generators (each e
  set by the degrees), kept as one int row of 3r coordinates: the x block,
  the y block, the z block.  Multiplying by v keeps the v block and kills the
  other two.  Relations are such elements, as every relation entry has
  positive degree, and so are minimal syzygies, as a syzygy with a degree 0
  entry would contradict minimality;
* rows 1 and 2 come from one walk up the relation degrees.  In degree d the
  relation submodule is W_d plus the span of the relations of degree d, where
  W_d is the span of the branch blocks of the minimal relations of degree
  < d: the v multiple of a relation of degree e < d is its v block, whatever
  d is, and the blocks of a relation that is not minimal lie in the span of
  those of the minimal ones.  One span tracker on the 3r coordinates holds W,
  and in each degree that has relations a fresh tracker starts from a copy of
  W and takes them: the relations that grow it are the minimal ones, born in
  degree d;
* at step 2 the degree d kernel of F_1 -> F_0 has no entry of degree 0, as
  the generators of F_1 map to minimal generators, so it splits into three
  branch kernels: the branch v kernel is the space of linear relations among
  the v blocks of the minimal relations of degree < d.  The walk feeds W the
  blocks of the relations born in degree d - 1, and each block that does not
  grow W, a zero block included, is one new relation among v blocks: a
  minimal generator of degree d that lies in branch v alone and ends at the
  column of its own relation.  So row 2 is the count of the blocks that do
  not grow W, and no elimination finds it;
* rows 3 on are row 2 doubled, by construction.  A step 2 generator lies in
  one branch, so in every other branch its column at step 3 is zero and its
  kernel vector is the unit vector there, of degree one more.  The nonzero
  columns of branch w are the step 2 generators of branch w, each ending at
  its own column, so they are triangular, hence independent, and add no
  kernel.  Row 3 is therefore row 2 doubled and shifted up one degree.
  Every step 3 generator is then a unit vector in one branch, and the same
  argument carries on by induction: a generator of degree b in branch v gives
  one generator of degree b + 1 in each of the two other branches.  So row i
  is row i - 1 doubled and shifted for every i >= 3, and tables.expand_tail
  writes rows 2..hom_bound at O(entries in row 2) each, with no elimination,
  dropping entries past deg_bound.  The cost follows hom_bound, not deg_bound.

So rows 0..2, one canonical BettiTable, are the whole table, and as B is
Koszul with Hilbert series (1 + 2t)/(1 - t), the alternating sum of the rows is
H_M(t)(1 - t) = (1 + 2t)(beta_0(t) - beta_1(t)) + beta_2(t), for the row
series beta_i(t) = sum_j beta_{i,j} t^j.

Presentations are kept minimal by construction, so the Betti numbers are
literal generator counts and every reported entry with degree <= deg_bound is
exact.  A row with mass at deg_bound may continue past the window, and so
may row 0 or 1 when a generator or minimal relation lies past it; such a row
is flagged as truncated, as is every row after it, whose syzygies lie past
the window.  A redundant relation, one the others generate, changes no output.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple

from .linalg import FP_DEFAULT, Field, SpanTracker
from .tables import MAX_COEFFICIENT_BITS, MAX_HOM_BOUND, BettiTable, _Checked, _rational, _window_and_cut

_VARS = ("x", "y", "z")
_UNIT = ("1", 0)


def _mono_mul(m1, m2):
    v1, e1 = m1
    v2, e2 = m2
    if e1 == 0:
        return m2
    if e2 == 0:
        return m1
    if v1 != v2:
        return None  # mixed products vanish in B
    return (v1, e1 + e2)


class BPolynomial:
    """Element of B on the monomial basis {1} + {x^e, y^e, z^e : e >= 1}, from a
    mapping of monomials, ("1", 0) or (var, e) with e an int, to coefficients;
    a float is refused.  A coefficient is an int when integral and a Fraction otherwise."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        items: dict[tuple[str, int], int | Fraction] = {}
        for mono, q in (coeffs or {}).items():
            var, exp = mono
            if type(exp) is not int or mono != _UNIT and (var not in _VARS or exp < 1):
                raise ValueError(f"bad monomial {mono!r}")
            q = q if type(q) is int else _rational(q)
            if q:
                items[mono] = q
        self._coeffs = items

    @classmethod
    def zero(cls) -> "BPolynomial":
        return cls()

    @classmethod
    def constant(cls, q) -> "BPolynomial":
        return cls({_UNIT: q})

    @classmethod
    def variable(cls, var: str) -> "BPolynomial":
        return cls({(var, 1): 1})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff=1) -> "BPolynomial":
        if exp == 0 and type(exp) is int:  # a float or bool zero is refused below
            return cls.constant(coeff)
        return cls({(var, exp): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self):
        return tuple(sorted(self._coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])))

    @property
    def is_homogeneous(self) -> bool:
        return len({exp for (_, exp) in self._coeffs}) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous element."""
        exps = {exp for (_, exp) in self._coeffs}
        if not exps:
            raise ValueError("the zero element has no degree")
        if len(exps) > 1:
            raise ValueError(f"inhomogeneous element: {self}")
        return exps.pop()

    def __add__(self, other):
        if not isinstance(other, BPolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for mono, q in other._coeffs.items():
            out[mono] = out.get(mono, 0) + q
        return BPolynomial(out)

    def __neg__(self):
        return BPolynomial({m: -q for m, q in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BPolynomial.constant(other)
        if not isinstance(other, BPolynomial):
            return NotImplemented
        out: dict[tuple[str, int], int | Fraction] = {}
        for m1, q1 in self._coeffs.items():
            for m2, q2 in other._coeffs.items():
                m = _mono_mul(m1, m2)
                if m is None:
                    continue
                out[m] = out.get(m, 0) + q1 * q2
        return BPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        if n == 0:
            return BPolynomial.constant(1)
        if self.is_homogeneous:
            # mixed products vanish in B, so only the n-th powers of the terms remain
            return BPolynomial({(v, e * n): q ** n for (v, e), q in self._coeffs.items()})
        out, square = BPolynomial.constant(1), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __eq__(self, other):
        if not isinstance(other, BPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self.items())

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for (var, exp), q in self.items():
            if exp == 0:
                body = str(abs(q))
            else:
                head = "" if abs(q) == 1 else f"{abs(q)}*"
                body = f"{head}{var}" if exp == 1 else f"{head}{var}^{exp}"
            parts.append(("-" if q < 0 else "+", body))
        sign, body = parts[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"BPolynomial({self})"


class PolyParseError(ValueError):
    pass


# Largest degree parse_poly lets a power or a product reach while it is
# inhomogeneous.  Term counts and coefficient sizes grow with that degree, so
# bounding it bounds the cost of every power and of every chain of products.
MAX_INHOMOGENEOUS_POWER_DEGREE = 64

# Deepest nesting of parentheses parse_poly follows; each level is a few
# frames of its recursive descent.
MAX_NESTING = 50


def _top_degree(p: BPolynomial) -> int:
    return max((exp for _, exp in p._coeffs), default=0)


def _coefficient_bits(p: BPolynomial) -> int:
    """floor(log2) of the largest numerator or denominator of p, 0 for +-1."""
    return max((max(abs(q.numerator), q.denominator).bit_length() - 1 for q in p._coeffs.values()), default=0)


def parse_poly(text: str) -> BPolynomial:
    """Parse a polynomial in x, y, z with rational coefficients.

    Accepts +, -, *, ^, parentheses, and rationals like 1/2, so both
    x^2 - 1/2*y^2 and (x+y+z)^3 parse (the latter is stored reduced).  A power
    of an inhomogeneous base is refused once its degree would pass
    MAX_INHOMOGENEOUS_POWER_DEGREE, and so is a product whose result is
    inhomogeneous above that degree.  Powers and products whose coefficients
    would pass MAX_COEFFICIENT_BITS bits are refused too, and so are
    parentheses nested deeper than MAX_NESTING.
    """
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos]

    def ended():
        empty = not text.strip()
        return PolyParseError("empty entry, no polynomial given" if empty else f"input ends early in {text!r}")

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ended() if tok[0] == "end" else PolyParseError(f"expected {kind}, got {tok[1]!r} in {text!r}")
        pos += 1
        return tok

    def atom():
        nonlocal depth
        kind, val = peek()
        if kind == "int":
            take()
            if peek() == ("op", "/"):
                take()
                _, den = take("int")
                if den == 0:
                    raise PolyParseError(f"zero denominator in {text!r}")
                return BPolynomial.constant(Fraction(val, den))
            return BPolynomial.constant(val)
        if kind == "var":
            take()
            return BPolynomial.variable(val)
        if (kind, val) == ("op", "("):
            take()
            depth += 1
            if depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING} in {text!r}")
            inner = expr()
            if peek() != ("op", ")"):
                raise PolyParseError(f"missing ')' in {text!r}")
            take()
            depth -= 1
            return inner
        if kind == "end":
            raise ended()
        raise PolyParseError(f"unexpected {val!r} in {text!r}")

    def factor():
        base = atom()
        if peek() == ("op", "^"):
            take()
            _, n = take("int")
            if not base.is_homogeneous and n * _top_degree(base) > MAX_INHOMOGENEOUS_POWER_DEGREE:
                raise PolyParseError(
                    f"power of an inhomogeneous base above degree {MAX_INHOMOGENEOUS_POWER_DEGREE}"
                    f" in {text!r}"
                )
            if n * _coefficient_bits(base) > MAX_COEFFICIENT_BITS:
                raise PolyParseError(f"power with coefficients above {MAX_COEFFICIENT_BITS} bits in {text!r}")
            return base ** n
        return base

    def term():
        out = factor()
        while peek() == ("op", "*"):
            take()
            out = out * factor()
            if not out.is_homogeneous and _top_degree(out) > MAX_INHOMOGENEOUS_POWER_DEGREE:
                raise PolyParseError(
                    f"product inhomogeneous above degree {MAX_INHOMOGENEOUS_POWER_DEGREE} in {text!r}"
                )
            if _coefficient_bits(out) > MAX_COEFFICIENT_BITS:
                raise PolyParseError(f"product with coefficients above {MAX_COEFFICIENT_BITS} bits in {text!r}")
        return out

    def expr():
        negate = False
        if peek() in (("op", "+"), ("op", "-")):
            negate = take()[1] == "-"
        out = term()
        if negate:
            out = -out
        while peek() in (("op", "+"), ("op", "-")):
            minus = take()[1] == "-"
            nxt = term()
            out = out - nxt if minus else out + nxt
        return out

    result = expr()
    if peek() != ("end", ""):
        raise PolyParseError(f"trailing input {peek()[1]!r} in {text!r}")
    return result


# A token: an int (\d is a decimal digit, which int() reads), a variable, an
# operator, or any other non-space character, which is refused.
_TOKEN = re.compile(r"(\d+)|([xyz])|([-+*/^()])|(\S)")


def _tokenize(text: str):
    tokens = []
    for digits, var, op, bad in _TOKEN.findall(text):
        if bad:
            raise PolyParseError(f"bad character {bad!r} in {text!r}")
        if digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError:  # a run past Python's limit on int-to-text digits
                raise PolyParseError(f"integer of {len(digits)} digits is too long in {text!r}") from None
        else:
            tokens.append(("var", var) if var else ("op", op))
    tokens.append(("end", ""))
    return tokens


# Widest span of the minimal generator and relation degrees, rows 0..1 of a
# module's table, that a module may have.  The Hilbert numerator has one
# coefficient per degree of that span; a redundant relation adds none.
MAX_DEGREE_SPAN = 10_000


class StabilizationError(RuntimeError):
    """The degree bound stops short of the degree past which the Hilbert
    function is proved constant."""


class GradedModuleB(_Checked, namedtuple("GradedModuleB", "gen_degrees relations field")):
    """Finitely presented graded B-module: generator degrees plus homogeneous
    relation rows.  Every relation entry must have positive degree, so the
    presentation is minimal and row 0 of the Betti table can be read off.
    Each relation is also kept as (degree, int row over the field in branch
    coordinates, see the module doc), so a coefficient the field cannot hold
    is rejected when the module is built.  Its relation walk (_relation_walk)
    is taken once here and folded into _rows, the canonical BettiTable of rows
    0..2; the resolution and the Hilbert data read it and gen_degrees alone.
    Then a module is refused if rows 0..1 span more than MAX_DEGREE_SPAN: the
    walk's cost does not depend on degrees, so a refused module costs no more
    than the same module would without its far degrees."""

    def __new__(cls, gen_degrees, relations=(), field=FP_DEFAULT):
        gen_degrees = tuple(gen_degrees)
        if any(type(a) is not int for a in gen_degrees):
            raise ValueError(f"generator degrees must be ints, got {gen_degrees!r}")
        if not isinstance(field, Field):
            raise ValueError(f"field must be a Field, such as QQ or PrimeField(p), got {field!r}")
        relations = tuple(tuple(row) for row in relations)
        r = len(gen_degrees)
        branch_rows = []
        for row in relations:
            if len(row) != r:
                raise ValueError(f"relation row of length {len(row)} against {r} generators")
            degs = set()
            coords = [0] * (3 * r)
            for k, (a, p) in enumerate(zip(gen_degrees, row)):
                if not isinstance(p, BPolynomial):
                    raise ValueError(f"relation entry must be a BPolynomial, got {p!r}")
                if p.is_zero:
                    continue
                if not p.is_homogeneous:
                    raise ValueError(f"inhomogeneous relation entry: {p}")
                e = p.degree()
                if e < 1:
                    raise ValueError(f"relation entry {p} is a unit, which makes the presentation non-minimal")
                degs.add(e + a)
                for (var, _), q in p._coeffs.items():
                    coords[_VARS.index(var) * r + k] = q
            if not degs:
                raise ValueError("zero relation row")
            if len(degs) > 1:
                raise ValueError(f"relation row is not homogeneous, degrees {sorted(degs)}")
            branch_rows.append((degs.pop(), field.int_row(coords)))
        self = super().__new__(cls, gen_degrees, relations, field)
        self._branch_rows = tuple(branch_rows)
        rows = Counter((0, a) for a in gen_degrees)
        for d, born, row2 in _relation_walk(self):
            rows[1, d], rows[2, d + 1] = len(born), row2
        self._rows = BettiTable(rows)  # drops the zero counts
        degrees = [j for i, j in self._rows._entries if i < 2]
        if degrees and max(degrees) - min(degrees) > MAX_DEGREE_SPAN:
            raise ValueError(f"generator and relation degrees span more than {MAX_DEGREE_SPAN}")
        return self

    def relation_degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self._branch_rows)

    def with_field(self, field) -> "GradedModuleB":
        return GradedModuleB(self.gen_degrees, self.relations, field)


def quotient_module(gens, field=FP_DEFAULT) -> GradedModuleB:
    """Cyclic quotient B/(g1, ..., gn) for homogeneous positive degree gi."""
    rows = tuple((parse_poly(g) if isinstance(g, str) else g,) for g in gens)
    return GradedModuleB((0,), rows, field)


BUILTIN_NAMES = ("B", "omega", "M1", "M2", "M3", "M12", "M13", "M23", "k_residue")


def builtin(name: str, field=FP_DEFAULT) -> GradedModuleB:
    """Standard test modules: the ring, its canonical module (presented as the
    cokernel of the 2 x 3 matrix with rows (-z, y, 0) and (0, -y, x)), the six
    monomial quotients, and the residue field."""
    x, y, z = map(BPolynomial.variable, _VARS)
    if name == "B":
        return GradedModuleB((0,), (), field)
    if name == "omega":
        rows = ((-z, BPolynomial.zero()), (y, -y), (BPolynomial.zero(), x))
        return GradedModuleB((0, 0), rows, field)
    quotients = {"M1": (x,), "M2": (y,), "M3": (z,), "M12": (x, y), "M13": (x, z), "M23": (y, z),
                 "k_residue": (x, y, z)}
    if name in quotients:
        return quotient_module(quotients[name], field)
    raise ValueError(f"unknown builtin {name!r}; admitted: {', '.join(BUILTIN_NAMES)}")


# ---------------------------------------------------------------------------
# The engine, in branch coordinates (see the module doc).


def _relation_walk(M: GradedModuleB):
    """Walk the relation submodule of M up the degrees that hold relations.
    Yields (d, born, row2): the relation rows of degree d that are minimal
    generators, and the number of minimal step 2 generators of degree d + 1
    (module doc).  In each such degree a fresh tracker starts from a copy of
    W's rows and takes the relations of degree d, so a relation is born
    exactly when it grows that tracker, and the tracker is dropped with its
    degree.  Then W takes the blocks of the relations born; a block that does
    not grow it counts in row2, and a zero block counts without entering it.
    So it costs O(relations) span operations, all SpanTracker.add, on 1 +
    (relation degrees) trackers; GradedModuleB takes it once, as M._rows."""
    r = len(M.gen_degrees)
    by_degree: dict[int, list] = {}
    for e, row in M._branch_rows:
        by_degree.setdefault(e, []).append(row)
    W = SpanTracker(M.field)
    for d in sorted(by_degree):
        span = SpanTracker(M.field)
        span.rows, span.pivots = W.rows[:], W.pivots[:]
        born = [row for row in by_degree[d] if span.add(row) is not None]
        row2 = 0
        for row in born:
            for at in range(0, 3 * r, r):
                block = row[at:at + r]
                if not any(block) or W.add([0] * at + block + [0] * (2 * r - at)) is None:
                    row2 += 1
        yield d, born, row2


class ResolutionResult(NamedTuple):
    """A Betti table on the window, expand_tail(M._rows, hom_bound, deg_bound),
    with its bounds.  tail_consistent, the doubling 2 beta_{i,j} =
    beta_{i+1,j+1} for i >= 2 inside the window, is always True: expand_tail
    writes rows 3 on by the doubling, which the module doc proves."""

    betti: BettiTable
    deg_bound: int
    hom_bound: int
    tail_consistent: bool
    truncated_rows: tuple[int, ...]


def min_free_resolution(M: GradedModuleB, deg_bound: int, hom_bound: int) -> ResolutionResult:
    """Betti table of a minimal free resolution on the window i <= hom_bound,
    j <= deg_bound, for any int deg_bound: expand_tail(M._rows, hom_bound,
    deg_bound), rows 0..2 cut at deg_bound and row 2 doubled past them (module
    doc).  Every reported entry is exact; truncated_rows lists the rows that
    may continue past deg_bound: a row with mass at deg_bound, row 0 when a
    generator lies past it, row 1 when a minimal relation does, and every row
    after such a row up to hom_bound.  Cost: O(entries of rows 0..2 +
    hom_bound * entries of row 2) here, after the walk that building M paid
    once, O(relations * rank * r) field operations for r generators."""
    if type(deg_bound) is not int or type(hom_bound) is not int:
        raise ValueError(f"deg_bound and hom_bound must be ints, got ({deg_bound!r}, {hom_bound!r})")
    if not 2 <= hom_bound <= MAX_HOM_BOUND:
        raise ValueError(f"hom_bound must be at least 2 and at most {MAX_HOM_BOUND}")
    table, first = _window_and_cut(M._rows, hom_bound, deg_bound)
    return ResolutionResult(table, deg_bound, hom_bound, True, tuple(range(first, hom_bound + 1)))


class HilbertData(NamedTuple):
    """Numerator of the Hilbert series against 1/(1 - t), and the multiplicity.

    numerator[n] is the coefficient of t^(offset + n); the multiplicity e is
    the stabilized dimension, equal to the numerator evaluated at t = 1.
    """

    offset: int
    numerator: tuple[int, ...]
    e: int


def hilbert_data(M: GradedModuleB, deg_bound: int) -> HilbertData:
    """Dimensions of the graded pieces, packaged as the series numerator
    H_M(t)(1 - t), read off the module's rows 0..2 (module doc); e, its value
    at t = 1, is their gamma_inf.  The dimensions are constant from flat, one
    past the top degree of rows 0..1, the minimal generators and relations,
    on, so deg_bound must reach flat, or StabilizationError is raised, as a
    dimension past it could still change.  Cost: O(generators + entries of
    rows 0..2 + numerator length), after the walk that building M paid once."""
    if type(deg_bound) is not int:
        raise ValueError(f"deg_bound must be an int, got {deg_bound!r}")
    if not M.gen_degrees:
        return HilbertData(0, (), 0)
    flat = max(j for (i, j) in M._rows._entries if i < 2) + 1
    if deg_bound < flat:
        raise StabilizationError(
            f"deg_bound {deg_bound} is below {flat}, one past the top degree of the minimal generators and relations"
        )
    offset = min(M.gen_degrees)
    numerator = [0] * (flat - offset + 1)  # every entry of rows 0..2 lies at or below flat
    for (i, j), n in M._rows._entries.items():
        n *= (1, -1, 1)[i]  # (1 + 2t)(beta_0(t) - beta_1(t)) + beta_2(t)
        numerator[j - offset] += n
        if i < 2:
            numerator[j - offset + 1] += 2 * n
    while numerator[-1] == 0:  # the first coefficient counts the generators of degree offset
        numerator.pop()
    return HilbertData(offset, tuple(numerator), sum(numerator))
