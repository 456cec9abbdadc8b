"""Minimal graded free resolutions over B = k[x,y,z]/(xy,yz,xz).

B has a very small monomial basis: 1 in degree 0 and the three pure powers
x^d, y^d, z^d in each degree d >= 1, with mixed products vanishing.  Every
graded computation therefore splits into tiny exact linear algebra problems,
one per degree, and that is how the engine works:

* a graded piece of a free module B(-a1) + ... + B(-ar) gets the basis
  consisting of the generators sitting in that degree plus one pure power of
  each variable on every lower generator;
* the syzygy module at each homological step is computed degree by degree as
  a kernel (or, for the relations themselves, a column span);
* minimal generators in degree d are the part of the space not reachable as
  x, y, z times the space one degree down.

Presentations are kept minimal by construction (every relation entry has
positive degree), so the Betti numbers are literal generator counts and every
reported entry with degree <= deg_bound is exact.  A row that still has mass
at deg_bound may continue past the window and is flagged as truncated.

Each homological step stops at the last degree where a minimal generator can
be born: the largest relation degree at step 1, and max(deg F_{i-1}) + 1 at
step i >= 2.  Past that degree the map splits into three branch blocks that
no longer change with the degree, so every kernel element is a shift of one
a degree lower.  The cost therefore follows hom_bound, not deg_bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .linalg import FP_DEFAULT, SpanTracker, kernel_basis
from .tables import EXPLICIT, BettiTable, Functional, eval_functional

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
    """Element of B on the monomial basis {1} + {x^e, y^e, z^e : e >= 1}."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        items: dict[tuple[str, int], Fraction] = {}
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for mono, value in pairs:
            var, exp = mono
            if exp == 0:
                if var != "1":
                    raise ValueError(f"bad monomial {mono!r}")
                mono = _UNIT
            elif var not in _VARS or exp < 0:
                raise ValueError(f"bad monomial {mono!r}")
            q = Fraction(value)
            if q != 0:
                items[mono] = items.get(mono, Fraction(0)) + q
                if items[mono] == 0:
                    del items[mono]
        self._coeffs = items

    @classmethod
    def zero(cls) -> "BPolynomial":
        return cls()

    @classmethod
    def constant(cls, q) -> "BPolynomial":
        return cls({_UNIT: Fraction(q)})

    @classmethod
    def variable(cls, var: str) -> "BPolynomial":
        return cls({(var, 1): 1})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff=1) -> "BPolynomial":
        if exp == 0:
            return cls.constant(coeff)
        return cls({(var, exp): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self):
        return tuple(sorted(self._coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])))

    def coefficient(self, mono) -> Fraction:
        return self._coeffs.get(tuple(mono), Fraction(0))

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
            out[mono] = out.get(mono, Fraction(0)) + q
        return BPolynomial(out)

    def __neg__(self):
        return BPolynomial({m: -q for m, q in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BPolynomial({m: q * other for m, q in self._coeffs.items()})
        if not isinstance(other, BPolynomial):
            return NotImplemented
        out: dict[tuple[str, int], Fraction] = {}
        for m1, q1 in self._coeffs.items():
            for m2, q2 in other._coeffs.items():
                m = _mono_mul(m1, m2)
                if m is None:
                    continue
                out[m] = out.get(m, Fraction(0)) + q1 * q2
        return BPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
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


# Largest degree parse_poly lets a power of an inhomogeneous base reach.  Such a
# power is never homogeneous in B, and its term count and coefficient sizes
# grow with its degree, so bounding the degree bounds the cost of every power.
MAX_INHOMOGENEOUS_POWER_DEGREE = 64


def parse_poly(text: str) -> BPolynomial:
    """Parse a polynomial in x, y, z with rational coefficients.

    Accepts +, -, *, ^, parentheses, and rationals like 1/2, so both
    x^2 - 1/2*y^2 and (x+y+z)^3 parse (the latter is stored reduced).  A power
    of an inhomogeneous base is refused once its degree would pass
    MAX_INHOMOGENEOUS_POWER_DEGREE.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind}, got {tok[1]!r} in {text!r}")
        pos += 1
        return tok

    def atom():
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
            inner = expr()
            if peek() != ("op", ")"):
                raise PolyParseError(f"missing ')' in {text!r}")
            take()
            return inner
        raise PolyParseError(f"unexpected {val!r} in {text!r}")

    def factor():
        base = atom()
        if peek() == ("op", "^"):
            take()
            _, n = take("int")
            top = max((exp for (_, exp), _ in base.items()), default=0)
            if not base.is_homogeneous and n * top > MAX_INHOMOGENEOUS_POWER_DEGREE:
                raise PolyParseError(
                    f"power of an inhomogeneous base above degree {MAX_INHOMOGENEOUS_POWER_DEGREE}"
                    f" in {text!r}"
                )
            return base ** n
        return base

    def term():
        out = factor()
        while peek() == ("op", "*"):
            take()
            out = out * factor()
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


def _tokenize(text: str):
    tokens = []
    n = 0
    while n < len(text):
        ch = text[n]
        if ch.isspace():
            n += 1
        elif ch.isdigit():
            m = n
            while m < len(text) and text[m].isdigit():
                m += 1
            tokens.append(("int", int(text[n:m])))
            n = m
        elif ch in "xyz":
            tokens.append(("var", ch))
            n += 1
        elif ch in "+-*/^()":
            tokens.append(("op", ch))
            n += 1
        else:
            raise PolyParseError(f"bad character {ch!r} in {text!r}")
    tokens.append(("end", ""))
    return tokens


class StabilizationError(RuntimeError):
    """Hilbert function did not flatten out inside the degree bound."""


class BoundsError(RuntimeError):
    """Bounds too small to certify the rows a computation depends on."""


@dataclass(frozen=True)
class GradedModuleB:
    """Finitely presented graded B-module: generator degrees plus homogeneous
    relation rows.  Every relation entry must have positive degree, so the
    presentation is minimal and row 0 of the Betti table can be read off.
    The relations are converted to int rows over the field here, so a
    coefficient the field cannot hold is rejected when the module is built."""

    gen_degrees: tuple[int, ...]
    relations: tuple[tuple[BPolynomial, ...], ...] = ()
    field: object = FP_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "gen_degrees", tuple(int(a) for a in self.gen_degrees))
        object.__setattr__(self, "relations", tuple(tuple(row) for row in self.relations))
        for row in self.relations:
            if len(row) != len(self.gen_degrees):
                raise ValueError(
                    f"relation row of length {len(row)} against {len(self.gen_degrees)} generators"
                )
            degs = set()
            for a, p in zip(self.gen_degrees, row):
                if p.is_zero:
                    continue
                if not p.is_homogeneous:
                    raise ValueError(f"inhomogeneous relation entry: {p}")
                if p.degree() < 1:
                    raise ValueError(f"relation entry of degree 0 makes the presentation non-minimal: {p}")
                degs.add(p.degree() + a)
            if not degs:
                raise ValueError("zero relation row")
            if len(degs) > 1:
                raise ValueError(f"relation row is not homogeneous, degrees {sorted(degs)}")
        object.__setattr__(self, "_int_relations", _relation_coords(self))

    def relation_degrees(self) -> tuple[int, ...]:
        out = []
        for row in self.relations:
            for a, p in zip(self.gen_degrees, row):
                if not p.is_zero:
                    out.append(p.degree() + a)
                    break
        return tuple(out)

    def with_field(self, field) -> "GradedModuleB":
        return replace(self, field=field)


def quotient_module(gens, field=FP_DEFAULT) -> GradedModuleB:
    """Cyclic quotient B/(g1, ..., gn) for homogeneous positive degree gi."""
    rows = []
    for g in gens:
        if isinstance(g, str):
            g = parse_poly(g)
        if g.is_zero:
            raise ValueError("zero ideal generator")
        if not g.is_homogeneous:
            raise ValueError(f"inhomogeneous ideal generator: {g}")
        if g.degree() < 1:
            raise ValueError(f"unit ideal generator: {g}")
        rows.append((g,))
    return GradedModuleB((0,), tuple(rows), field)


def _x(e=1):
    return BPolynomial.monomial("x", e)


def _y(e=1):
    return BPolynomial.monomial("y", e)


def _z(e=1):
    return BPolynomial.monomial("z", e)


BUILTIN_NAMES = ("B", "omega", "M1", "M2", "M3", "M12", "M13", "M23", "k_residue")


def builtin(name: str, field=FP_DEFAULT) -> GradedModuleB:
    """Standard test modules: the ring, its canonical module (presented as the
    cokernel of the 2 x 3 matrix with rows (-z, y, 0) and (0, -y, x)), the six
    monomial quotients, and the residue field."""
    if name == "B":
        return GradedModuleB((0,), (), field)
    if name == "omega":
        rows = ((-_z(), BPolynomial.zero()), (_y(), -_y()), (BPolynomial.zero(), _x()))
        return GradedModuleB((0, 0), rows, field)
    singles = {"M1": "x", "M2": "y", "M3": "z"}
    if name in singles:
        return quotient_module([BPolynomial.variable(singles[name])], field)
    doubles = {"M12": "xy", "M13": "xz", "M23": "yz"}
    if name in doubles:
        a, b = doubles[name]
        return quotient_module([BPolynomial.variable(a), BPolynomial.variable(b)], field)
    if name == "k_residue":
        return quotient_module([_x(), _y(), _z()], field)
    raise ValueError(f"unknown builtin {name!r}; admitted: {', '.join(BUILTIN_NAMES)}")


# ---------------------------------------------------------------------------
# Degreewise bases and coordinate plumbing.


def _basis(degrees, d):
    """Basis labels of the degree d piece of the free module with these
    generator degrees: (k, "1") for generators in degree d, (k, var) for the
    pure power multiples of lower generators."""
    out = []
    for k, a in enumerate(degrees):
        if a == d:
            out.append((k, "1"))
        elif a < d:
            out.extend(((k, "x"), (k, "y"), (k, "z")))
    return out


def _poly_vec_coords(degrees, vec, d, index):
    coords = [0] * len(index)
    for k, poly in enumerate(vec):
        for (var, exp), q in poly.items():
            key = (k, "1") if exp == 0 else (k, var)
            if degrees[k] + exp != d:
                raise AssertionError(f"entry of degree {degrees[k] + exp} in a row of degree {d}")
            coords[index[key]] += q
    return coords


def _relation_coords(M: GradedModuleB):
    """(degree, basis labels, int coordinates over M.field) of each relation row."""
    out = []
    for rdeg, row in zip(M.relation_degrees(), M.relations):
        labels = _basis(M.gen_degrees, rdeg)
        index = {lab: n for n, lab in enumerate(labels)}
        out.append((rdeg, labels, M.field.int_row(_poly_vec_coords(M.gen_degrees, row, rdeg, index))))
    return tuple(out)


def _shift(labels_from, coords_from, var, index_to, size):
    """Coordinates of var^e times an element, e >= 1 implied by the degrees."""
    out = [0] * size
    for (k, branch), c in zip(labels_from, coords_from):
        if c and (branch == "1" or branch == var):
            out[index_to[(k, var)]] += c
    return out


@dataclass(frozen=True)
class ResolutionResult:
    betti: BettiTable
    deg_bound: int
    hom_bound: int
    tail_consistent: bool
    truncated_rows: tuple[int, ...]


def min_free_resolution(M: GradedModuleB, deg_bound: int, hom_bound: int) -> ResolutionResult:
    """Betti table of a minimal free resolution on the window i <= hom_bound,
    j <= deg_bound.  Every reported entry is exact; truncated_rows lists the
    rows that still have mass at deg_bound and so may continue past it."""
    if hom_bound < 2:
        raise ValueError("hom_bound must be at least 2")
    maxgen = max(M.gen_degrees, default=0)
    if deg_bound < maxgen + hom_bound:
        raise ValueError(f"deg_bound must be at least {maxgen + hom_bound} for this module")
    field = M.field
    betti: dict[tuple[int, int], int] = {}
    for a in M.gen_degrees:
        betti[(0, a)] = betti.get((0, a), 0) + 1

    # state for the map being differentiated at each step, see the module doc
    upper_degrees = None  # F_{i-2} generator degrees
    cur_degrees = M.gen_degrees  # F_{i-1} generator degrees
    cur_images = None  # step >= 2: per generator of F_{i-1}, (degree, coords into F_{i-2})

    rel_elements = M._int_relations

    for step in range(1, hom_bound + 1):
        if step == 1:
            if not rel_elements:
                break
            # no candidate relation past the largest relation degree
            dstart = min(r for r, _, _ in rel_elements)
            dstop = max(r for r, _, _ in rel_elements)
        else:
            if not cur_degrees:
                break
            # Nothing is born past max(cur_degrees) + 1.  For d > max(cur_degrees)
            # the column (g, v) of the degree d map is v^e times the image of g,
            # so its entries are the v-coefficients of that image and do not
            # depend on d; every target row (k, v) exists, as a_k <= deg g < d.
            # The three branch blocks are thus the same matrix in every such
            # degree: the v-shift of the v-block of the degree d kernel is the
            # whole v-block of the degree d + 1 kernel, already in the span.
            dstart = min(cur_degrees)
            dstop = max(cur_degrees) + 1
        upper_basis_cache: dict[int, tuple[list, dict]] = {}

        def upper_at(d):
            if d not in upper_basis_cache:
                labels = _basis(upper_degrees, d)
                upper_basis_cache[d] = (labels, {lab: n for n, lab in enumerate(labels)})
            return upper_basis_cache[d]

        new_gens: list[tuple[int, list]] = []
        prev_labels: list = []
        prev_vectors: list[list] = []
        for d in range(dstart, min(dstop, deg_bound) + 1):
            labels = _basis(cur_degrees, d)
            index = {lab: n for n, lab in enumerate(labels)}
            tracker = SpanTracker(field, len(labels))
            for vec in prev_vectors:
                for var in _VARS:
                    tracker.add(_shift(prev_labels, vec, var, index, len(labels)))
            if step == 1:
                candidates = [coords for r, _, coords in rel_elements if r == d]
            else:
                cols = []
                _, tgt_index = upper_at(d)
                for (g, branch) in labels:
                    gdeg, gcoords = cur_images[g]
                    if branch == "1":
                        cols.append(gcoords)
                    else:
                        glabels, _ = upper_at(gdeg)
                        cols.append(_shift(glabels, gcoords, branch, tgt_index, len(tgt_index)))
                candidates = kernel_basis(list(zip(*cols)), len(labels), field)
            for cand in candidates:
                residual = tracker.add(cand)
                if residual is not None:
                    betti[(step, d)] = betti.get((step, d), 0) + 1
                    new_gens.append((d, residual))
            prev_labels = labels
            prev_vectors = tracker.rows
        upper_degrees = cur_degrees
        cur_degrees = tuple(d for d, _ in new_gens)
        cur_images = new_gens

    table = BettiTable({ij: Fraction(v) for ij, v in betti.items()}, tail_mode=EXPLICIT)
    tail_ok = True
    for i in range(2, hom_bound):
        degs = {j for (r, j) in betti if r == i} | {j - 1 for (r, j) in betti if r == i + 1}
        for j in sorted(degs):
            if j + 1 > deg_bound:
                continue
            if 2 * table.entry(i, j) != table.entry(i + 1, j + 1):
                tail_ok = False
    truncated = tuple(sorted({i for (i, j) in betti if j == deg_bound}))
    return ResolutionResult(table, deg_bound, hom_bound, tail_ok, truncated)


@dataclass(frozen=True)
class HilbertData:
    """Numerator of the Hilbert series against 1/(1 - t), and the multiplicity.

    numerator[n] is the coefficient of t^(offset + n); the multiplicity e is
    the stabilized dimension, equal to the numerator evaluated at t = 1.
    """

    offset: int
    numerator: tuple[int, ...]
    e: int


def hilbert_data(M: GradedModuleB, deg_bound: int) -> HilbertData:
    """Dimensions of the graded pieces up to deg_bound, packaged as the series
    numerator.  Raises StabilizationError unless the last three agree."""
    if not M.gen_degrees:
        return HilbertData(0, (), 0)
    field = M.field
    dmin = min(M.gen_degrees)
    if deg_bound < dmin + 2:
        raise ValueError(f"deg_bound must be at least {dmin + 2}")
    dims = []
    for d in range(dmin, deg_bound + 1):
        labels = _basis(M.gen_degrees, d)
        index = {lab: n for n, lab in enumerate(labels)}
        tracker = SpanTracker(field, len(labels))
        for rdeg, rlabels, coords in M._int_relations:
            if rdeg == d:
                tracker.add(coords)
            elif rdeg < d:
                for var in _VARS:
                    tracker.add(_shift(rlabels, coords, var, index, len(labels)))
        dims.append(len(labels) - tracker.rank)
    if not dims[-1] == dims[-2] == dims[-3]:
        raise StabilizationError(
            f"dimensions {dims[-3:]} at degrees {deg_bound - 2}..{deg_bound} have not stabilized"
        )
    diffs = [dims[0]] + [dims[n] - dims[n - 1] for n in range(1, len(dims))]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    return HilbertData(dmin, tuple(diffs), dims[-1])


def syzygy_multiplicity(betti: BettiTable) -> Fraction:
    """Multiplicity of the first syzygy module read off a Betti table, namely
    3 * (sum of row 1) - (sum of row 2)."""
    return 3 * betti.row_total(1) - betti.row_total(2)


def mult_identity_check(M: GradedModuleB, deg_bound: int, hom_bound: int) -> bool:
    """Whether gamma_inf of the resolved table equals the multiplicity from the
    Hilbert function, the two being computed along independent routes."""
    res = min_free_resolution(M, deg_bound, hom_bound)
    low_truncated = [i for i in res.truncated_rows if i <= 2]
    if low_truncated:
        raise BoundsError(f"rows {low_truncated} not complete within deg_bound {deg_bound}")
    hd = hilbert_data(M, deg_bound)
    return eval_functional(Functional.gamma_inf(), res.betti) == hd.e
