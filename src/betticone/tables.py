"""Betti tables, pure diagrams, and cone functionals over k[x,y,z]/(xy,yz,xz).

The ambient ring is the quotient of a polynomial ring in three variables by
all squarefree quadratic monomials.  Over this ring every minimal free
resolution becomes linear after homological degree 2, with ranks doubling at
each step.  A table of graded Betti numbers is therefore determined by its
first three rows, and this module stores tables in two modes:

* ``canonical``: only rows 0..2 are stored; the entry at (i, j) for i >= 3 is
  derived as 2^(i-2) * entry(2, j - (i - 2)).
* ``explicit``: entries are stored literally, any row index allowed.  The
  doubling rule is then a checkable property, not a built-in, which is what a
  resolution engine needs when it reports a finite window of an infinite
  resolution.

Entries are exact, an int when integral, else a Fraction (see _rational).
Tables are immutable values; all operations return new ones.

A pure diagram pi_d is fixed by its degree sequence d alone, so no record
pairs the two: make_pure_diagram(d) returns pi_d's canonical table, and
DegreeSequence._pure_entries() is the one rule for its 1-3 stored entries.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from fractions import _RATIONAL_FORMAT, Fraction
from functools import total_ordering
from itertools import accumulate, repeat
from numbers import Rational
from typing import Mapping, Union

CANONICAL = "canonical"
EXPLICIT = "explicit"

FREE = "free"
TWO_STEP = "two_step"
TAIL = "tail"


@total_ordering
class _Infinity:
    """The type of INF, the degree of a missing position: above every int,
    equal to nothing but INF."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash(_Infinity)

    def __lt__(self, other):
        return False if isinstance(other, (int, _Infinity)) else NotImplemented

    def __repr__(self):
        return "INF"


INF = _Infinity()

RationalLike = Union[int, Fraction]

# Largest size, in bits of a numerator or a denominator (floor of log2), that
# a parsed coefficient or table entry may have: c^n costs n times the bits of
# c, so without a bound a short text such as 3^1000000000 would not finish.
# The membership scan clears denominators only while their lcm stays within
# it.
MAX_COEFFICIENT_BITS = 4096


# Largest hom_bound min_free_resolution accepts, and largest max_row
# expand_tail does.  Row i has entries near 2^i, so the output grows as
# hom_bound^2 digits: about 166 KB for omega at hom_bound 1000.
MAX_HOM_BOUND = 1000


# int() reads a text of up to this many digits whatever the interpreter's
# limit on int(str) (4,300 digits by default, 640 at least, none before
# Python 3.10.7); a longer digit run is read by Decimal, which has no limit.
_INT_DIGITS = 640


# Longest outside text or value repr an error message quotes whole.  A longer
# one is quoted by its first _ECHO_CHARS characters and its length, so a
# refusal of a huge text or int stays a short line.
_ECHO_CHARS = 64


def _echo(value, form=repr) -> str:
    """form(value), repr by default, for an error message: the one way an
    argument or an input text enters a refusal.  Past _ECHO_CHARS characters a
    str is quoted by the repr of its head and its length, any other value by
    the head of its form and that length.  An int past the int-to-str digit
    limit is named by its sign and bit length, in a Fraction, tuple or list too."""
    if isinstance(value, str):
        return repr(value) if len(value) <= _ECHO_CHARS else f"{repr(value[:_ECHO_CHARS])}... ({len(value)} characters)"
    try:
        text = form(value)
    except ValueError:  # form met the digit limit, in an int or in a value holding one
        text = (f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>" if type(value) is int
                else f"{_echo(value.numerator)}/{_echo(value.denominator)}" if type(value) is Fraction
                else f"({', '.join(map(_echo, value))}{',' * (len(value) == 1)})" if type(value) is tuple
                else f"[{', '.join(map(_echo, value))}]" if type(value) is list
                else f"<{type(value).__name__}>")
    return text if len(text) <= _ECHO_CHARS else f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def _int(value, what: str) -> int:
    """The rule of every int argument: value when its type is int, else a
    ValueError that names what, for a bool and an integral float, str or Fraction too."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {type(value).__name__} {_echo(value)}")
    return value


def _int_text(text: str, what: str) -> int:
    """The rule of every int text: int(text) for a text of at most
    _INT_DIGITS characters that int() reads, else _rational's value, which
    must be an int; a refusal is a ValueError that names what."""
    if len(text) <= _INT_DIGITS:
        try:
            return int(text)
        except ValueError:
            pass
    value = _rational(text, what) if _RATIONAL_FORMAT.match(text) else None
    if type(value) is not int:
        raise ValueError(f"{what} {_echo(text)} is not an int")
    return value


def _rational(value, what: str) -> RationalLike:
    """The rule of every rational value: value as an int when integral, else a
    Fraction.  Any numbers.Rational but a bool is taken, and no float, as its
    binary expansion would pass for the number meant.  A str, or a Decimal as
    its text, is read as Fraction reads it (see _read_text), a short ASCII
    digit string by int(), and refused past MAX_COEFFICIENT_BITS bits of
    numerator or denominator: a ValueError naming what."""
    if type(value) is str:
        try:
            q = int(value) if len(value) <= _INT_DIGITS and value.isascii() and value.isdigit() else _read_text(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} {_echo(value)} is not a rational") from None
        if q is None or max(abs(q.numerator), q.denominator).bit_length() - 1 > MAX_COEFFICIENT_BITS:
            raise ValueError(f"{what} {_echo(value)} needs a numerator or denominator above {MAX_COEFFICIENT_BITS} bits")
        value = q
    elif type(value) is not Fraction:
        if isinstance(value, (str, Decimal)):  # a str subclass, or a Decimal, is read as its text
            return _rational(str(value), what)
        if isinstance(value, bool) or not isinstance(value, Rational):
            raise ValueError(f"{what} must be an int, a Fraction or a str, got {type(value).__name__} {_echo(value)}")
        value = Fraction(value)
    return value if value.denominator != 1 else value.numerator


def _read_text(text: str) -> RationalLike | None:
    """The value of a text in Fraction's grammar, as Fraction reads it, or
    None when it is past MAX_COEFFICIENT_BITS (B below) bits, found before
    the value is built; a ValueError or ZeroDivisionError where Fraction
    raises one.  The grammar is the fractions module's own pattern, so a text
    reads as Fraction reads it on each Python version; its digit runs are
    read by _spelled, so no run meets int()'s limit on digits.

    A decimal text is read as m * 10^e, m free of trailing zeros: an e with
    |e| > B puts 10^|e| > 2^B into the value, or 2^|e| at least into its
    denominator, as m does not end in 0; and so does an m >= 10^(B + 1),
    which leaves m / 10^-e a numerator above 10 * 2^B when |e| <= B.  A
    text n/d is refused when n or d is written at 10^(B + 1) or past."""
    m = _RATIONAL_FORMAT.match(text)
    if m is None:
        raise ValueError(text)
    sign = -1 if m["sign"] == "-" else 1
    if m["denom"]:
        num, den = _spelled(m["num"]), _spelled(m["denom"])
        if den == 0:
            raise ZeroDivisionError(text)
        if num == 0:
            return 0
        return None if num is None or den is None else sign * Fraction(num, den)
    decimal = (m["decimal"] or "").replace("_", "")
    mantissa = m["num"].replace("_", "") + decimal
    digits = mantissa.rstrip("".join(c for c in set(mantissa) if int(c) == 0))  # the zeros of every script
    num = _spelled(digits or "0")
    if num == 0:
        return 0
    exp = _spelled(m["exp"] or "0")
    if num is None or exp is None:
        return None
    exp += len(mantissa) - len(digits) - len(decimal)
    if abs(exp) > MAX_COEFFICIENT_BITS:
        return None
    return sign * (num * 10 ** exp if exp >= 0 else Fraction(num, 10 ** -exp))


def _spelled(run: str) -> int | None:
    """The int that a run of digits, with a sign and _ separators, spells, or
    None at 10^(MAX_COEFFICIENT_BITS + 1) or past.  A run longer than
    _INT_DIGITS is read by Decimal, which checks its size before the int is
    built, in time linear in its length."""
    if len(run) <= _INT_DIGITS:
        return int(run)
    d = Decimal(run)
    return int(d) if d.adjusted() <= MAX_COEFFICIENT_BITS else None


class _Checked:
    """First base of a namedtuple subclass whose __new__ checks its fields:
    _make, and _replace which calls it, go through that constructor, so they
    refuse what it refuses and rebuild whatever it derives."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


class BettiTable:
    """Sparse table of rational entries, from a mapping of (homological index, degree) to entry."""

    __slots__ = ("_entries", "tail_mode")

    def __init__(self, entries=None, tail_mode: str = CANONICAL):
        if tail_mode not in (CANONICAL, EXPLICIT):
            raise ValueError(f"unknown tail mode: {_echo(tail_mode)}")
        items: dict[tuple[int, int], RationalLike] = {}
        for key, value in (entries or {}).items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise ValueError(f"table index must be a pair (i, j), got {_echo(key)}") from None
            if type(i) is not int or type(j) is not int:  # _int's test inline, as this loop is hot
                _int(i, "homological index"), _int(j, "degree")  # raises
            if i < 0:
                raise ValueError(f"homological index must be >= 0, got {_echo(i)}")
            q = value if type(value) is int else _rational(value, "table entry")
            if q:
                items[(i, j)] = q
        if tail_mode == CANONICAL:
            bad = [ij for ij in items if ij[0] >= 3]
            if bad:
                raise ValueError(f"canonical mode stores rows 0..2 only, got entries at {_echo(sorted(bad))}")
        self._entries = items
        self.tail_mode = tail_mode

    def entry(self, i: int, j: int) -> RationalLike:
        """Value at (i, j), 0 if missing, deriving rows i >= 3 from row 2 in
        canonical mode, up to row MAX_HOM_BOUND."""
        _int(j, "degree")
        if _int(i, "homological index") < 0:
            raise ValueError(f"homological index must be >= 0, got {_echo(i)}")
        if self.tail_mode == CANONICAL and i >= 3:
            if i > MAX_HOM_BOUND:
                raise ValueError(f"a canonical table's row must be at most {MAX_HOM_BOUND}, got {_echo(i)}")
            base = self._entries.get((2, j - (i - 2)), 0)
            return 2 ** (i - 2) * base if base else 0
        return self._entries.get((i, j), 0)

    def support(self) -> tuple[tuple[int, int], ...]:
        """Stored nonzero positions, sorted."""
        return tuple(sorted(self._entries))

    def items(self) -> tuple[tuple[tuple[int, int], RationalLike], ...]:
        return tuple(sorted(self._entries.items()))

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def min_degree(self):
        return min((j for (_, j) in self._entries), default=None)

    @property
    def max_degree(self):
        return max((j for (_, j) in self._entries), default=None)

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.tail_mode == other.tail_mode and self._entries == other._entries

    def __hash__(self):
        return hash((self.tail_mode, tuple(sorted(self._entries.items()))))

    def __repr__(self):
        body = ", ".join(f"({i}, {j}): {v}" for (i, j), v in self.items())
        return f"BettiTable({{{body}}}, tail_mode={self.tail_mode!r})"


def expand_tail(table: BettiTable, max_row: int, max_degree: int | None = None) -> BettiTable:
    """Materialize a canonical table as an explicit one through row max_row.

    max_row runs from 2 to MAX_HOM_BOUND, as hom_bound does.  Stored and
    derived entries with degree beyond max_degree are dropped, so the result
    is the window a resolution cut at (max_row, max_degree) reports.
    """
    if table.tail_mode != CANONICAL:
        raise ValueError("expand_tail expects a canonical table")
    if not 2 <= _int(max_row, "max_row") <= MAX_HOM_BOUND:
        raise ValueError(f"max_row must be at least 2 and at most {MAX_HOM_BOUND}")
    if max_degree is None:  # a degree no entry of the window reaches
        max_degree = (table.max_degree or 0) + max_row
    return _window_and_cut(table, max_row, _int(max_degree, "max_degree"))[0]


def _window_and_cut(table: BettiTable, max_row: int, max_degree: int) -> tuple[BettiTable, int]:
    """expand_tail's window at an int max_degree, arguments unchecked, and in
    the same loop the first row that may continue past max_degree, max_row + 1
    if none: a row 0 or 1 entry at or past it, or a row 2 diagonal meeting it."""
    out, first = {}, max_row + 1
    for (i, j), val in table._entries.items():
        if i == 2:  # row 2 and its doubled diagonal, cut at max_row and max_degree
            last = min(max_row, max_degree - j + 2)
            for r in range(2, last + 1):
                out[r, j + r - 2] = 2 ** (r - 2) * val
            if 2 <= last == max_degree - j + 2 < first:  # its diagonal meets max_degree in row last
                first = last
        else:
            if j <= max_degree:
                out[i, j] = val
            if j >= max_degree and i < first:
                first = i
    return BettiTable(out, tail_mode=EXPLICIT), first


def collapse_tail(table: BettiTable) -> BettiTable:
    """Rows 0..2 of a table as a canonical table; a canonical one is returned
    as it is.  An explicit table must be a tail window, its stored entries
    meeting every doubling equality _broken_doubling reads: raises
    ValueError naming the least (i, j) whose equality fails."""
    if table.tail_mode == CANONICAL:
        return table
    broken = _broken_doubling(table._entries)
    if broken is not None:
        raise ValueError(f"doubling fails at {_echo(broken[:2])}; table is not a tail window")
    return BettiTable({ij: v for ij, v in table._entries.items() if ij[0] <= 2}, tail_mode=CANONICAL)


class DegreeSequence(_Checked, namedtuple("DegreeSequence", "shape d0 d1")):
    """Strictly increasing sequence of int degrees in one of the three admitted shapes.

    free:     (d0, inf, inf, ...)
    two_step: (d0, d1, inf, ...)
    tail:     (d0, d1, d1 + 1, d1 + 2, ...)
    """

    __slots__ = ()

    def __new__(cls, shape: str, d0: int, d1: int | None = None):
        if shape not in (FREE, TWO_STEP, TAIL):
            raise ValueError(f"unknown shape: {_echo(shape)}")
        _int(d0, "d0")
        if shape == FREE:
            if d1 is not None:
                raise ValueError("free shape takes d0 only")
        else:
            if d1 is None:
                raise ValueError(f"{shape} shape needs d1")
            if not d0 < _int(d1, "d1"):
                raise ValueError(f"need d0 < d1, got {_echo((d0, d1))}")
        return super().__new__(cls, shape, d0, d1)

    @classmethod
    def free(cls, d0: int) -> "DegreeSequence":
        return cls(FREE, d0)

    @classmethod
    def two_step(cls, d0: int, d1: int) -> "DegreeSequence":
        return cls(TWO_STEP, d0, d1)

    @classmethod
    def tail(cls, d0: int, d1: int) -> "DegreeSequence":
        return cls(TAIL, d0, d1)

    def degree(self, n: int):
        """The n-th degree d_n; missing positions read as INF."""
        if _int(n, "position") < 0:
            raise ValueError("position must be >= 0")
        if n == 0:
            return self.d0
        if self.shape == FREE:
            return INF
        if n == 1:
            return self.d1
        if self.shape == TWO_STEP:
            return INF
        return self.d1 + (n - 1)

    def _pure_entries(self) -> dict[tuple[int, int], int]:
        """The 1-3 stored entries of pi_d (see make_pure_diagram), as ints."""
        if self.shape == FREE:
            return {(0, self.d0): 1}
        if self.shape == TWO_STEP:
            return {(0, self.d0): 1, (1, self.d1): 1}
        return {(0, self.d0): 1, (1, self.d1): 3, (2, self.d1 + 1): 6}

    def __str__(self):
        if self.shape == FREE:
            return f"({self.d0}, inf)"
        if self.shape == TWO_STEP:
            return f"({self.d0}, {self.d1}, inf)"
        return f"({self.d0}, {self.d1}, {self.d1 + 1}, ...)"


def make_pure_diagram(d: DegreeSequence) -> BettiTable:
    """The pure diagram pi_d of a degree sequence, as its canonical table,
    with unit leading entry: d alone fixes it.

    free:     a single entry 1 at (0, d0)
    two_step: entries 1 at (0, d0) and 1 at (1, d1)
    tail:     entries 1 at (0, d0), 3 at (1, d1), 6 at (2, d1 + 1); the
              doubled rows beyond are implied by canonical mode, so the stored
              value at (i, d1 + i - 1) reads 3 * 2^(i-1) for every i >= 1.
    """
    if not isinstance(d, DegreeSequence):
        raise ValueError(f"d must be a DegreeSequence, got {type(d).__name__} {_echo(d)}")
    return BettiTable(d._pure_entries(), tail_mode=CANONICAL)


EPSILON = "epsilon"
ALPHA = "alpha"
GAMMA = "gamma"
GAMMA_INF = "gamma_inf"
DOUBLING_EQ = "doubling_eq"


class Functional(_Checked, namedtuple("Functional", "kind i j k", defaults=(None, None, None))):
    """Identifier of one linear functional on tables.

    epsilon(i, j)      entry at (i, j)
    alpha(k)           2*v[1, k] - v[2, k + 1]
    gamma(k)           sum over j <= k of 3*v[0, j] - 3*v[1, j + 1] + v[2, j + 2]
    gamma_inf          the same sum over all j
    doubling_eq(i, j)  2*v[i, j] - v[i + 1, j + 1], only for i >= 2 (an equality)

    The constructor checks what the factories need: a known kind, int
    indices where the kind reads them, and None where it does not.
    """

    __slots__ = ()

    def __new__(cls, kind: str, i: int | None = None, j: int | None = None, k: int | None = None):
        if kind == ALPHA or kind == GAMMA:
            if i is not None or j is not None:
                raise ValueError(f"{kind} takes k only, got i={_echo(i)} and j={_echo(j)}")
            _int(k, "k")
        elif kind == EPSILON or kind == DOUBLING_EQ:
            if k is not None:
                raise ValueError(f"{kind} takes i and j only, got k={_echo(k)}")
            if _int(i, "i") < (0 if kind == EPSILON else 2):
                raise ValueError("epsilon needs i >= 0" if kind == EPSILON else "doubling equalities live in rows i >= 2")
            _int(j, "j")
        elif kind == GAMMA_INF:
            if not i is j is k is None:
                raise ValueError(f"gamma_inf takes no index, got i={_echo(i)}, j={_echo(j)} and k={_echo(k)}")
        else:
            raise ValueError(f"unknown functional kind: {_echo(kind)}")
        return super().__new__(cls, kind, i, j, k)

    @classmethod
    def epsilon(cls, i: int, j: int) -> "Functional":
        return cls(EPSILON, i, j)

    @classmethod
    def alpha(cls, k: int) -> "Functional":
        return cls(ALPHA, k=k)

    @classmethod
    def gamma(cls, k: int) -> "Functional":
        return cls(GAMMA, k=k)

    @classmethod
    def gamma_inf(cls) -> "Functional":
        return cls(GAMMA_INF)

    @classmethod
    def doubling_eq(cls, i: int, j: int) -> "Functional":
        return cls(DOUBLING_EQ, i, j)

    def label(self) -> str:
        if self.kind == GAMMA_INF:
            return "gamma_inf"
        if self.kind == ALPHA or self.kind == GAMMA:
            return f"{self.kind}({self.k})"
        return f"{self.kind}({self.i},{self.j})"


def _broken_doubling(
    entries: Mapping[tuple[int, int], RationalLike],
) -> tuple[int, int, RationalLike] | None:
    """The least (i, j) whose doubling equality 2*v[i, j] = v[i + 1, j + 1]
    the stored entries of an explicit table break, as (i, j, value), or None
    when they meet every one.  The table is a finite window, bounded by its
    top stored row and its last stored degree: a stored entry in rows
    2 <= i < top below the last degree must double into the row above, and
    one in rows i >= 3 must be fed by the row below.  An entry in the top
    row or at the last degree has its image past the window, as in a
    resolution cut at hom_bound or deg_bound.  The value is plain arithmetic
    on the entries, so ints give an int and Fractions a Fraction."""
    top = max((i for i, _ in entries), default=-1)
    last = max((j for _, j in entries), default=None)
    at = {(i, j) for (i, j) in entries if 2 <= i < top and j < last}
    at.update((i - 1, j - 1) for (i, j) in entries if i >= 3)
    get = entries.get
    equalities = [(i, j, 2 * get((i, j), 0) - get((i + 1, j + 1), 0)) for i, j in at]
    return min((eq for eq in equalities if eq[2] != 0), default=None)  # distinct (i, j): min reads no value


def _cone_functionals(*tables) -> tuple[list, list, list, list, list]:
    """The alpha and gamma functionals of the tables, as aligned columns:

    (alpha_keys, alphas, gamma_keys, gammas, gamma_inf)

    alpha_keys lists, sorted, the k where alpha_k can be nonzero on one of
    the tables, and alphas holds one list per table of its alpha_k at those
    keys.  gamma_keys lists, sorted, the k where gamma_k can change on one of
    the tables, and gammas holds one list per table of its running gamma_k
    at those keys.  gamma_inf holds each table's gamma_inf: its last running
    sum, or 0 when it has none.  The scan order of the functionals is alpha,
    then gamma, each by increasing k, then gamma_inf.

    A table here is an iterable of ((i, j), value) pairs in any order, such
    as dict.items(), BettiTable.items() or a zip of positions and values;
    the values are plain arithmetic on its entries, so ints give ints and
    Fractions give Fractions.

    alpha_k vanishes unless (1, k) or (2, k + 1) is stored, and gamma_k is a
    step function jumping only at k = j - i for stored (i, j), i <= 2.  Every
    skipped k thus has alpha_k = 0 and the gamma of the last key below it,
    and gamma_inf is the gamma of the last key.

    Cost: one pass over the entries of each table adds up its alpha values
    and gamma jumps by k; then one sort of the union of the keys of each
    kind, off which map and itertools.accumulate read the values and sum the
    jumps, all at C level.
    """
    alphas, jumps = [], []
    for v in tables:
        alpha, jump = {}, {}
        for (i, j), val in v:
            if i == 0:
                jump[j] = jump.get(j, 0) + 3 * val
            elif i == 1:
                jump[j - 1] = jump.get(j - 1, 0) - 3 * val
                alpha[j] = alpha.get(j, 0) + 2 * val
            elif i == 2:
                jump[j - 2] = jump.get(j - 2, 0) + val
                alpha[j - 1] = alpha.get(j - 1, 0) - val
        alphas.append(alpha)
        jumps.append(jump)
    zero = repeat(0)  # the default of every get below
    alpha_keys = sorted(set().union(*alphas))
    gamma_keys = sorted(set().union(*jumps))
    gammas = [list(accumulate(map(g.get, gamma_keys, zero))) for g in jumps]
    return (alpha_keys, [list(map(a.get, alpha_keys, zero)) for a in alphas],
            gamma_keys, gammas, [g[-1] if g else 0 for g in gammas])


# The four ray classes of the Herzog-Kuhl locus, keyed by the slope invariant c.
# Each entry: c -> (module family name, first lattice point (b0, b1, b2)).
_HK_RAYS = {
    Fraction(0): ("B", (1, 1, 0)),
    Fraction(1): ("M_i", (2, 3, 3)),
    Fraction(3, 2): ("omega", (1, 2, 3)),
    Fraction(2): ("M_ij", (1, 3, 6)),
}


class HKRay(_Checked, namedtuple("HKRay", "c mcm_name vector")):
    """First lattice point on one of the four rational rays cut out by the
    Herzog-Kuhl equation 3*(b0 - b1) + c*b1 = 0, extended by doubling: a row
    of _HK_RAYS, c a rational value in {0, 1, 3/2, 2}."""

    __slots__ = ()

    def __new__(cls, c: RationalLike, mcm_name: str, vector: tuple[int, int, int]):
        c = Fraction(_rational(c, "c"))
        if c not in _HK_RAYS:
            raise ValueError(f"no ray with c = {_echo(c, str)}; admitted values are 0, 1, 3/2, 2")
        name, vec = _HK_RAYS[c]
        if mcm_name != name:
            raise ValueError(f"the ray with c = {_echo(c, str)} has mcm_name {_echo(name)}, got {_echo(mcm_name)}")
        if type(vector) is not tuple or vector != vec:
            raise ValueError(f"the ray with c = {_echo(c, str)} has vector {vec}, got {_echo(vector)}")
        return super().__new__(cls, c, name, vec)

    def entries(self, n: int) -> tuple[int, ...]:
        """First n entries of the ray vector; entries i >= 3 double the previous."""
        out = list(self.vector[: max(_int(n, "n"), 0)])
        while len(out) < n:
            out.append(2 * out[-1])
        return tuple(out)


def hk_ray(c: RationalLike) -> HKRay:
    """Ray data for slope invariant c in {0, 1, 3/2, 2}, a rational value."""
    c = Fraction(_rational(c, "c"))
    return HKRay(c, *_HK_RAYS.get(c, (None, None)))


# First syzygy of each indecomposable maximal Cohen-Macaulay module, as a
# multiset of (module name, twist).  Twist -1 places generators in degree 1.
_SYZYGIES = {
    "B": (),
    "omega": (("M12", -1), ("M13", -1), ("M23", -1)),
    "M1": (("M23", -1),),
    "M2": (("M13", -1),),
    "M3": (("M12", -1),),
    "M12": (("M13", -1), ("M23", -1)),
    "M13": (("M12", -1), ("M23", -1)),
    "M23": (("M12", -1), ("M13", -1)),
}

INDECOMPOSABLE_NAMES = tuple(sorted(_SYZYGIES))


def syzygy_of_indecomposable(name: str) -> tuple[tuple[str, int], ...]:
    """First syzygy of an indecomposable MCM module, sorted for determinism."""
    if name not in _SYZYGIES:
        raise ValueError(f"unknown indecomposable: {_echo(name)}; admitted: {', '.join(INDECOMPOSABLE_NAMES)}")
    return tuple(sorted(_SYZYGIES[name]))
