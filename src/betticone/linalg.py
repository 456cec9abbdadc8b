"""Exact dense linear algebra over Q and over prime fields, on int rows.

Graded pieces of modules over the three point ring are tiny (a free module of
rank r contributes at most 3r coordinates per degree), so plain Gaussian
elimination on lists is all the resolution engine needs.  Every scalar inside
the elimination is a Python int.  A field is its characteristic p (0 for Q);
it converts a row of rationals to an int row once, at the boundary, and after
that p only enters where a finished row is normalised: over F_p the row is
reduced mod p with pivot 1, over Q it is fraction free, divided by its
content with a positive pivot.  Row operations are integer combinations
lead * v - c * row, so no Fraction appears in the elimination.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from .tables import _Checked, _echo, _int

# F_p is meant as a small modular fast path; this bound keeps the primality
# check by trial division bounded too
MAX_PRIME = 2 ** 31


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


class Field(_Checked, namedtuple("Field", "p")):
    """Q for p = 0, the prime field F_p otherwise."""

    __slots__ = ()

    def __new__(cls, p: int = 0):
        if _int(p, "field characteristic") >= MAX_PRIME:
            raise ValueError(f"prime {_echo(p)} is too large, F_p needs p < 2^31")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"{_echo(p)} is not prime")
        return super().__new__(cls, p)

    @property
    def name(self) -> str:
        return f"Fp {self.p}" if self.p else "QQ"

    def int_row(self, row) -> list[int]:
        """A row of rationals as an int row spanning the same line: over Q the
        row times the lcm of its denominators, over F_p its residues mod p.  A
        row of ints is that row, over F_p reduced mod p, with no Fraction built."""
        if all(type(q) is int for q in row):
            return [q % self.p for q in row] if self.p else list(row)
        row = [Fraction(q) for q in row]
        if not self.p:
            scale = lcm(*(q.denominator for q in row))
            return [int(q * scale) for q in row]
        if any(q.denominator % self.p == 0 for q in row):
            raise ValueError(f"coefficient with a denominator divisible by {self.p}")
        return [q.numerator * pow(q.denominator, -1, self.p) % self.p for q in row]


def PrimeField(p: int) -> Field:
    """F_p for a prime p below 2^31."""
    if _int(p, "field characteristic") == 0:
        raise ValueError("0 is not prime")
    return Field(p)


QQ = Field(0)
FP_DEFAULT = PrimeField(32003)


def _normalize(row: list[int], p: int):
    """(pivot, row) for a finished row: over F_p reduced mod p and scaled to
    pivot 1, over Q divided by its content with a positive pivot.  The pivot
    is None for a zero row."""
    if p:
        row = [a % p for a in row]
    first = next(filter(None, row), 0)  # the first nonzero entry sits at the pivot
    if not first:
        return None, row
    piv = row.index(first)
    if p:
        if first != 1:
            inv = pow(first, -1, p)
            row = [a * inv % p for a in row]
    else:
        g = gcd(*row) if first > 0 else -gcd(*row)
        if g != 1:
            row = [a // g for a in row]
    return piv, row


class SpanTracker:
    """Row space in echelon form, grown one vector at a time.

    add is its one operation: the rank counts and the minimal generator
    extraction both ask only whether a vector grows the span.  Rows are
    normalised int lists kept sorted by pivot, each zero before its own pivot.
    add walks them in that order, so its residual is zero on every pivot and
    stays canonical without reducing the stored rows against each other.
    """

    def __init__(self, field):
        self.p = field.p
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec):
        """Insert vec; returns the normalized residual if the span grew, else None."""
        p = self.p
        out = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            # over F_p the lead is 1 and c < p, so entries grow only additively
            c = out[piv] % p if p else out[piv]
            if c:
                lead = row[piv]
                out = [lead * a - c * b for a, b in zip(out, row)]
        piv, res = _normalize(out, p)
        if piv is None:
            return None
        at = bisect(self.pivots, piv)
        self.rows.insert(at, res)
        self.pivots.insert(at, piv)
        return list(res)

    @property
    def rank(self) -> int:
        return len(self.rows)
