"""Independent judgments for the benchmark: nothing here imports betticone.

Tables are plain dicts {(i, j): Fraction} holding rows 0..2 (the canonical
part; rows i >= 3 follow by doubling).  Every formula is written from the
paper's definitions, never read back from the program or a saved output.
"""

from __future__ import annotations

import re
from fractions import Fraction

INF = float("inf")
FREE, TWO_STEP, TAIL = "free", "two_step", "tail"


class Lcg:
    """32-bit linear congruential stream; the only source of benchmark inputs."""

    def __init__(self, seed: int):
        self.state = seed % 2**32

    def next(self) -> int:
        self.state = (1664525 * self.state + 1013904223) % 2**32
        return self.state >> 8

    def below(self, n: int) -> int:
        return self.next() % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def permutation(self, seq):
        out = list(seq)
        for n in range(len(out) - 1, 0, -1):
            m = self.below(n + 1)
            out[n], out[m] = out[m], out[n]
        return out


# -- pure diagrams and degree sequences ------------------------------------------


def pure(shape: str, d0: int, d1: int | None = None) -> dict:
    """Rows 0..2 of the pure diagram of a degree sequence, leading entry 1."""
    if shape == FREE:
        return {(0, d0): Fraction(1)}
    if shape == TWO_STEP:
        return {(0, d0): Fraction(1), (1, d1): Fraction(1)}
    return {(0, d0): Fraction(1), (1, d1): Fraction(3), (2, d1 + 1): Fraction(6)}


def positions(shape: str, d0: int, d1: int | None) -> tuple:
    """(d_0, d_1, d_2) with missing positions at infinity; later positions
    follow from these three."""
    if shape == FREE:
        return (d0, INF, INF)
    if shape == TWO_STEP:
        return (d0, d1, INF)
    return (d0, d1, d1 + 1)


def precedes(a: tuple, b: tuple) -> bool:
    """The order the decomposition's terms climb, as the project documents it:
    (d_0, d_1) componentwise and not equal, or equal (d_0, d_1) and d_2 < e_2
    (a tail before the two-step sequence it extends)."""
    if a[:2] == b[:2]:
        return a[2] < b[2]
    return a[0] <= b[0] and a[1] <= b[1]


_DEGSEQ = re.compile(r"^\((-?\d+), (?:inf|(-?\d+), (?:inf|(-?\d+), \.\.\.))\)$")


def parse_degseq(text: str) -> tuple:
    """'(d0, inf)', '(d0, d1, inf)' or '(d0, d1, d1+1, ...)' as (shape, d0, d1)."""
    m = _DEGSEQ.match(text.strip())
    if m is None:
        raise ValueError(f"not a degree sequence: {text!r}")
    d0, d1, d2 = m.groups()
    if d1 is None:
        return (FREE, int(d0), None)
    if d2 is None:
        return (TWO_STEP, int(d0), int(d1))
    if int(d2) != int(d1) + 1:
        raise ValueError(f"tail must continue d1 + 1: {text!r}")
    return (TAIL, int(d0), int(d1))


def combine(terms) -> dict:
    """Sum of coeff * pure(d) over (degree sequence tuple, coeff) terms."""
    total: dict = {}
    for (shape, d0, d1), coeff in terms:
        for ij, v in pure(shape, d0, d1).items():
            total[ij] = total.get(ij, 0) + coeff * v
    return {ij: v for ij, v in total.items() if v != 0}


def decomposition_errors(table: dict, terms) -> list[str]:
    """Why a decomposition fails to certify membership, if it does."""
    errors = []
    if combine(terms) != {ij: v for ij, v in table.items() if v != 0}:
        errors.append("terms do not recombine to the table")
    if any(c <= 0 for _, c in terms):
        errors.append("nonpositive coefficient")
    chain = [positions(*d) for d, _ in terms]
    for a, b in zip(chain, chain[1:]):
        if not precedes(a, b):
            errors.append(f"terms {a} then {b} do not increase")
    return errors


# -- cone functionals --------------------------------------------------------------


def alpha(table: dict, k: int) -> Fraction:
    return 2 * table.get((1, k), 0) - table.get((2, k + 1), 0)


def gamma(table: dict, k: int) -> Fraction:
    """Straight from the definition: sum over j <= k of 3v0j - 3v1,j+1 + v2,j+2."""
    total = Fraction(0)
    for (i, j), v in table.items():
        if i == 0 and j <= k:
            total += 3 * v
        elif i == 1 and j <= k + 1:
            total -= 3 * v
        elif i == 2 and j <= k + 2:
            total += v
    return total


def gamma_inf(table: dict) -> Fraction:
    weight = {0: 3, 1: -3, 2: 1}
    return sum((weight[i] * v for (i, _), v in table.items()), Fraction(0))


def scan(table: dict):
    """Every functional in the documented scan order -- epsilon by (i, j),
    alpha_k for k = lo-1 .. hi+1, gamma_k for k = lo-2 .. hi -- as
    (label, value) pairs.  Outside those ranges alpha is 0 and gamma equals
    gamma_inf, so the scan covers every k.  gamma comes from running prefix
    sums, not from the per-k definition above."""
    for (i, j) in sorted(table):
        yield f"epsilon({i},{j})", table[(i, j)]
    if not table:
        return
    lo = min(j for _, j in table)
    hi = max(j for _, j in table)
    for k in range(lo - 1, hi + 2):
        yield f"alpha({k})", alpha(table, k)
    s0 = s1 = s2 = Fraction(0)
    for k in range(lo - 2, hi + 1):
        s0 += table.get((0, k), 0)
        s1 += table.get((1, k + 1), 0)
        s2 += table.get((2, k + 2), 0)
        yield f"gamma({k})", 3 * s0 - 3 * s1 + s2


def first_violation(table: dict):
    """(label, value) of the first negative functional, or None for a member."""
    return next(((label, v) for label, v in scan(table) if v < 0), None)


_LABEL = re.compile(r"^(epsilon|alpha|gamma)\((-?\d+)(?:,(-?\d+))?\)$")


def functional_by_label(table: dict, label: str) -> Fraction:
    """Value of a functional named as the program names it, from its definition."""
    m = _LABEL.match(label)
    if m is None:
        raise ValueError(f"unknown functional {label!r}")
    kind, a, b = m.groups()
    if kind == "epsilon":
        return table.get((int(a), int(b)), Fraction(0))
    if kind == "alpha":
        return alpha(table, int(a))
    return gamma(table, int(a))


def rows_and_doubling(explicit: dict, deg_bound: int) -> tuple[dict, list[str]]:
    """Split an explicit resolution window into rows 0..2 and the doubling
    mismatches 2*v[i, j] != v[i+1, j+1] (i >= 2) seen inside the window."""
    top = max((i for i, _ in explicit), default=0)
    errors = []
    for i in range(2, top):
        for j in {j for (r, j) in explicit if r == i} | {j - 1 for (r, j) in explicit if r == i + 1}:
            if j + 1 <= deg_bound and 2 * explicit.get((i, j), 0) != explicit.get((i + 1, j + 1), 0):
                errors.append(f"doubling fails at ({i}, {j})")
    return {ij: v for ij, v in explicit.items() if ij[0] <= 2}, errors


# -- closed forms for resolutions and Hilbert functions ----------------------------


def closed_form_betti(kind: str, hom: int, deg_bound: int, twist: int = 0, d: int = 2) -> dict:
    """The paper's Betti numbers of the indecomposables and of B/(x^d, y^d, z^d),
    twisted so that the generators sit in degree `twist`."""
    table = {}
    for i in range(hom + 1):
        if kind == "omega":
            value, j = (2 if i == 0 else 3 * 2 ** (i - 1)), i
        elif kind == "M_i":
            value, j = (1 if i == 0 else 2 ** (i - 1)), i
        elif kind == "M_ij":
            value, j = 2 ** i, i
        elif kind == "powers":
            value, j = (1, 0) if i == 0 else (3 * 2 ** (i - 1), d + i - 1)
        else:
            raise ValueError(kind)
        if j + twist <= deg_bound:
            table[(i, j + twist)] = Fraction(value)
    return table


def monomial_hilbert(exponents: dict, deg_bound: int) -> tuple[tuple[int, ...], int]:
    """Numerator and multiplicity of B/(v^a for v, a in exponents): degree d >= 1
    keeps the pure powers v^d with v free of the ideal or d < a_v."""
    dims = [1] + [sum(1 for v in "xyz" if v not in exponents or d < exponents[v])
                  for d in range(1, deg_bound + 1)]
    numerator = [dims[0]] + [dims[n] - dims[n - 1] for n in range(1, len(dims))]
    while numerator and numerator[-1] == 0:
        numerator.pop()
    return tuple(numerator), dims[-1]


def linear_power_multiplicity(coeffs) -> int:
    """e of B/(l^n) for l = ax + by + cz: l^n kills v^d (d > n) exactly for the
    variables v with a nonzero coefficient."""
    return sum(1 for c in coeffs if c == 0)


# -- window rays ---------------------------------------------------------------------


def window_rays(jmin: int, jmax: int, finite_length: bool) -> set:
    """Primitive window vectors of the pure diagrams inside [jmin, jmax]."""
    width = jmax - jmin + 1
    seqs = [] if finite_length else [(FREE, d0, None) for d0 in range(jmin, jmax + 1)]
    seqs += [(TWO_STEP, d0, d1) for d0 in range(jmin, jmax + 1) for d1 in range(d0 + 1, jmax + 1)]
    seqs += [(TAIL, d0, d1) for d0 in range(jmin, jmax + 1) for d1 in range(d0 + 1, jmax)]
    rays = set()
    for seq in seqs:
        vec = [0] * (3 * width)
        for (i, j), v in pure(*seq).items():
            vec[i * width + j - jmin] = int(v)
        rays.add(tuple(vec))  # leading entry 1, so already primitive
    return rays


def window_ray_count(width: int, finite_length: bool) -> int:
    w = width
    return (0 if finite_length else w) + w * (w - 1) // 2 + (w - 1) * (w - 2) // 2


# -- program text ----------------------------------------------------------------------


def parse_table_lines(text: str) -> dict:
    """Entries of a `betti v1` block, wherever it sits in the text."""
    table = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "entry":
            table[(int(parts[1]), int(parts[2]))] = Fraction(parts[3])
    return table


def parse_fields(text: str) -> dict:
    """`key: value` lines of a command's output."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key != "term":
            out[key] = value
    return out


def parse_terms(text: str) -> list:
    """`term: (degree sequence) coeff: c` lines as ((shape, d0, d1), coeff)."""
    terms = []
    for line in text.splitlines():
        if line.startswith("term: "):
            seq, _, coeff = line[len("term: "):].rpartition(" coeff: ")
            terms.append((parse_degseq(seq), Fraction(coeff)))
    return terms
