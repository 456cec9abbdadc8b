"""Command line front end.

Exit codes are uniform across subcommands: 0 for success (membership holds,
descriptions agree, resolution complete), 1 for a checked failure (not a
member, descriptions differ, bounds too small to certify), 2 for unusable
input (bad flags, malformed files).

Tables travel in a small line format:

    betti v1
    mode canonical        (or explicit)
    entry 0 0 1
    entry 1 2 3
    entry 2 3 13/2

Blank lines and # comments are skipped, and an (i, j) given twice is refused.
After the entries only report lines may follow, those whose first word ends
in `:`, so the lines `resolve` and `rays` print after a table are skipped and
their output pipes straight into `check -`; any other line is malformed.

Modules for `resolve` and `hilbert` are described either by a builtin name or
by generator degrees plus relation rows:

    field Fp 32003        (optional; a prime below 2^31, or: field QQ)
    gens 0 0
    rel -z, 0
    rel y, -y
    rel 0, x

or simply `builtin omega`.  A field, gens or builtin line may appear once.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

from .cone import (
    BettiSequence,
    DecompositionLoopError,
    check_finite_length,
    check_graded,
    check_local,
)
from .linalg import QQ, FP_DEFAULT, PrimeField
from .resolve import (
    GradedModuleB,
    PolyParseError,
    StabilizationError,
    builtin,
    hilbert_data,
    min_free_resolution,
    parse_poly,
)
from .tables import (
    CANONICAL,
    EXPLICIT,
    MAX_COEFFICIENT_BITS,
    BettiTable,
    DegreeSequence,
    _cone_functionals,
    make_pure_diagram,
)
from .window import Window, cross_check


class TableFormatError(ValueError):
    pass


class ModuleFormatError(ValueError):
    pass


# Fraction expands a decimal exponent, so a text such as 1e1000000000 would
# not finish: an exponent past MAX_COEFFICIENT_BITS is refused before the
# value is built.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_rational(text: str) -> Fraction | int:
    """Fraction(text), refused with a ValueError when its numerator or its
    denominator would pass MAX_COEFFICIENT_BITS bits, the bound parse_poly
    keeps on coefficients.  A plain ASCII digit string, such as every entry
    resolve prints, is read by int() and returned as the int of that value."""
    if text.isascii() and text.isdigit():
        q = int(text)
    else:
        exp = _EXPONENT.search(text)
        try:
            q = None if exp and abs(int(exp[1])) > MAX_COEFFICIENT_BITS else Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
    if q is None or max(abs(q.numerator), q.denominator).bit_length() - 1 > MAX_COEFFICIENT_BITS:
        raise ValueError(f"{text!r} needs a numerator or denominator above {MAX_COEFFICIENT_BITS} bits")
    return q


def _content_lines(text: str) -> list[str]:
    """The lines of text with # comments cut and blanks dropped, stripped."""
    return [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]


def parse_table_text(text: str) -> BettiTable:
    lines = _content_lines(text)
    if not lines or lines[0] != "betti v1":
        raise TableFormatError("first line must be: betti v1")
    if len(lines) < 2 or lines[1] not in ("mode canonical", "mode explicit"):
        raise TableFormatError("second line must be: mode canonical|explicit")
    mode = CANONICAL if lines[1].endswith("canonical") else EXPLICIT
    entries = {}
    for n, line in enumerate(lines[2:], 2):
        parts = line.split()
        if parts[0] != "entry":
            # only report lines, whose first word ends in ':', may follow the entries
            bad = [rest for rest in lines[n:] if not rest.split()[0].endswith(":")]
            if bad:
                raise TableFormatError(f"not an entry or a report line: {bad[0]!r}")
            break
        if len(parts) != 4:
            raise TableFormatError(f"bad entry line: {line!r}")
        try:
            i, j, val = int(parts[1]), int(parts[2]), _parse_rational(parts[3])
        except ValueError as exc:
            raise TableFormatError(f"bad entry line: {line!r}") from exc
        if (i, j) in entries:
            raise TableFormatError(f"duplicate table entry at {(i, j)}")
        entries[i, j] = val
    try:
        return BettiTable(entries, tail_mode=mode)
    except ValueError as exc:
        raise TableFormatError(str(exc)) from exc


def format_table_text(table: BettiTable) -> str:
    out = ["betti v1", f"mode {table.tail_mode}"]
    for (i, j), val in table.items():
        out.append(f"entry {i} {j} {val}")
    return "\n".join(out)


def parse_module_text(text: str, field=None) -> GradedModuleB:
    file_field = None
    gens = None
    rels = []
    builtin_name = None
    for line in _content_lines(text):
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if {"field": file_field, "gens": gens, "builtin": builtin_name}.get(key) is not None:
            raise ModuleFormatError(f"repeated {key} line: {line!r}")
        if key == "field":
            parts = rest.split()
            if parts == ["QQ"]:
                file_field = QQ
            elif len(parts) == 2 and parts[0] == "Fp":
                try:
                    file_field = _prime_field(parts[1])
                except ValueError as exc:
                    raise ModuleFormatError(f"bad field line: {exc}") from exc
            else:
                raise ModuleFormatError(f"bad field line: {line!r} (use: field QQ | field Fp P)")
        elif key == "gens":
            try:
                gens = tuple(int(t) for t in rest.split())
            except ValueError as exc:
                raise ModuleFormatError(f"bad gens line: {line!r}") from exc
        elif key == "rel":
            try:
                rels.append(tuple(parse_poly(t) for t in rest.split(",")))
            except PolyParseError as exc:
                raise ModuleFormatError(str(exc)) from exc
        elif key == "builtin":
            builtin_name = rest
        else:
            raise ModuleFormatError(f"unknown keyword {key!r}")
    if field is None:
        field = file_field if file_field is not None else FP_DEFAULT
    try:
        if builtin_name is not None:
            if gens is not None or rels:
                raise ModuleFormatError("builtin cannot be combined with gens/rel lines")
            return builtin(builtin_name, field)
        if gens is None:
            raise ModuleFormatError("missing gens line (or builtin NAME)")
        return GradedModuleB(gens, tuple(rels), field)
    except ValueError as exc:
        if isinstance(exc, ModuleFormatError):
            raise
        raise ModuleFormatError(str(exc)) from exc


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _prime_field(text: str):
    """PrimeField of the int that text spells; the ValueError says what is
    wrong, and gives a digit run too long for int() by its length."""
    try:
        p = int(text)
    except ValueError:
        if text.isascii() and text.isdigit():
            raise ValueError(f"prime of {len(text)} digits is too large, F_p needs p < 2^31") from None
        raise ValueError(f"prime {text!r} is not an int") from None
    return PrimeField(p)


def _parse_field(spec: str):
    """--field: qq, fp, or fp:P."""
    if spec == "qq":
        return QQ
    if spec == "fp":
        return FP_DEFAULT
    if spec.startswith("fp:"):
        try:
            return _prime_field(spec[3:])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"bad field {spec!r} (use qq, fp, or fp:P)")


def _int_or_inf(text: str):
    """--d1: an int, or inf."""
    if text == "inf":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r} (use an int or inf)") from None


def _print_verdict(verdict, head=()) -> int:
    """Print the lines in head, then a membership verdict: the violated
    functional of a non-member, the decomposition terms of a member.  The
    whole text is built before any of it is written, so a value past Python's
    int-to-text limit ends in exit 2 with nothing printed.  Returns the exit
    code."""
    lines = list(head)
    if verdict.member:
        deco = verdict.decomposition
        lines.append(f"terms: {len(deco.terms)}")
        lines += [f"term: {d} coeff: {coeff}" for d, coeff in deco.terms]
    else:
        lines.append(f"violated: {verdict.violation.label} value: {verdict.violation.value}")
    print("\n".join(lines))
    return 0 if verdict.member else 1


def cmd_rays(args) -> int:
    if args.d1 == "inf":
        if args.tail:
            raise ValueError("a tail needs a finite d1")
        d = DegreeSequence.free(args.d0)
    else:
        d = (DegreeSequence.tail if args.tail else DegreeSequence.two_step)(args.d0, args.d1)
    print(format_table_text(make_pure_diagram(d)))
    print(f"degree_sequence: {d}")
    return 0


def cmd_check(args) -> int:
    table = parse_table_text(_read_text(args.file))
    verdict = (check_finite_length if args.finite_length else check_graded)(table)
    head = [f"member: {'yes' if verdict.member else 'no'}"] if args.show_member else []
    return _print_verdict(verdict, head)


def cmd_resolve(args) -> int:
    M = parse_module_text(_read_text(args.file), field=args.field)
    res = min_free_resolution(M, args.deg_bound, args.hom_bound)
    print(format_table_text(res.betti))
    print(f"tail_consistent: {'yes' if res.tail_consistent else 'no'}")
    rows = " ".join(str(i) for i in res.truncated_rows) if res.truncated_rows else "none"
    print(f"truncated_rows: {rows}")
    *_, (gamma_inf,) = _cone_functionals(res.betti.items())
    print(f"gamma_inf: {gamma_inf}")
    try:
        hd = hilbert_data(M, args.deg_bound)
        print(f"e: {hd.e}")
    except StabilizationError as exc:  # below flat, where truncated_rows is never empty
        print(f"warning: {exc}", file=sys.stderr)
    if res.truncated_rows:
        print(f"warning: rows {rows} may continue past deg_bound {res.deg_bound}", file=sys.stderr)
    return 1 if res.truncated_rows else 0


def cmd_hilbert(args) -> int:
    M = parse_module_text(_read_text(args.file), field=args.field)
    hd = hilbert_data(M, args.deg_bound)
    print(f"offset: {hd.offset}")
    print(f"numerator: {' '.join(str(c) for c in hd.numerator) if hd.numerator else '0'}")
    print(f"e: {hd.e}")
    return 0


def cmd_verify_window(args) -> int:
    report = cross_check(
        Window(args.jmin, args.jmax),
        finite_length=args.finite_length,
        include_alpha=not args.drop_alpha,
        include_gamma=not args.drop_gamma,
    )
    print(f"window: {args.jmin} {args.jmax}")
    print(f"generators: {report.n_generators}")
    print(f"facets: {report.n_facets}")
    print(f"rays: {report.n_rays}")
    print(f"equal: {'yes' if report.equal else 'no'}")
    for line in report.witnesses:
        print(f"witness: {line}")
    return 0 if report.equal else 1


def cmd_local(args) -> int:
    s = BettiSequence.of(_parse_rational(args.b0), _parse_rational(args.b1), _parse_rational(args.b2))
    verdict = check_local(s, finite_length=args.finite_length)
    if not verdict.member:
        return _print_verdict(verdict, ["not in local cone" if args.mode == "decompose" else "member: no"])
    if args.mode == "check":
        print("member: yes")
        return 0
    deco = verdict.decomposition
    print(f"a: {deco.a}")
    print(f"b: {deco.b}")
    print(f"c: {deco.c}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser run() shares: built on the first call, not at import.
    parse_args returns a new Namespace and looks sys.stdout and sys.stderr
    up when it writes, so one parser serves every call."""
    parser = argparse.ArgumentParser(
        prog="betticone",
        description="Betti cone toolkit for the ring k[x,y,z]/(xy,yz,xz)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rays", help="print the pure diagram of a degree sequence")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--d1", type=_int_or_inf, default="inf", help="int or inf (default inf)")
    p.add_argument("--tail", action="store_true", help="tail shape (d0, d1, d1+1, ...)")
    p.set_defaults(func=cmd_rays)

    p = sub.add_parser("check", help="cone membership of a table, with certificate")
    p.add_argument("file", nargs="?", default="-", help="table file or - for stdin")
    p.add_argument("--finite-length", action="store_true")
    p.set_defaults(func=cmd_check, show_member=True)

    p = sub.add_parser("decompose", help="like check, but prints only the decomposition")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--finite-length", action="store_true")
    p.set_defaults(func=cmd_check, show_member=False)

    p = sub.add_parser("resolve", help="Betti table of a module by minimal free resolution")
    p.add_argument("file", nargs="?", default="-", help="module file or - for stdin")
    p.add_argument("--deg-bound", type=int, required=True)
    p.add_argument("--hom-bound", type=int, required=True)
    p.add_argument("--field", type=_parse_field, default=None, help="qq, fp, or fp:P")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("hilbert", help="Hilbert series numerator and multiplicity")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--deg-bound", type=int, required=True)
    p.add_argument("--field", type=_parse_field, default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("verify-window", help="compare generators and facets on a window")
    p.add_argument("--jmin", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--finite-length", action="store_true")
    p.add_argument("--drop-alpha", action="store_true", help="ablation: omit alpha facets")
    p.add_argument("--drop-gamma", action="store_true", help="ablation: omit gamma facets")
    p.set_defaults(func=cmd_verify_window)

    p = sub.add_parser("local", help="membership and decomposition for (b0, b1, b2)")
    p.add_argument("mode", choices=("check", "decompose"))
    p.add_argument("b0")
    p.add_argument("b1")
    p.add_argument("b2")
    p.add_argument("--finite-length", action="store_true")
    # argparse reads only plain negative ints and decimals as values, and
    # -1/2 or -1e3 as unknown options; here a - before a digit or a point
    # starts a value
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(func=cmd_local)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (StabilizationError, DecompositionLoopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
