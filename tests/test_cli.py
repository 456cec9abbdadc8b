"""End to end exercises of the command line interface via run(argv)."""

import io
import os
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betticone import (
    FP_DEFAULT,
    QQ,
    BettiTable,
    DegreeSequence,
    Functional,
    PrimeField,
    check_graded,
    cli,
    collapse_tail,
    cone,
    expand_tail,
    hilbert_data,
    hk_ray,
    make_pure_diagram,
    min_free_resolution,
)
from betticone import resolve as resolve_module
from betticone.cli import (
    ModuleFormatError,
    format_table_text,
    parse_module_text,
    parse_table_text,
    run,
)
from betticone.linalg import SpanTracker
from betticone.cone import BettiSequence
from betticone.resolve import BUILTIN_NAMES, MAX_HOM_BOUND, BPolynomial, GradedModuleB
from betticone.tables import MAX_COEFFICIENT_BITS, _rational
from oracles import combine, functional_value, scrambled_sum


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


TAIL_TABLE = "betti v1\nmode canonical\nentry 0 0 1\nentry 1 1 3\nentry 2 2 6\n"
OMEGA_TABLE = "betti v1\nmode canonical\nentry 0 0 2\nentry 1 1 3\nentry 2 2 6\n"


# -- table and module files --------------------------------------------------------


def test_table_text_round_trip():
    t = BettiTable({(0, -1): 2, (1, 1): "3/2", (2, 2): 6})
    assert parse_table_text(format_table_text(t)) == t


def test_table_parse_ignores_trailing_report_lines():
    text = TAIL_TABLE + "tail_consistent: yes\ngamma_inf: 3\n"
    assert parse_table_text(text) == parse_table_text(TAIL_TABLE)


@pytest.mark.parametrize("text", [
    "mode canonical\nentry 0 0 1\n",
    "betti v2\nmode canonical\n",
    "betti v1\nmode diagonal\n",
    "betti v1\nmode canonical\nentry 0 0\n",
    "betti v1\nmode canonical\nentry 0 0 one\n",
    "betti v1\nmode canonical\nentry 0 0 1\nentry 0 0 2\n",
    "betti v1\nmode canonical\nentry 3 3 1\n",  # derived row in canonical mode
    # after the entries only report lines, first word ending in ':', may follow
    "betti v1\nmode canonical\nentry 0 0 1\nentyr 1 1 1\nentry 1 2 -5\n",
    "betti v1\nmode canonical\nmode explicit\nentry 0 0 -1\n",
    "betti v1\nmode canonical\nentry 0 0 1\ngamma_inf: 1\nentry 1 2 -5\n",
])
def test_table_parse_rejects(text):
    from betticone.cli import TableFormatError
    with pytest.raises(TableFormatError):
        parse_table_text(text)


def test_module_parse_rejects():
    from betticone.cli import ModuleFormatError
    for text in (
        "gens 0\nrel x*y\nspam 1\n",
        "builtin omega\ngens 0\n",
        "field Zp 7\ngens 0\n",
        "rel x\n",
        "builtin nonesuch\n",
    ):
        with pytest.raises(ModuleFormatError):
            parse_module_text(text)


def test_module_parse_field_line():
    M = parse_module_text("field QQ\ngens 0\nrel x^2\n")
    assert M.field.name == "QQ"
    M = parse_module_text("field Fp 101\ngens 0\nrel x^2\n")
    assert M.field.p == 101


# -- rays -------------------------------------------------------------------------


def test_rays_two_step(capsys):
    code, out, err = invoke(capsys, "rays", "--d0", "0", "--d1", "2")
    assert code == 0
    assert "entry 0 0 1" in out and "entry 1 2 1" in out
    assert "degree_sequence: (0, 2, inf)" in out


def test_rays_free_and_tail(capsys):
    code, out, _ = invoke(capsys, "rays", "--d0", "1")
    assert code == 0 and "degree_sequence: (1, inf)" in out
    code, out, _ = invoke(capsys, "rays", "--d0", "0", "--d1", "1", "--tail")
    assert code == 0
    assert "entry 1 1 3" in out and "entry 2 2 6" in out
    assert "degree_sequence: (0, 1, 2, ...)" in out


def test_rays_tail_needs_finite_d1(capsys):
    code, _, err = invoke(capsys, "rays", "--d0", "0", "--tail")
    assert code == 2 and "finite d1" in err


# -- check and decompose ------------------------------------------------------------


def test_check_member(capsys, tmp_path):
    path = write(tmp_path, "t.betti", TAIL_TABLE)
    code, out, _ = invoke(capsys, "check", path)
    assert code == 0
    assert "member: yes" in out
    assert "terms: 1" in out
    assert "term: (0, 1, 2, ...) coeff: 1" in out


def test_check_non_member_prints_certificate(capsys, tmp_path):
    path = write(tmp_path, "t.betti", "betti v1\nmode canonical\nentry 1 1 1\n")
    code, out, _ = invoke(capsys, "check", path)
    assert code == 1
    assert "member: no" in out
    assert "violated: gamma(0) value: -3" in out


def test_check_finite_length_flag(capsys, tmp_path):
    path = write(tmp_path, "t.betti", "betti v1\nmode canonical\nentry 0 0 1\n")
    assert invoke(capsys, "check", path)[0] == 0
    code, out, _ = invoke(capsys, "check", path, "--finite-length")
    assert code == 1
    assert "violated: gamma_inf value: 3" in out


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TAIL_TABLE))
    code, out, _ = invoke(capsys, "check")
    assert code == 0 and "member: yes" in out


def test_check_reports_a_greedy_without_progress(capsys, monkeypatch):
    monkeypatch.setattr(cone, "_max_step", lambda v, pi: Fraction(0))
    monkeypatch.setattr("sys.stdin", io.StringIO(OMEGA_TABLE))
    code, out, err = invoke(capsys, "check", "-")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no progress after 0 subtractions; ")


def test_decompose_output(capsys, tmp_path):
    path = write(tmp_path, "t.betti", OMEGA_TABLE)
    code, out, _ = invoke(capsys, "decompose", path)
    assert code == 0
    assert "member:" not in out
    lines = out.strip().splitlines()
    assert lines[0] == "terms: 2"
    assert lines[1] == "term: (0, 1, 2, ...) coeff: 1"
    assert lines[2] == "term: (0, inf) coeff: 1"


@pytest.mark.parametrize("value", ["1e10000000", "1e1000000000", "7.5e-10000000", "9" * 1300, str(2 ** 4097),
                                   "7" * 4301, "1." + "0" * 4400 + "1", "1e" + "9" * 5000])
def test_values_past_the_coefficient_bound_are_refused_promptly(capsys, tmp_path, value):
    path = write(tmp_path, "t.betti", f"betti v1\nmode canonical\nentry 0 0 {value}\n")
    for argv in (["check", path], ["local", "check", value, "1", "1"], ["local", "decompose", "1", "1", value]):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    # the library reads a value by the same rule
    for build in (lambda: BettiTable({(0, 0): value}), lambda: BettiSequence.of(value, 0, 0),
                  lambda: hk_ray(value), lambda: BPolynomial.constant(value)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above 4096 bits"):
            build()
        assert time.perf_counter() - start < 2.0


def test_a_verdict_past_the_int_to_text_limit_prints_nothing(capsys, tmp_path):
    # each entry is within the coefficient bound, but the violated gamma would
    # sum them over pairwise coprime denominators, past Python's 4,300 digits:
    # the lcm of the denominators passes the bound, so check refuses the table,
    # and local a triple of such values
    values = [f"1/{2 ** 4096 - k}" for k in (1, 3, 5, 7, 9)]
    entries = "".join(f"entry 0 {n} {value}\n" for n, value in enumerate(values))
    path = write(tmp_path, "t.betti", f"betti v1\nmode canonical\n{entries}entry 1 9 1\n")
    for argv in (["check", path], ["check", path, "--finite-length"], ["decompose", path],
                 ["local", "check", *values[:3]], ["local", "decompose", *values[:3], "--finite-length"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: the lcm of the entry denominators passes 4096 bits\n"


def test_values_up_to_the_coefficient_bound_parse(capsys):
    # the bound is the one parse_poly keeps: floor(log2) of the numerator or
    # the denominator at most 4096
    for value in (2 ** 4097 - 1, Fraction(1, 2 ** 4097 - 1), Fraction(10 ** 1233)):
        t = BettiTable({(0, 0): value})
        assert parse_table_text(format_table_text(t)) == t
    assert parse_table_text("betti v1\nmode canonical\nentry 0 0 1e1233\n") == BettiTable({(0, 0): 10 ** 1233})
    # leading zeros past int()'s 4,300 digits spell a small value, read exactly
    for text, value in (("0" * 4301 + "7", 7), ("0" * 4301 + "1/2", Fraction(1, 2))):
        assert _rational(text, "entry") == value
        assert parse_table_text(f"betti v1\nmode canonical\nentry 0 0 {text}\n") == BettiTable({(0, 0): value})
        assert invoke(capsys, "local", "check", text, "0", "0") == (0, "member: yes\n", "")


def test_check_missing_file(capsys, tmp_path):
    code, _, err = invoke(capsys, "check", str(tmp_path / "absent.betti"))
    assert code == 2 and "error:" in err


def test_check_bad_table_file(capsys, tmp_path):
    path = write(tmp_path, "t.betti", "not a table\n")
    code, _, err = invoke(capsys, "check", path)
    assert code == 2 and "betti v1" in err


def test_check_refuses_a_repeated_entry_after_a_zero(capsys, tmp_path):
    path = write(tmp_path, "t.betti", "betti v1\nmode canonical\nentry 0 0 0\nentry 0 0 1\n")
    code, out, err = invoke(capsys, "check", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "duplicate" in err


# -- resolve and hilbert -------------------------------------------------------------


def test_resolve_builtin_omega(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "builtin omega\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "8", "--hom-bound", "4")
    assert code == 0 and err == ""
    for line in ("entry 0 0 2", "entry 1 1 3", "entry 2 2 6", "entry 3 3 12", "entry 4 4 24"):
        assert line in out
    assert "tail_consistent: yes" in out
    assert "truncated_rows: none" in out
    assert "gamma_inf: 3" in out
    assert "e: 3" in out


def test_resolve_output_pipes_into_check(capsys, tmp_path, monkeypatch):
    path = write(tmp_path, "m.mod", "gens 0\nrel x^2\nrel y^2\nrel z^2\n")
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "11", "--hom-bound", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = invoke(capsys, "check", "--finite-length")
    assert code == 0 and "member: yes" in out


def test_a_window_cut_at_deg_bound_pipes_into_check(capsys, tmp_path, monkeypatch):
    # row 2 holds 2 at degree 5 = deg_bound; its image in row 3 lies past it
    path = write(tmp_path, "m.mod", "gens 0 0\nrel x, 0\nrel 0, x^4\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "5", "--hom-bound", "3")
    assert "entry 2 5 2" in out and "entry 3 6" not in out
    assert "may continue past deg_bound 5" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = invoke(capsys, "check", "-")
    assert code == 0
    assert out.startswith("member: yes\nterms: 3\n")


def test_a_truncated_scrambled_sum_pipes_into_check(capsys, monkeypatch):
    # deg_bound at the sum's last degree keeps rows 0..2 whole and cuts the
    # rows above them; check - then reads the window as the combination
    rng = random.Random(2804)
    for field in ("QQ", "Fp 32003"):
        for _ in range(3):
            terms = [(DegreeSequence.tail(3, 5), 1)]  # row 2 at degree 6, the last
            for _ in range(rng.randint(2, 6)):
                d0 = rng.randint(0, 3)
                terms.append((rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d0 + 1),
                                          DegreeSequence.tail(d0, d0 + rng.randint(1, 2)))), rng.randint(1, 2)))
            M = scrambled_sum(terms, QQ if field == "QQ" else FP_DEFAULT, rng)
            text = "\n".join([f"field {field}", "gens " + " ".join(map(str, M.gen_degrees))]
                             + ["rel " + ", ".join(map(str, row)) for row in M.relations]) + "\n"
            table = {}
            for d, m in terms:
                table = combine(1, table, m, make_pure_diagram(d))
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, window, err = invoke(capsys, "resolve", "-", "--deg-bound", "6", "--hom-bound", "3")
            assert "may continue past deg_bound 6" in err
            explicit = parse_table_text(window)
            assert {ij: v for ij, v in explicit.items() if ij[0] <= 2} == table
            assert explicit.entry(3, 7) == 0 and expand_tail(BettiTable(table), 3).entry(3, 7) > 0
            monkeypatch.setattr("sys.stdin", io.StringIO(window))
            checked = invoke(capsys, "check", "-")
            monkeypatch.setattr("sys.stdin", io.StringIO(format_table_text(BettiTable(table))))
            assert checked == invoke(capsys, "check", "-")
            assert checked[0] == 0 and checked[1].startswith("member: yes\n")


def test_resolve_truncation_warns_and_fails(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "gens 0\nrel x^5\nrel y^5\nrel z^5\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
    assert code == 1
    assert "truncated_rows: 2" in out
    assert "may continue past deg_bound 6" in err


def test_resolve_field_override(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "field Fp 7\nbuiltin B\n")
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2",
                          "--field", "qq")
    assert code == 0 and "entry 0 0 1" in out


def test_resolve_rejects_a_denominator_the_field_cannot_invert(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "field Fp 7\ngens 0\nrel 1/7*x\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "divisible by 7" in err


@pytest.mark.parametrize("text", [
    "field QQ\nfield Fp 7\ngens 0\nrel 7*x\n",
    "gens 0\ngens 5\nrel x\n",
    "builtin omega\nbuiltin B\n",
])
def test_a_repeated_module_keyword_is_refused(capsys, tmp_path, text):
    path = write(tmp_path, "m.mod", text)
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: repeated ") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("gens 0 0\nrel x,\n", "empty entry, no polynomial given"),
    ("gens 0\nrel x +\n", "input ends early in 'x +'"),
])
def test_a_relation_that_ends_early_says_so(capsys, tmp_path, text, message):
    path = write(tmp_path, "m.mod", text)
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("rel, message", [
    pytest.param("x^²", "bad character '²' in 'x^²'", id="superscript"),
    pytest.param("1" * 5000 + "*x", f"integer {'1' * 64!r}... (5000 characters) needs a numerator or denominator"
                 f" above {MAX_COEFFICIENT_BITS} bits", id="past-the-digit-limit"),
])
def test_a_digit_int_cannot_read_is_a_format_error(capsys, tmp_path, rel, message):
    path = write(tmp_path, "m.mod", f"gens 0\nrel {rel}\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


SEVENS = "7" * 100_000
BITS = f"needs a numerator or denominator above {MAX_COEFFICIENT_BITS} bits"


def sevens(n):
    """How a refusal quotes a text of n sevens."""
    return f"{'7' * 64!r}... ({n} characters)"


def long_text_probes():
    """(id, argv, stdin, quoted) of each refusal of a long text: every int
    option given 100,000 sevens, and every int a module or table text holds
    given 100,000 and 4,000 sevens, all past MAX_COEFFICIENT_BITS bits; and
    ints of 1,000 sevens, below it, that the library refuses and quotes."""
    resolve = ["resolve", "-", "--deg-bound", "6", "--hom-bound", "2"]
    for option, argv in [("d0", ["rays"]), ("d1", ["rays", "--d0", "0"]), ("deg-bound", ["hilbert", "-"]),
                         ("hom-bound", ["resolve", "-", "--deg-bound", "6"]),
                         ("jmin", ["verify-window", "--jmax", "0"]), ("jmax", ["verify-window", "--jmin", "0"])]:
        yield (option, argv + [f"--{option}", SEVENS], "builtin B\n",
               f"argument --{option}: value {sevens(100_000)} {BITS}")
    for n in (100_000, 4000):
        run = "7" * n
        yield f"gens-{n}", resolve, f"gens {run}\n", f"bad gens line: degree {sevens(n)} {BITS}"
        yield (f"table-index-{n}", ["check", "-"], f"betti v1\nmode canonical\nentry 0 {run} 1\n",
               f"bad entry line: {('entry 0 ' + run)[:64]!r}... ({n + 10} characters)")
        yield f"field-line-{n}", resolve, f"field Fp {run}\nbuiltin B\n", f"bad field line: prime {sevens(n)} {BITS}"
        yield (f"field-option-{n}", resolve + ["--field", f"fp:{run}"], "builtin B\n",
               f"argument --field: prime {sevens(n)} {BITS}")
        yield (f"rel-{n}", resolve, f"gens 0\nrel x {run}\n",
               f"integer {sevens(n)} {BITS} in {('x ' + run)[:64]!r}... ({n + 2} characters)")
    yield "rays-4000", ["rays", "--d0", "7" * 4000, "--d1", "3"], "", f"argument --d0: value {sevens(4000)} {BITS}"
    yield ("verify-window-4000", ["verify-window", "--jmin", "0", "--jmax", "7" * 4000], "",
           f"argument --jmax: value {sevens(4000)} {BITS}")
    run, quoted = "7" * 1000, f"{'7' * 64}... (1000 characters)"
    yield ("d0-not-below-d1", ["rays", "--d0", run, "--d1", "3"], "",
           f"need d0 < d1, got ({'7' * 63}... (1005 characters)")
    yield "empty-window", ["verify-window", "--jmin", run, "--jmax", "0"], "", f"empty window [{quoted}, 0]"
    yield ("negative-index", ["check", "-"], f"betti v1\nmode canonical\nentry -{run} 0 1\n",
           f"homological index must be >= 0, got -{'7' * 63}... (1001 characters)")
    yield ("window-cap", ["verify-window", "--jmin", "0", "--jmax", run], "",
           f"window dimension 2{'3' * 63}... (1001 characters) exceeds cap")
    yield "prime-too-large", resolve, f"field Fp {run}\nbuiltin B\n", f"bad field line: prime {quoted} is too large"
    yield "trailing-int", resolve, f"gens 0\nrel x {run}\n", f"trailing input {quoted} in"


WORD = "w" * 100_000
WORD_QUOTED = f"{'w' * 64!r}... (100000 characters)"
# the refusals argparse makes in the full parser, named "betticone"; a command's parser is "betticone COMMAND"
FULL_PARSER = ("unrecognized arguments: ", "argument command: ")


@pytest.mark.parametrize("argv, stdin, quoted", [
    pytest.param(["local", "check", SEVENS, "0", "0"], "", f"b0 {SEVENS[:64]!r}... (100000 characters) needs",
                 id="local-value"),
    pytest.param(["local", WORD, "1", "2", "3"], "", f"argument mode: invalid choice: {WORD_QUOTED} (choose from ",
                 id="invalid-choice"),
    pytest.param([WORD], "", f"argument command: invalid choice: {WORD_QUOTED} (choose from ", id="invalid-command"),
    pytest.param(["check", "-", WORD], OMEGA_TABLE, f"unrecognized arguments: {WORD_QUOTED}\n",
                 id="unrecognized-argument"),
    pytest.param(["verify-window", "--jmin", "0", "--jmax", "3", f"--{WORD}"], "",
                 f"unrecognized arguments: {'--' + WORD[:62]!r}... (100002 characters)\n", id="unrecognized-option"),
    pytest.param(["verify-window", "--jmin", "0", "--jmax", "3", f"--d={WORD}"], "",
                 f"ambiguous option: {'--d=' + WORD[:60]!r}... (100004 characters) could match --drop-alpha,",
                 id="ambiguous-option"),
    pytest.param(["rays", "--d0", "0", f"--tail={WORD}"], "",
                 f"argument --tail: ignored explicit argument {WORD_QUOTED}", id="ignored-explicit-argument"),
    pytest.param(["resolve", "-", "--deg-bound", "6", "--hom-bound", "2"], f"gens 0\nrel {'7' * 1200}\n",
                 f"relation entry {'7' * 64}... (1200 characters) is a unit", id="unit-relation"),
    pytest.param(["check", "-"], f"betti v1\nmode canonical\nentry 0 0 {SEVENS}\n",
                 f"bad entry line: {('entry 0 0 ' + SEVENS)[:64]!r}... (100010 characters)", id="table-entry"),
    pytest.param(["resolve", "-", "--deg-bound", "6", "--hom-bound", "2"], f"gens 0\nrel {SEVENS[:50_000]}\n",
                 f"integer {sevens(50_000)} {BITS} in {sevens(50_000)}", id="relation"),
    *(pytest.param(argv, stdin, quoted, id=name) for name, argv, stdin, quoted in long_text_probes()),
])
def test_a_refusal_quotes_a_long_text_by_its_prefix_and_length(argv, stdin, quoted):
    code, out, err = run_quietly(argv, stdin)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1000 and err.count("error:") == 1
    # the library's refusal is one line; argparse writes its usage lines first
    *usage, last = err.splitlines()
    assert not usage or usage[0].startswith("usage: "), err
    prog = "betticone" if quoted.startswith(FULL_PARSER) else f"betticone {argv[0]}"
    assert (last + "\n").startswith(f"{prog}: error: {quoted}" if usage else f"error: {quoted}"), err


def test_an_int_text_is_read_by_its_value(capsys, tmp_path):
    # int() refuses a run of 5,000 characters and these texts, the value rule reads each as an int
    path = write(tmp_path, "m.mod", f"gens {'0' * 4999}7 1e1 20/2\nrel x, 0, 0\n")
    code, out, err = invoke(capsys, "hilbert", path, "--deg-bound", "4e1")
    assert (code, err) == (0, "") and out == "offset: 7\nnumerator: 1 1 0 2 4\ne: 8\n"
    code, out, err = invoke(capsys, "rays", "--d0=-6/3", "--d1", "1e0")
    assert (code, err) == (0, "") and "degree_sequence: (-2, 1, inf)\n" in out
    code, _, err = invoke(capsys, "rays", "--d0", "3/2")
    assert code == 2 and err.endswith(" error: argument --d0: value '3/2' is not an int\n")


@pytest.mark.parametrize("argv, same", [
    pytest.param(["rays", "--d0", "-6/3"], ["rays", "--d0=-2"], id="d0"),
    pytest.param(["verify-window", "--jmin", "-1e0", "--jmax", "2"], ["verify-window", "--jmin", "-1", "--jmax", "2"],
                 id="jmin"),
])
def test_every_option_reads_a_negative_value(capsys, argv, same):
    # argparse takes -6/3 or -1e0 for an unknown option; the CLI's parser
    # takes a - before a digit or a point for the start of a value
    answer = invoke(capsys, *argv)
    assert answer[0] == 0 and answer == invoke(capsys, *same)


def test_huge_prime_is_refused_promptly(capsys, tmp_path):
    huge = "1000000000000000003"
    start = time.perf_counter()
    path = write(tmp_path, "m.mod", f"field Fp {huge}\nbuiltin B\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
    assert code == 2 and out == "" and err.startswith("error:") and "2^31" in err
    path = write(tmp_path, "b.mod", "builtin B\n")
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2",
                          "--field", f"fp:{huge}")
    assert code == 2 and out == ""
    assert time.perf_counter() - start < 2.0


RESOLVE = ("resolve", "--deg-bound", "6", "--hom-bound", "2")
LONG_PRIME = "7" * 5000  # past Python's limit on text-to-int digits


@pytest.mark.parametrize("argv, message", [
    pytest.param(RESOLVE + ("--field", "fp:4"), "argument --field: 4 is not prime", id="not-prime"),
    pytest.param(RESOLVE + ("--field", "zz"), "argument --field: bad field 'zz' (use qq, fp, or fp:P)",
                 id="bad-spec"),
    pytest.param(RESOLVE + ("--field", "fp:x"), "argument --field: prime 'x' is not an int", id="not-an-int"),
    pytest.param(RESOLVE + ("--field", f"fp:{LONG_PRIME}"), f"argument --field: prime {sevens(5000)} {BITS}",
                 id="long-prime"),
    pytest.param(("rays", "--d0", "0", "--d1", "x"), "argument --d1: value 'x' is not an int", id="d1"),
])
def test_a_bad_argument_is_named_with_its_reason(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f" error: {message}\n"), err


@pytest.mark.parametrize("line, message", [
    pytest.param("field Fp 4", "bad field line: 4 is not prime", id="not-prime"),
    pytest.param("field Fp x", "bad field line: prime 'x' is not an int", id="not-an-int"),
    pytest.param(f"field Fp {LONG_PRIME}", f"bad field line: prime {sevens(5000)} {BITS}", id="long-prime"),
    pytest.param("gens 0 a", "bad gens line: degree 'a' is not an int", id="gens"),
])
def test_a_bad_module_line_is_named(capsys, tmp_path, line, message):
    path = write(tmp_path, "m.mod", f"{line}\nbuiltin B\n" if line.startswith("field") else f"{line}\n")
    code, out, err = invoke(capsys, *RESOLVE, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_field_fp_overrides_the_file(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "field QQ\ngens 0\nrel 1/32003*x\n")
    code, out, _ = invoke(capsys, *RESOLVE, path)
    assert code == 0 and "entry 1 1 1" in out
    code, out, err = invoke(capsys, *RESOLVE, path, "--field", "fp")
    assert code == 2 and out == "" and "divisible by 32003" in err


def test_hilbert_of_a_module_with_no_generators(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "gens\n")
    assert invoke(capsys, "hilbert", path, "--deg-bound", "4") == (0, "offset: 0\nnumerator: 0\ne: 0\n", "")


def test_high_power_of_an_inhomogeneous_base_is_refused_promptly(capsys, tmp_path):
    for rel in ("(x+1)^4000", "*".join(["(x+1)^64"] * 40)):
        path = write(tmp_path, "m.mod", f"gens 0\nrel {rel}\n")
        start = time.perf_counter()
        code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "6", "--hom-bound", "2")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "inhomogeneous" in err


def test_resolve_cost_does_not_follow_deg_bound(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "builtin omega\n")
    for deg_bound in ("1000", "1000000000"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "resolve", path, "--deg-bound", deg_bound, "--hom-bound", "6")
        assert time.perf_counter() - start < 2.0
        assert code == 0 and err == ""
        assert "truncated_rows: none" in out and "entry 6 6 96" in out and "e: 3" in out


def test_hilbert_cost_does_not_follow_deg_bound(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "builtin omega\n")
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "hilbert", path, "--deg-bound", "1000000000")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "numerator: 2 1" in out and "e: 3" in out


def test_hom_bound_is_capped(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "builtin omega\n")
    for hom in (MAX_HOM_BOUND + 1, 10 ** 18):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "resolve", path, "--deg-bound", str(hom + 5), "--hom-bound", str(hom))
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "hom_bound" in err
    start = time.perf_counter()
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "1005", "--hom-bound", str(MAX_HOM_BOUND))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert f"entry 1000 1000 {3 * 2 ** 999}\n" in out and "truncated_rows: none" in out


def test_resolve_bad_bounds(capsys, tmp_path):
    # unusable bounds are a usage error, not a checked failure
    path = write(tmp_path, "m.mod", "builtin B\n")
    code, _, err = invoke(capsys, "resolve", path, "--deg-bound", "1", "--hom-bound", "1")
    assert code == 2 and "hom_bound must be at least 2" in err
    code, _, err = invoke(capsys, "resolve", path, "--deg-bound", "1.5", "--hom-bound", "2")
    assert code == 2 and "argument --deg-bound: value '1.5' is not an int" in err
    # any int deg_bound is a window: B is flat from degree 1 on, and omega's
    # row 1 has mass at degree 1
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "1", "--hom-bound", "2")
    assert (code, err) == (0, "") and "truncated_rows: none\n" in out and "e: 3\n" in out
    path = write(tmp_path, "w.mod", "builtin omega\n")
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "1", "--hom-bound", "4")
    assert code == 1 and "truncated_rows: 1 2 3 4\n" in out


def test_hilbert_omega(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "builtin omega\n")
    code, out, _ = invoke(capsys, "hilbert", path, "--deg-bound", "8")
    assert code == 0
    assert "offset: 0" in out
    assert "numerator: 2 1" in out
    assert "e: 3" in out


def test_hilbert_not_stabilized(capsys, tmp_path):
    # dims of B/(x^5) are 1, 3, 3, 3, 3, 2, 2, ... so a window ending at 4 is too early
    path = write(tmp_path, "m.mod", "gens 0\nrel x^5\n")
    code, out, err = invoke(capsys, "hilbert", path, "--deg-bound", "4")
    assert code == 1 and out == "" and "error:" in err
    # the redundant x^5 does not move the flat degree, and the error says which degrees count
    path = write(tmp_path, "r.mod", "gens 0\nrel x\nrel x^5\n")
    code, out, err = invoke(capsys, "hilbert", path, "--deg-bound", "1")
    assert (code, out) == (1, "")
    assert err == "error: deg_bound 1 is below 2, one past the top degree of the minimal generators and relations\n"


def test_resolve_prints_no_e_below_the_flat_degree(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "gens 0\nrel x^5\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "4", "--hom-bound", "2")
    assert code == 1 and "entry 0 0 1" in out and "e:" not in out
    assert "below 6" in err
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "7", "--hom-bound", "2")
    assert code == 0 and "e: 2" in out


@pytest.mark.parametrize("text, deg_bound, hom_bound, code, trackers", [
    ("builtin omega\n", "8", "4", 0, 2),
    ("gens 0 1\nrel x^2, 0\nrel y^3, 0\nrel 0, (x + 2*y)^2\n", "9", "4", 0, 3),
    ("gens 0\nrel x^5\n", "4", "2", 1, 2),  # below the flat degree 6
], ids=["omega", "direct-sum", "below-flat"])
def test_resolve_walks_the_relations_once(capsys, tmp_path, monkeypatch, text, deg_bound, hom_bound, code,
                                          trackers):
    # the relation walk builds every span tracker resolve.py builds: one for
    # the blocks and one per degree that holds relations.  So one walk, shared
    # by rows 1 and 2 and the e line, builds these and no more
    walks = []

    class Counting(SpanTracker):
        def __init__(self, *args):
            walks.append(args)
            super().__init__(*args)

    monkeypatch.setattr(resolve_module, "SpanTracker", Counting)
    path = write(tmp_path, "m.mod", text)
    got, out, _ = invoke(capsys, "resolve", path, "--deg-bound", deg_bound, "--hom-bound", hom_bound)
    assert (got, len(walks)) == (code, trackers)
    assert any(line.startswith("e: ") for line in out.splitlines()) == (code == 0)


def test_a_module_text_parses_each_distinct_entry_once(monkeypatch):
    # the direct sum of 60 copies of omega: 21,600 entries, nearly all " 0"
    x, y, z = map(BPolynomial.variable, "xyz")
    zero = BPolynomial.zero()
    blocks = ((-z, zero), (y, -y), (zero, x))
    rows = [[zero] * 120 for _ in range(180)]
    for c in range(60):
        for k, block in enumerate(blocks):
            rows[3 * c + k][2 * c:2 * c + 2] = block
    text = "gens" + " 0" * 120 + "\n" + "".join(f"rel {', '.join(map(str, row))}\n" for row in rows)
    distinct = {t for line in text.splitlines()[1:] for t in line[len("rel "):].split(",")}
    calls = []
    parse_poly = cli.parse_poly
    monkeypatch.setattr(cli, "parse_poly", lambda t: calls.append(t) or parse_poly(t))
    M = parse_module_text(text)
    assert len(calls) <= len(distinct), (len(calls), distinct)
    assert M == GradedModuleB((0,) * 120, tuple(map(tuple, rows)), FP_DEFAULT)
    assert M._rows == BettiTable({(0, 0): 120, (1, 1): 180, (2, 2): 360})


def pipeline_modules(seed, count):
    """Module texts of the five kinds the README pipeline meets: monomial
    quotients, powers of linear forms, partial monomial quotients, direct sums
    of two cyclic pieces, and twisted omega, every other one over QQ."""
    rng = random.Random(seed)

    def cyclic(kind):
        if kind == "linear":
            coeffs = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in "xyz"]
            coeffs[rng.randrange(3)] = rng.choice((-2, 1, 3))
            form = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{v}" for c, v in zip(coeffs, "xyz") if c)
            return [f"({form})^{rng.randint(1, 4)}"]
        names = rng.sample("xyz", 3 if kind == "mono" else rng.randint(1, 2))
        return [f"{v}^{rng.randint(1, 5)}" for v in names]

    for n in range(count):
        kind = ("mono", "linear", "partial", "sum", "omega")[n % 5]
        lines = ["field QQ"] if n % 2 else []
        if kind == "omega":
            x, y, z = rng.sample("xyz", 3)
            t = rng.randint(0, 2)
            lines += [f"gens {t} {t}", f"rel -{z}, 0", f"rel {y}, -{y}", f"rel 0, {x}"]
        elif kind == "sum":
            first, second = cyclic(rng.choice(("mono", "partial"))), cyclic("linear")
            lines.append(f"gens {rng.randint(0, 2)} {rng.randint(0, 2)}")
            lines += [f"rel {g}, 0" for g in first] + [f"rel 0, {g}" for g in second]
        else:
            lines += ["gens 0"] + [f"rel {g}" for g in cyclic(kind)]
        yield "\n".join(lines) + "\n"


def test_resolve_gamma_inf_and_e_lines_match_their_definitions():
    # gamma_inf by the tests' functional oracle, e by hilbert_data, on every
    # builtin over both fields and on forty seeded modules
    texts = [f"{field}builtin {name}\n" for name in BUILTIN_NAMES for field in ("", "field QQ\n")]
    texts += pipeline_modules(seed=20260419, count=40)
    for text in texts:
        code, out, err = run_quietly(["resolve", "-", "--deg-bound", "12", "--hom-bound", "4"], text)
        assert code == 0, (text, err)
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        table = parse_table_text(out)
        assert lines["gamma_inf"] == str(functional_value(Functional.gamma_inf(), table)), text
        assert lines["e"] == str(hilbert_data(parse_module_text(text), 12).e), text


def test_decomposition_coefficients_stay_fractions():
    # Fraction(1, 2) == 0.5, so comparing terms with the reference greedy
    # would let a float coefficient through: the type is asserted here, on
    # seeded members, on sparse members spread over 10^4 degrees, and on the
    # tables resolve prints for the README pipeline's modules, and with them
    # the entry types of every kind of table the package builds
    rng = random.Random(20261019)
    tables = []
    for spread, gap in ((6, 3), (10 ** 4, 10 ** 4)):
        for _ in range(60):
            entries = {}
            for _ in range(rng.randint(1, 8)):
                d0 = rng.randint(-spread, spread)
                d1 = d0 + rng.randint(1, gap)
                d = rng.choice((DegreeSequence.free(d0), DegreeSequence.two_step(d0, d1),
                                DegreeSequence.tail(d0, d1)))
                entries = combine(1, entries, Fraction(rng.randint(1, 8), rng.randint(1, 4)),
                                  make_pure_diagram(d))
            tables.append(BettiTable(entries))
    for text in pipeline_modules(seed=20261019, count=40):
        code, out, _ = run_quietly(["resolve", "-", "--deg-bound", "12", "--hom-bound", "4"], text)
        assert code == 0, text
        tables.append(parse_table_text(out))
    for name in BUILTIN_NAMES:
        for field in (QQ, FP_DEFAULT, PrimeField(7)):
            tables.append(min_free_resolution(resolve_module.builtin(name, field), 13, 10).betti)
    tables += [make_pure_diagram(d) for d in (DegreeSequence.free(1), DegreeSequence.two_step(0, 2),
                                                    DegreeSequence.tail(-1, 0))]
    built = []
    for v in tables:
        verdict = check_graded(v)
        assert verdict.member and verdict.decomposition.recombine() == collapse_tail(v)
        assert all(type(c) is Fraction for _, c in verdict.decomposition.terms), v
        built += [verdict.decomposition.recombine(), expand_tail(collapse_tail(v), 6, 40)]
    parsed = parse_table_text(
        "betti v1\nmode explicit\nentry 0 0 4/2\nentry 1 1 -6/3\nentry 1 2 1e2\nentry 2 3 0.5\n")
    verdict = check_graded(parsed)
    assert not verdict.member and type(verdict.violation.value) is Fraction
    tables.append(parsed)
    for v in tables:
        # perturbed below the cone, each table must report an exact violation
        viol = check_graded(BettiTable(combine(1, v, -1, {v.support()[0]: 10 ** 6}), v.tail_mode)).violation
        assert type(viol.value) is Fraction, v
    # every entry of every table the package built is an int when integral,
    # a Fraction when not: never a float, a bool or a Fraction over 1
    for v in tables + built:
        values = [q for _, q in v.items()] + [v.entry(i, j) for i, j in v.support()]
        assert all(type(q) is int or (type(q) is Fraction and q.denominator > 1) for q in values), v


# -- fuzzing resolve and hilbert ------------------------------------------------------

ints = st.one_of(st.integers(-3, 12), st.integers(-10 ** 20, 10 ** 20))


def monomial_sums(e, min_size=0):
    """Relation entries + c1*v1^e - c2*v2^e ..., or 0."""
    return st.lists(st.tuples(ints, st.sampled_from("xyz")), min_size=min_size, max_size=3).map(
        lambda terms: " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{v}^{e}" for c, v in terms) or "0")


token_soups = st.lists(
    st.one_of(st.sampled_from(list("xyz+-*/^() ")), ints.map(str)), max_size=12
).map("".join)
entries = st.one_of(
    ints.flatmap(monomial_sums),
    token_soups,
    st.builds("({}*{})^{}".format, ints, st.sampled_from("xyz1"), ints),
    st.builds(lambda n, inner: "(" * n + inner + ")" * n, st.integers(0, 200), token_soups),
)
module_lines = st.one_of(
    st.one_of(st.sampled_from(["QQ", "Fp 2", "Fp 7", "Fp 32003", "Fp", "Zp 7"]),
              ints.map("Fp {}".format)).map("field {}".format),
    st.lists(ints, max_size=4).map(lambda ds: " ".join(["gens", *map(str, ds)])),
    st.lists(entries, min_size=1, max_size=4).map(lambda row: "rel " + ", ".join(row)),
    st.sampled_from(BUILTIN_NAMES + ("nonesuch", "")).map("builtin {}".format),
    st.text(max_size=20),
)


@st.composite
def module_texts(draw):
    """Lines drawn from the format's keywords, entries and arbitrary text; or
    a gens line with homogeneous rel rows of the right length, so that most
    such modules resolve, with at most one drawn line put in among them."""
    if not draw(st.integers(0, 3)):
        return "\n".join(draw(st.lists(module_lines, max_size=8)))
    gens = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=3))
    lines = [draw(st.sampled_from(["", "field QQ", "field Fp 2", "field Fp 7"])),
             "gens " + " ".join(map(str, gens))]
    reach = draw(st.sampled_from([3, 3, 3, 10 ** 7]))  # how far relation degrees go
    for _ in range(draw(st.integers(1, 4))):
        d = max(gens) + draw(st.integers(1, reach))
        lines.append("rel " + ", ".join(draw(monomial_sums(d - a, 1)) if d > a else "0" for a in gens))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(module_lines))
    return "\n".join(lines)


@given(text=module_texts(), field=st.sampled_from([None, QQ]))
@example(text="gens 0\nrel x^²", field=None)
@example(text="gens 0\nrel " + "1" * 5000 + "*x", field=None)
@settings(max_examples=300, deadline=2000)
def test_module_parsing_survives_fuzzing(text, field):
    try:
        module = parse_module_text(text, field=field)
    except ModuleFormatError:
        return
    assert isinstance(module, GradedModuleB)


@given(text=module_texts(), command=st.sampled_from(["resolve", "hilbert"]),
       deg_bound=st.integers(-5, 10 ** 9), hom_bound=st.integers(-5, 2 * MAX_HOM_BOUND))
@settings(max_examples=300, deadline=2000)
def test_module_commands_survive_fuzzing(text, command, deg_bound, hom_bound):
    argv = [command, "-", "--deg-bound", str(deg_bound)]
    if command == "resolve":
        argv += ["--hom-bound", str(hom_bound)]
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# -- fuzzing check, decompose and local ------------------------------------------------

indices = st.one_of(st.integers(-3, 8), st.integers(-10 ** 20, 10 ** 20))
numbers = st.one_of(
    ints.map(str),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.builds("{}e{}".format, st.integers(-99, 99), st.one_of(st.integers(-9, 9), indices)),
)
values = st.one_of(
    numbers,
    st.sampled_from(["1/0", "0/0", "nan", "inf", "1e", "e5", "1_000", ".5", "5.", "-0", "1/-2", "1e5_0"]),
    st.text(max_size=8),
)
table_lines = st.one_of(
    st.sampled_from(["betti v1", "betti v2", "mode canonical", "mode explicit", "mode diagonal", ""]),
    st.builds("entry {} {} {}".format, indices, indices, values),
    st.text(max_size=20),
)


@st.composite
def table_texts(draw):
    """Lines drawn from the format's header, mode and entry lines and from
    arbitrary text; or a well formed header with numeric entry lines in the
    rows the mode admits (up to 4 if explicit), with at most one drawn line
    put in among them."""
    if not draw(st.integers(0, 3)):
        return "\n".join(draw(st.lists(table_lines, max_size=8)))
    mode = draw(st.sampled_from(["canonical", "explicit"]))
    rows = st.integers(0, 2 if mode == "canonical" else 4)
    cells = draw(st.dictionaries(st.tuples(rows, st.integers(-3, 6)), numbers, max_size=6))
    lines = ["betti v1", f"mode {mode}", *(f"entry {i} {j} {v}" for (i, j), v in cells.items())]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(table_lines))
    return "\n".join(lines)


def run_quietly(argv, stdin=""):
    """(exit code, stdout, stderr) of run(argv) with stdin read from a string."""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


cells = st.one_of(st.integers(-10 ** 40, 10 ** 40), st.fractions(max_denominator=10 ** 12))
drawn_tables = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 2), indices), cells, max_size=6).map(BettiTable),
    st.dictionaries(st.tuples(st.integers(0, 40), indices), cells, max_size=6).map(
        lambda entries: BettiTable(entries, tail_mode="explicit")),
)


# numbers go straight on the local command line, even -1/2 or -5e3; any other
# value goes after --, or argparse would read -x as an option
local_values = st.one_of(st.tuples(st.just([]), numbers, numbers, numbers),
                         st.tuples(st.just(["--"]), values, values, values))


@given(text=table_texts(), table=drawn_tables, command=st.sampled_from(["check", "decompose"]),
       finite_length=st.booleans(), mode=st.sampled_from(["check", "decompose"]), local=local_values)
@settings(max_examples=300, deadline=2000)
def test_table_commands_survive_fuzzing(text, table, command, finite_length, mode, local):
    assert parse_table_text(format_table_text(table)) == table
    flag = ["--finite-length"] if finite_length else []
    separator, *triple = local
    for argv, stdin in (([command, "-", *flag], text), ([command, "-", *flag], format_table_text(table)),
                        (["local", mode, *flag, *separator, *triple], "")):
        code, _, err = run_quietly(argv, stdin)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1


# -- entry parsing: plain ASCII digit strings take int() ------------------------------

# ASCII, Arabic-Indic, Devanagari and fullwidth digits: int() and Fraction read all four
DIGITS = "0123456789" + "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669" \
    + "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f" \
    + "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"


@st.composite
def digit_texts(draw):
    """Digit strings, ASCII or not, of a few digits, around the 4096-bit
    bound (values near 2^4097, 1,234 digits) or around Python's 4,300-digit
    limit on int(str) (leading zeros), with or without a sign, _ separators
    (where int() takes them and where it does not) and surrounding space."""
    body = draw(st.one_of(
        st.text(DIGITS, min_size=1, max_size=12),
        st.integers(2 ** 4097 - 2 ** 12, 2 ** 4097 + 2 ** 12).map(str),
        st.builds("{}{}".format, st.integers(4290, 4310).map("0".__mul__), st.text(DIGITS, min_size=1, max_size=3)),
    ))
    if draw(st.booleans()):
        return body
    for at in sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)), reverse=True):
        body = body[:at] + "_" + body[at:]
    pad = st.sampled_from(["", " ", "\t", "\n "])
    return draw(pad) + draw(st.sampled_from(["", "+", "-"])) + body + draw(pad)


def fraction_or_refusal(text):
    """Fraction(text) under the bit bound _rational keeps, or None.  The text
    is read with int()'s limit on digits lifted, as leading zeros past it
    still spell a small value."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        q = Fraction(text)
    except ValueError:
        return None
    finally:
        sys.set_int_max_str_digits(limit)
    return None if max(abs(q.numerator), q.denominator).bit_length() - 1 > MAX_COEFFICIENT_BITS else q


@given(digit_texts())
@example("0" * 4300 + "7")
@example("0" * 4301 + "7")
@example(str(2 ** 4097 - 1))
@example(str(2 ** 4097))
@example("0012")
@settings(max_examples=300, deadline=None)
def test_parse_rational_agrees_with_fraction_on_digit_strings(text):
    try:
        got = _rational(text, "entry")
    except ValueError:
        got = None
    expected = fraction_or_refusal(text)
    assert got == expected
    # in a table the entry is the text between spaces; a refusal exits 2
    code, out, err = run_quietly(["check", "-"], f"betti v1\nmode canonical\nentry 0 0 {text.strip()}\n")
    if expected is None:
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert code in (0, 1)


# -- verify-window and local ----------------------------------------------------------


def test_verify_window(capsys):
    code, out, _ = invoke(capsys, "verify-window", "--jmin", "0", "--jmax", "1")
    assert code == 0
    assert "window: 0 1" in out
    assert "generators: 3" in out
    assert "rays: 3" in out
    assert "equal: yes" in out
    assert "witness:" not in out


def test_verify_window_ablation(capsys):
    code, out, _ = invoke(capsys, "verify-window", "--jmin", "0", "--jmax", "3", "--drop-gamma")
    assert code == 1
    assert "equal: no" in out
    assert "witness:" in out


def test_verify_window_cap(capsys):
    code, _, err = invoke(capsys, "verify-window", "--jmin", "0", "--jmax", "9")
    assert code == 2 and "error:" in err


def test_local_check(capsys):
    code, out, _ = invoke(capsys, "local", "check", "1", "1", "1")
    assert code == 0 and "member: yes" in out
    code, out, _ = invoke(capsys, "local", "check", "0", "1", "0")
    assert code == 1
    assert "violated: 3b0+b2-3b1 value: -3" in out


def test_local_decompose(capsys):
    code, out, _ = invoke(capsys, "local", "decompose", "2", "3", "3")
    assert code == 0
    assert out == "a: 0\nb: 3/2\nc: 1/2\n"
    code, out, _ = invoke(capsys, "local", "decompose", "1", "1", "1", "--finite-length")
    assert code == 1
    assert "not in local cone" in out
    assert "violated: 3b0+b2-3b1 == 0 value: 1" in out


def test_local_accepts_fractions(capsys):
    code, out, _ = invoke(capsys, "local", "decompose", "1/2", "1/2", "0")
    assert code == 0 and "a: 0" in out and "b: 1/2" in out


@pytest.mark.parametrize("value, shown", [("-1/2", "-1/2"), ("-1e3", "-1000"), ("-.5", "-1/2")])
def test_local_reads_negative_values(capsys, value, shown):
    for argv in (["local", "check", value, "1", "1"], ["local", "check", "--", value, "1", "1"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, f"member: no\nviolated: b0 value: {shown}\n", "")


def test_local_rejects_garbage(capsys):
    code, _, err = invoke(capsys, "local", "check", "one", "1", "1")
    assert code == 2 and "error:" in err


# -- argparse plumbing -----------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert invoke(capsys)[0] == 2


def test_unknown_command(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


MODULE = "builtin omega\n"
PARITY_CORPUS = [
    # every subcommand with valid arguments
    (["rays", "--d0", "0", "--d1", "2", "--tail"], ""),
    (["check", "-"], OMEGA_TABLE), (["check", "-", "--finite-length"], TAIL_TABLE),
    (["decompose", "-"], TAIL_TABLE), (["decompose", "--fin"], TAIL_TABLE),
    (["resolve", "-", "--deg-bound", "6", "--hom-bound", "2"], MODULE),
    (["resolve", "--deg-bound=6", "--hom-bound", "2", "--field", "qq"], MODULE),
    (["hilbert", "-", "--deg-bound", "6", "--field", "fp:7"], MODULE),
    (["verify-window", "--jmin", "0", "--jmax", "3", "--drop-gamma"], ""),
    (["local", "check", "-1/2", "1", "1"], ""), (["local", "decompose", "1", "1", "0", "--finite-length"], ""),
    # every subcommand's help
    *(([command, "-h"], "") for command in ("rays", "check", "decompose", "resolve", "hilbert",
                                            "verify-window", "local")),
    (["check", "--help"], ""), (["local", "check", "1", "1", "1", "--he"], ""),
    # missing required flags and arguments
    (["rays"], ""), (["resolve", "-", "--deg-bound", "6"], MODULE), (["hilbert", "-"], MODULE),
    (["verify-window", "--jmin", "0"], ""), (["local", "check", "1", "1"], ""), (["local"], ""),
    # bad values
    (["resolve", "-", "--deg-bound", "6", "--hom-bound", "2", "--field", "zz"], MODULE),
    (["rays", "--d0", "0", "--d1", "x"], ""), (["rays", "--d0", "x"], ""), (["local", "twice", "1", "1", "1"], ""),
    # unrecognized options and extra positionals, which the full parser reports
    (["check", "-", "--bogus"], OMEGA_TABLE), (["check", "--bogus=1", "-"], OMEGA_TABLE),
    (["check", "-", "-"], OMEGA_TABLE), (["rays", "--d0", "0", "extra"], ""),
    (["local", "check", "1", "1", "1", "1"], ""), (["verify-window", "--jmin", "0", "--jmax", "1", "-h", "x"], ""),
    # -- before the file or the values
    (["check", "--", "-"], OMEGA_TABLE), (["resolve", "--deg-bound", "6", "--hom-bound", "2", "--", "-"], MODULE),
    (["local", "check", "--", "-1/2", "1", "1"], ""), (["check", "--", "-", "-"], OMEGA_TABLE),
    # no command
    ([], ""), (["frobnicate"], ""), (["-h"], ""), (["--help"], ""), (["--", "check", "-"], OMEGA_TABLE),
    (["--bogus", "check"], ""), (["Check", "-"], OMEGA_TABLE), (["chec", "-"], OMEGA_TABLE),
]


@pytest.mark.parametrize("argv, stdin", PARITY_CORPUS, ids=[shlex.join(argv) or "no-arguments"
                                                              for argv, _ in PARITY_CORPUS])
def test_run_answers_as_the_full_parser(monkeypatch, argv, stdin):
    # run reads a call with its command's own parser; given no commands it
    # sends every call to the full parser, the reference
    answer = run_quietly(argv, stdin)
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert answer == run_quietly(argv, stdin)


def test_every_subcommand_shares_one_parser(capsys, tmp_path):
    table = write(tmp_path, "t.betti", TAIL_TABLE)
    module = write(tmp_path, "m.mod", "builtin omega\n")
    cli._build_parser.cache_clear()
    for argv in (["rays", "--d0", "0", "--d1", "2"], ["check", table], ["decompose", table],
                 ["resolve", module, "--deg-bound", "6", "--hom-bound", "2"],
                 ["hilbert", module, "--deg-bound", "6"], ["verify-window", "--jmin", "0", "--jmax", "1"],
                 ["local", "check", "1", "1", "1"]):
        assert invoke(capsys, *argv)[0] == 0, argv
    assert cli._build_parser.cache_info().misses == 1


def test_the_shared_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    # flags and defaults of one call must not leak into the next
    module = write(tmp_path, "m.mod", "field Fp 7\ngens 0\nrel 7*x\n")
    resolve = ["resolve", module, "--deg-bound", "6", "--hom-bound", "2"]
    window = ["verify-window", "--jmin", "0", "--jmax", "3"]
    script = [
        (["resolve", "-", "--hom-bound", "2"], ""),
        ([*resolve, "--field", "qq"], ""), (resolve, ""),
        (["check", "-", "--finite-length"], OMEGA_TABLE), (["check", "-"], OMEGA_TABLE),
        (["decompose", "-"], TAIL_TABLE), (["check", "-"], TAIL_TABLE),
        (["local", "check", "-1/2", "1", "1"], ""), (["local", "decompose", "1", "1", "0"], ""),
        ([*window, "--drop-gamma"], ""), (window, ""),
    ]
    shared = [run_quietly(argv, stdin) for argv, stdin in script]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert shared == [run_quietly(argv, stdin) for argv, stdin in script]
    codes = [code for code, _, _ in shared]
    assert codes == [2, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0]
    assert "gamma_inf: 3" in shared[2][1] and "gamma_inf: 3" not in shared[1][1]
    assert shared[6][1].startswith("member: yes") and not shared[5][1].startswith("member:")


def test_importing_the_cli_builds_no_parser():
    # the child imports the package under test, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import betticone.cli as c; print(c._build_parser.cache_info().misses)"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


@pytest.mark.parametrize("entry", [["betticone"], ["betticone.cli"]], ids=["package", "cli-module"])
def test_python_m_runs_the_cli(capsys, tmp_path, entry):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    bad = write(tmp_path, "bad.mod", "gens 0\nrel x^\n")
    good = write(tmp_path, "good.mod", "gens 0 1\nrel x^2, y\n")
    for path, want_code in ((bad, 2), (good, 0)):
        argv = ["resolve", path, "--deg-bound", "8", "--hom-bound", "3"]
        proc = subprocess.run([sys.executable, "-m", *entry, *argv], capture_output=True, text=True,
                              timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == invoke(capsys, *argv)
        assert proc.returncode == want_code


def test_resolved_table_is_in_the_cone(capsys, tmp_path):
    # the cli path and the library path agree
    path = write(tmp_path, "m.mod", "gens 0 1\nrel x^2, y\nrel z^3, x*y\n")
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "12", "--hom-bound", "4")
    assert code == 0
    assert check_graded(parse_table_text(out)).member


# -- the README's CLI block ------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    # table.betti is the tail pure diagram of (0, 2), a member of both cones;
    # m.mod is written by the block's own printf line
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "table.betti", "betti v1\nmode canonical\nentry 0 0 1\nentry 1 2 3\nentry 2 3 6\n")
    ran = []
    for line in block.splitlines():
        words = list(shlex.shlex(line, posix=True, punctuation_chars=True))  # comments dropped
        if not words:
            continue
        if words[0] == "printf":
            assert words[2] == ">" and len(words) == 4, line
            write(tmp_path, words[3], words[1].replace("\\n", "\n"))
            continue
        stdin = ""
        while words:
            argv = words[:words.index("|")] if "|" in words else words
            words = words[len(argv) + 1:]
            assert argv[0] == "betticone", line
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code, stdin, err = invoke(capsys, *argv[1:])
            assert err == "" or code == 1, (line, err)
            ran.append((argv[1:], code))
    expected = [1 if "--drop-gamma" in argv else 0 for argv, _ in ran]
    assert [code for _, code in ran] == expected
    # ten lines, one of them a two-command pipe
    assert len(ran) == 11 and expected.count(1) == 1


# -- the README's Library block ------------------------------------------------------


def test_readme_library_block_prints_what_its_comments_say(capsys):
    # a print line's comment gives the lines it prints, separated by "  /  "
    block = README.read_text().split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    comments = [line.split("#", 1)[1] for line in block.splitlines() if line.lstrip().startswith("print(")]
    expected = [part.strip() for comment in comments for part in comment.split("  /  ")]
    assert expected == ["(0, 1, 2, ...) 1", "(0, inf) 1", "True"]
    assert capsys.readouterr().out.splitlines() == expected
