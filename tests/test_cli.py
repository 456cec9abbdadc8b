"""End to end exercises of the command line interface via run(argv)."""

import io
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

from betticone import QQ, BettiTable, Functional, check_graded, cli, cone, eval_functional, hilbert_data
from betticone.cli import (
    ModuleFormatError,
    _parse_rational,
    format_table_text,
    parse_module_text,
    parse_table_text,
    run,
)
from betticone.resolve import BUILTIN_NAMES, MAX_HOM_BOUND, GradedModuleB
from betticone.tables import MAX_COEFFICIENT_BITS


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


@pytest.mark.parametrize("value", ["1e10000000", "1e1000000000", "7.5e-10000000", "9" * 1300, str(2 ** 4097)])
def test_values_past_the_coefficient_bound_are_refused_promptly(capsys, tmp_path, value):
    path = write(tmp_path, "t.betti", f"betti v1\nmode canonical\nentry 0 0 {value}\n")
    for argv in (["check", path], ["local", "check", value, "1", "1"], ["local", "decompose", "1", "1", value]):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_a_verdict_past_the_int_to_text_limit_prints_nothing(capsys, tmp_path):
    # each entry is within the coefficient bound, but the violated gamma would
    # sum them over pairwise coprime denominators, past Python's 4,300 digits:
    # the lcm of the denominators passes the bound, so check refuses the table
    entries = "".join(f"entry 0 {n} 1/{2 ** 4096 - k}\n" for n, k in enumerate((1, 3, 5, 7, 9)))
    path = write(tmp_path, "t.betti", f"betti v1\nmode canonical\n{entries}entry 1 9 1\n")
    for argv in (["check", path], ["check", path, "--finite-length"], ["decompose", path]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: the lcm of the entry denominators passes 4096 bits\n"


def test_values_up_to_the_coefficient_bound_parse():
    # the bound is the one parse_poly keeps: floor(log2) of the numerator or
    # the denominator at most 4096
    for value in (2 ** 4097 - 1, Fraction(1, 2 ** 4097 - 1), Fraction(10 ** 1233)):
        t = BettiTable({(0, 0): value})
        assert parse_table_text(format_table_text(t)) == t
    assert parse_table_text("betti v1\nmode canonical\nentry 0 0 1e1233\n") == BettiTable({(0, 0): 10 ** 1233})


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
    code, _, err = invoke(capsys, "resolve", path, "--deg-bound", "1", "--hom-bound", "2")
    assert code == 2 and "deg_bound must be at least" in err


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


def test_resolve_prints_no_e_below_the_flat_degree(capsys, tmp_path):
    path = write(tmp_path, "m.mod", "gens 0\nrel x^5\n")
    code, out, err = invoke(capsys, "resolve", path, "--deg-bound", "4", "--hom-bound", "2")
    assert code == 1 and "entry 0 0 1" in out and "e:" not in out
    assert "below 6" in err
    code, out, _ = invoke(capsys, "resolve", path, "--deg-bound", "7", "--hom-bound", "2")
    assert code == 0 and "e: 2" in out


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
    # gamma_inf by the functional evaluator, e by hilbert_data, on every
    # builtin over both fields and on forty seeded modules
    texts = [f"{field}builtin {name}\n" for name in BUILTIN_NAMES for field in ("", "field QQ\n")]
    texts += pipeline_modules(seed=20260419, count=40)
    for text in texts:
        code, out, err = run_quietly(["resolve", "-", "--deg-bound", "12", "--hom-bound", "4"], text)
        assert code == 0, (text, err)
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        table = parse_table_text(out)
        assert lines["gamma_inf"] == str(eval_functional(Functional.gamma_inf(), table)), text
        assert lines["e"] == str(hilbert_data(parse_module_text(text), 12).e), text


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
    """Fraction(text) under the bit bound _parse_rational keeps, or None."""
    try:
        q = Fraction(text)
    except ValueError:
        return None
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
        got = _parse_rational(text)
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
    proc = subprocess.run(
        [sys.executable, "-c", "import betticone.cli as c; print(c._build_parser.cache_info().misses)"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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
