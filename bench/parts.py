"""The four kinds of work the benchmark measures, one class per program layer
they load.  Each class builds its inputs from an Lcg, runs one operation
(`run`), reduces the program's output to a hashable digest (`digest`,
outside the timed interval) and judges a digest against the oracle
(`check`, returning a list of errors).  Operations carry a `group`; the
runner sums time per group and turns the sums into metrics (see GROUPS).
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import FREE, TAIL, TWO_STEP

# group -> (metric, unit, how a round's time t for n operations becomes a value)
GROUPS = {
    "fp": ("resolve_fp_s", "s", "total"),
    "qq": ("resolve_qq_s", "s", "total"),
    "modules": ("modules_per_s", "modules/s", "rate"),
    "dense": ("members_per_s", "tables/s", "rate"),
    "wide": ("sparse_span_s", "s", "mean"),
    "nonmember": ("nonmembers_per_s", "tables/s", "rate"),
    "window": ("window_verify_s", "s", "total"),
}
OTHER_PROCESSES = {"pipeline"}  # groups whose work runs in child processes
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Op:
    group: str
    label: str
    data: dict = field(default_factory=dict)


# -- resolve ------------------------------------------------------------------------


class Resolve:
    """Deep resolutions of omega, M_i, M_ij and B/(x^2, y^2, z^2) over F_32003
    and over QQ.  The seed picks which M_i and M_ij, a relabelling of the
    variables, and the twist of each module; none of these changes the cost."""

    KINDS = ("omega", "M_i", "M_ij", "powers")

    def __init__(self, bc, cli, rng, full):
        self.bc = bc
        homs = {"fp": 7 if full else 4, "qq": 5 if full else 3}
        x, y, z = rng.permutation("xyz")
        twists = {kind: rng.between(0, 3) for kind in self.KINDS}
        fields = {"fp": bc.FP_DEFAULT, "qq": bc.QQ}
        self.ops = []
        for group, hom in homs.items():
            for kind in self.KINDS:
                a = twists[kind]
                if kind == "omega":
                    gens, rows = (a, a), ((f"-{z}", "0"), (y, f"-{y}"), ("0", x))
                elif kind == "M_i":
                    gens, rows = (a,), ((x,),)
                elif kind == "M_ij":
                    gens, rows = (a,), ((x,), (y,))
                else:
                    gens, rows = (a,), (("x^2",), ("y^2",), ("z^2",))
                module = bc.GradedModuleB(
                    gens, tuple(tuple(bc.parse_poly(p) for p in row) for row in rows), fields[group])
                deg_bound = a + hom + 4 + (kind == "powers")
                label = f"{kind} {group} hom {hom} deg {deg_bound}"
                self.ops.append(Op(group, label, dict(kind=kind, module=module, hom=hom,
                                                      deg_bound=deg_bound, twist=a)))

    def run(self, op):
        return self.bc.min_free_resolution(op.data["module"], op.data["deg_bound"], op.data["hom"])

    def digest(self, op, res):
        return res.betti.items(), res.tail_consistent, res.truncated_rows

    def check(self, op, digest, first):
        items, tail_ok, truncated = digest
        d = op.data
        errors = []
        if dict(items) != oracle.closed_form_betti(d["kind"], d["hom"], d["deg_bound"], d["twist"]):
            errors.append(f"Betti numbers differ from the closed form: {dict(items)}")
        if not tail_ok:
            errors.append("tail_consistent is false")
        if truncated:
            errors.append(f"truncated rows {truncated}")
        if op.group == "qq":
            fp_op = next(o for o in self.ops if o.group == "fp" and o.data["kind"] == d["kind"])
            fp_items = first.get(fp_op.label)
            if fp_items is None or fp_items[0] == "raised":
                errors.append("no F_p table to compare with")
            elif {(i, j): v for (i, j), v in fp_items[0]
                  if i <= d["hom"] and j <= d["deg_bound"]} != dict(items):
                errors.append("QQ and F_p tables differ")
        return errors


# -- module pipeline ------------------------------------------------------------------


def _linear_form(coeffs) -> str:
    text = ""
    for c, v in zip(coeffs, "xyz"):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        text += ("-" if c < 0 else ("+" if text else "")) + mag + v
    return text


class Pipeline:
    """Small modules taken from text through `resolve -` into `check -` by
    cli.run in this process, plus (at full size) two real two-process
    pipelines, checked against the in-process output.  Kinds
    cycle through monomial quotients, powers of linear forms, partial
    monomial quotients, direct sums of two cyclic pieces and twisted omega;
    every tenth module, a linear power, is over QQ.  Exponents and twists
    follow the module's slot, so every seed does the same work; the seed
    relabels variables and draws coefficients."""

    HOM, DEG = 4, 12
    RESOLVE = ["resolve", "-", "--deg-bound", str(DEG), "--hom-bound", str(HOM)]
    MAIN = "from betticone.cli import main; main()"

    def __init__(self, bc, cli, rng, full):
        self.cli = cli
        self.ops = [self._module(rng, n) for n in range(60 if full else 10)]
        if full:  # timed and checked, but no metric: see README.md
            self.ops += [Op("pipeline", f"two processes, {op.label}", dict(op.data, module=op.label))
                         for op in self.ops[:2]]

    @staticmethod
    def _cyclic(rng, kind, m):
        """One cyclic piece as (relation texts, multiplicity, monomial
        exponents or None).  Slot m fixes the exponents and how many
        variables a piece involves; the seed only relabels the variables and
        draws nonzero coefficients, which B's symmetry leaves the work of."""
        names = rng.permutation("xyz")
        exps = [1 + (m + 2 * k) % 5 for k in range(3)]
        if kind == "linear":
            coeffs = dict.fromkeys("xyz", 0)
            for v in names[:3 - m % 3]:
                coeffs[v] = rng.choice((-3, -2, -1, 1, 2, 3))
            coeffs = [coeffs[v] for v in "xyz"]
            return [f"({_linear_form(coeffs)})^{exps[0]}"], oracle.linear_power_multiplicity(coeffs), None
        chosen = dict(zip(names[:3 if kind == "mono" else 1 + m % 2], exps))
        return [f"{v}^{a}" for v, a in chosen.items()], 3 - len(chosen), chosen

    def _module(self, rng, n):
        """Module n: the kind cycles with n, the shape with m = n // 5."""
        kind, m = ("mono", "linear", "partial", "sum", "omega")[n % 5], n // 5
        lines = ["field QQ"] if n % 10 == 6 else []
        exps = None
        if kind == "omega":
            x, y, z = rng.permutation("xyz")
            lines += [f"gens {m % 3} {m % 3}", f"rel -{z}, 0", f"rel {y}, -{y}", f"rel 0, {x}"]
            e = 3
        elif kind == "sum":
            pair = (("mono", "linear"), ("partial", "linear"), ("mono", "partial"))[m % 3]
            pieces = [self._cyclic(rng, k, m + i) for i, k in enumerate(pair)]
            lines.append(f"gens {m % 3} {(m + 1) % 3}")
            lines += [f"rel {g}, 0" for g in pieces[0][0]] + [f"rel 0, {g}" for g in pieces[1][0]]
            e = pieces[0][1] + pieces[1][1]
        else:
            rels, e, exps = self._cyclic(rng, kind, m)
            lines.append("gens 0")
            lines += [f"rel {g}" for g in rels]
        text = "\n".join(lines) + "\n"
        return Op("modules", f"module {n} ({kind})", dict(text=text, e=e, exponents=exps))

    def _cli(self, argv, stdin_text):
        saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def run(self, op):
        if op.group == "pipeline":
            return self._processes(op)
        code1, resolved = self._cli(self.RESOLVE, op.data["text"])
        code2, checked = self._cli(["check", "-"], resolved)
        return code1, resolved, code2, checked

    def digest(self, op, raw):
        return raw

    def _processes(self, op):
        """`resolve - | check -` as two processes, the CLI run without installing."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        cmd = [sys.executable, "-c", self.MAIN]
        resolve = subprocess.Popen(cmd + self.RESOLVE, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, env=env, text=True)
        check = subprocess.Popen(cmd + ["check", "-"], stdin=resolve.stdout, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, env=env, text=True)
        try:
            resolve.stdout.close()  # the check process owns the read end now
            resolve.stdin.write(op.data["text"])
            resolve.stdin.close()
            checked = check.communicate(timeout=60)[0]
            return resolve.wait(timeout=60), check.returncode, checked
        finally:
            for proc in (resolve, check):
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def check(self, op, digest, first):
        if op.group == "pipeline":
            reference = first.get(op.data["module"])
            code1, code2, checked = digest
            if (code1, code2) != (0, 0):
                return [f"exit codes {code1}, {code2}"]
            if reference is None or reference[0] == "raised" or checked != reference[3]:
                return ["two-process output differs from the in-process pipeline"]
            return []
        code1, resolved, code2, checked = digest
        if (code1, code2) != (0, 0):
            return [f"exit codes {code1}, {code2}"]
        explicit = oracle.parse_table_lines(resolved)
        table, errors = oracle.rows_and_doubling(explicit, self.DEG)
        fields = oracle.parse_fields(resolved)
        e = op.data["e"]
        if fields.get("tail_consistent") != "yes" or fields.get("truncated_rows") != "none":
            errors.append(f"resolution not complete: {fields}")
        if fields.get("gamma_inf") != str(e) or fields.get("e") != str(e) or oracle.gamma_inf(table) != e:
            errors.append(f"gamma_inf {fields.get('gamma_inf')} and e {fields.get('e')}, expected {e}")
        if oracle.first_violation(table) is not None:
            errors.append(f"table fails the halfspace oracle at {oracle.first_violation(table)}")
        if oracle.parse_fields(checked).get("member") != "yes":
            errors.append("check does not report a member")
        errors += oracle.decomposition_errors(table, oracle.parse_terms(checked))
        if op.data["exponents"] is not None:
            code, text = self._cli(["hilbert", "-", "--deg-bound", str(self.DEG)], op.data["text"])
            numerator, mult = oracle.monomial_hilbert(op.data["exponents"], self.DEG)
            got = oracle.parse_fields(text)
            if code != 0 or got.get("numerator") != " ".join(map(str, numerator)) \
                    or got.get("e") != str(mult):
                errors.append(f"Hilbert data {got}, expected numerator {numerator} and e {mult}")
        return errors


# -- cone ---------------------------------------------------------------------------


def _random_member(rng, n_terms, base):
    """Positive combination of n_terms pure diagrams whose d0 fill a range
    about half as wide as the term count, so the support is dense.  The
    diagrams follow the term count, so every seed meets the same support;
    the seed draws the coefficients and shifts every degree by `base`."""
    width = max(4, n_terms // 2)
    terms = []
    for k in range(n_terms):
        shape, d0 = (FREE, TWO_STEP, TAIL)[k % 3], base + k % width
        terms.append(((shape, d0, None if shape == FREE else d0 + 1 + k // 3 % 3),
                      Fraction(1 + rng.below(8), 1 + rng.below(4))))
    return oracle.combine(terms)


def _perturb(rng, table, how, where):
    """A non-member whose first violated functional is an epsilon, an alpha
    or a gamma, by construction, placed at fraction `where` of the table's
    degree range so that the scan up to it costs the same for every seed."""
    table = dict(table)
    lo, hi = min(j for _, j in table), max(j for _, j in table)
    at = lo + int(where * (hi - lo))
    delta = Fraction(1 + rng.below(5), 1 + rng.below(3))
    if how == "epsilon":
        table[min(ij for ij in table if ij[1] >= at)] = -delta
    elif how == "alpha":
        table[(2, at + 1)] = 2 * table.get((1, at), 0) + delta
    else:
        table[(1, at + 1)] = table.get((1, at + 1), 0) + oracle.gamma(table, at) / 3 + delta
    return table


class Cone:
    """check_graded on three kinds of tables built here: dense members (the
    diagrams follow the term count, the seed draws coefficients), members
    with three or four entries spread over exactly 10^4 degrees (10^3 in the
    probe), and non-members made by perturbing members."""

    def __init__(self, bc, cli, rng, full):
        self.bc = bc
        sizes = (25, 50, 100, 200, 200, 200) if full else (20,) * 8
        span = 10**4 if full else 10**3
        self.ops = []
        for k, n in enumerate(sizes):
            self._add("dense", f"member {k} of {n} terms", _random_member(rng, n, rng.between(-20, 20)))
        for shape in (TWO_STEP, TAIL):
            s, m = rng.between(-50, 50), rng.between(1, 3)
            terms = [((shape, s, s + m), Fraction(1 + rng.below(8), 1 + rng.below(4))),
                     ((FREE, s + span, None), Fraction(1 + rng.below(8), 1 + rng.below(4)))]
            if shape == TWO_STEP:
                terms.append(((FREE, s, None), Fraction(1 + rng.below(8), 1 + rng.below(4))))
            self._add("wide", f"{shape} member over {span} degrees", oracle.combine(terms))
        for n in range(45 if full else 15):
            how, where = ("epsilon", "alpha", "gamma")[n % 3], (0.5, 0.75, 1.0)[n // 3 % 3]
            member = _random_member(rng, (40, 80, 160)[n % 3] if full else 20, rng.between(-20, 20))
            self._add("nonmember", f"non-member {n} ({how} at {where})", _perturb(rng, member, how, where))

    def _add(self, group, label, table):
        self.ops.append(Op(group, label, dict(plain=table, table=self.bc.BettiTable(table))))

    def run(self, op):
        return self.bc.check_graded(op.data["table"])

    def digest(self, op, verdict):
        if verdict.member:
            return True, tuple((str(d), c) for d, c in verdict.decomposition.terms)
        return False, verdict.violation.label, verdict.violation.value

    def check(self, op, digest, first):
        table = op.data["plain"]
        expected = oracle.first_violation(table)
        if op.group != "nonmember":
            if expected is not None or not digest[0]:
                return [f"member judged {digest[:1]}, oracle violation {expected}"]
            return oracle.decomposition_errors(
                table, [(oracle.parse_degseq(d), c) for d, c in digest[1]])
        if digest[0]:
            return ["non-member judged a member"]
        _, label, value = digest
        errors = []
        if not value < 0 or oracle.functional_by_label(table, label) != value:
            errors.append(f"{label} = {value} is not a negative value of that functional")
        if (label, value) != expected:
            errors.append(f"reported {label} = {value}, first in scan order is {expected}")
        return errors


# -- window -------------------------------------------------------------------------


class Window:
    """cross_check on the windows of widths 3..6 (graded and finite length)
    and both facet ablations on the width-4 window.  The seed shifts every
    window by the same offset, which leaves the work unchanged."""

    def __init__(self, bc, cli, rng, full):
        self.bc = bc
        j0 = rng.between(-3, 3)
        self.ops = []
        for w in (2, 3, 4, 5) if full else (2,):
            for finite in (False, True):
                self.ops.append(Op("window", f"[{j0}, {j0 + w}]{' finite' * finite}",
                                   dict(jmin=j0, jmax=j0 + w, finite=finite, ablate=None)))
        w = 3 if full else 2
        for ablate in ("alpha", "gamma"):
            self.ops.append(Op("window", f"[{j0}, {j0 + w}] without {ablate}",
                               dict(jmin=j0, jmax=j0 + w, finite=False, ablate=ablate)))

    def run(self, op):
        d = op.data
        return self.bc.cross_check(self.bc.Window(d["jmin"], d["jmax"]), finite_length=d["finite"],
                                   include_alpha=d["ablate"] != "alpha",
                                   include_gamma=d["ablate"] != "gamma")

    def digest(self, op, report):
        return report.equal, report.n_rays, tuple(report.rays)

    def check(self, op, digest, first):
        equal, n_rays, rays = digest
        d = op.data
        if d["ablate"] is not None:
            return [f"dropping {d['ablate']} still reports equal"] if equal else []
        expected = oracle.window_rays(d["jmin"], d["jmax"], d["finite"])
        errors = []
        if not equal:
            errors.append("cross_check reports unequal")
        if set(rays) != expected or len(rays) != len(expected):
            errors.append(f"rays differ from the pure diagrams ({len(rays)} vs {len(expected)})")
        if n_rays != oracle.window_ray_count(d["jmax"] - d["jmin"] + 1, d["finite"]):
            errors.append(f"{n_rays} rays, not w + w(w-1)/2 + (w-1)(w-2)/2")
        return errors
