"""Acceptance suite.

Each test covers one criterion and ends by printing a single pass line;
run with -s (or read the -v listing) to see them.  Where a criterion calls
for an independent judgment, the checks lean on the benchmark's oracle
(bench/oracle.py, imported as bench_oracle), which is written from the
paper and imports nothing from betticone, rather than on the library's own
functionals: its gamma_k, its scan of the cone functionals, and its sums of
pure diagrams.
"""

from fractions import Fraction

import oracle as bench_oracle
from betticone import window as window_module
from betticone import (
    BettiSequence,
    BettiTable,
    DegreeSequence,
    LocalDecomposition,
    NotInConeError,
    QQ,
    FP_DEFAULT,
    GradedModuleB,
    Window,
    check_finite_length,
    check_graded,
    check_local,
    cross_check,
    decompose,
    decompose_local,
    degseq_leq,
    expand_tail,
    builtin,
    collapse_tail,
    hilbert_data,
    hk_ray,
    make_pure_diagram,
    min_free_resolution,
    parse_poly,
    quotient_module,
)

# -- a seeded stream for the criteria's inputs -----------------------------------


def lcg(seed: int):
    state = seed % 2**32
    while True:
        state = (1664525 * state + 1013904223) % 2**32
        yield state


TAIL_ENTRIES = (1, 3, 6, 12, 24)


# -- criteria ------------------------------------------------------------------------


def test_criterion_01_pure_diagram_witnesses():
    # two module families realize the two bounded generator shapes exactly
    for d1 in (1, 2, 3, 4):
        hypersurface = quotient_module([f"(x+y+z)^{d1}"])
        res = min_free_resolution(hypersurface, deg_bound=d1 + 6, hom_bound=4)
        assert res.truncated_rows == ()
        pd = make_pure_diagram(DegreeSequence.two_step(0, d1))
        assert res.betti == expand_tail(pd, max_row=4)

        powers = quotient_module([f"x^{d1}", f"y^{d1}", f"z^{d1}"])
        res = min_free_resolution(powers, deg_bound=d1 + 6, hom_bound=4)
        assert res.truncated_rows == ()
        assert res.tail_consistent
        pd = make_pure_diagram(DegreeSequence.tail(0, d1))
        assert res.betti == expand_tail(pd, max_row=4)
        for i, value in enumerate(TAIL_ENTRIES):
            j = 0 if i == 0 else d1 + i - 1
            assert res.betti.entry(i, j) == value
    print("criterion 1 (pure diagram module witnesses): PASS")


def test_criterion_02_indecomposable_betti_numbers():
    expected = {
        "omega": (2, 3, 6, 12, 24),
        "M1": (1, 1, 2, 4, 8),
        "M2": (1, 1, 2, 4, 8),
        "M3": (1, 1, 2, 4, 8),
        "M12": (1, 2, 4, 8, 16),
        "M13": (1, 2, 4, 8, 16),
        "M23": (1, 2, 4, 8, 16),
    }
    for name, numbers in expected.items():
        res = min_free_resolution(builtin(name), deg_bound=9, hom_bound=4)
        assert res.tail_consistent
        for i, value in enumerate(numbers):
            assert res.betti.entry(i, i) == value
            assert sum(x for (r, _), x in res.betti.items() if r == i) == value  # diagonal only
    print("criterion 2 (indecomposable module Betti numbers): PASS")


def test_criterion_03_hilbert_series():
    expected = {
        "B": (0, (1, 2), 3),
        "omega": (0, (2, 1), 3),
        "M1": (0, (1, 1), 2),
        "M2": (0, (1, 1), 2),
        "M3": (0, (1, 1), 2),
        "M12": (0, (1,), 1),
        "M13": (0, (1,), 1),
        "M23": (0, (1,), 1),
    }
    for name, (offset, numerator, e) in expected.items():
        hd = hilbert_data(builtin(name), deg_bound=8)
        assert (hd.offset, hd.numerator, hd.e) == (offset, numerator, e)
    print("criterion 3 (Hilbert series of the indecomposables): PASS")


def test_criterion_04_herzog_kuhl_rays():
    expected = {
        Fraction(0): ("B", (1, 1, 0)),
        Fraction(1): ("M_i", (2, 3, 3)),
        Fraction(3, 2): ("omega", (1, 2, 3)),
        Fraction(2): ("M_ij", (1, 3, 6)),
    }
    for c, (name, vec) in expected.items():
        ray = hk_ray(c)
        assert ray.mcm_name == name
        assert ray.vector == vec
        b0, b1, _ = vec
        assert 3 * (b0 - b1) + c * b1 == 0  # the slope equation
        eight = ray.entries(8)
        assert eight[:3] == vec
        assert all(eight[i + 1] == 2 * eight[i] for i in range(2, 7))
    # the relations 2*v3 = v1 + v4 and 2*v2 = 3*v1 + v4, entry by entry
    v1, v2, v3, v4 = (hk_ray(c).entries(8) for c in expected)
    assert all(2 * a == b + d for a, b, d in zip(v3, v1, v4))
    assert all(2 * a == 3 * b + d for a, b, d in zip(v2, v1, v4))
    print("criterion 4 (Herzog-Kuhl rays and relations): PASS")


def test_criterion_05_random_quotients_land_in_the_cone():
    rng = lcg(20141201)
    passed = 0
    for _ in range(50):
        n_gens = 1 + next(rng) % 3
        gens = []
        for _ in range(n_gens):
            var = "xyz"[next(rng) % 3]
            exp = 1 + next(rng) % 5
            gens.append(f"{var}^{exp}")
        M = quotient_module(gens, field=FP_DEFAULT)
        res = min_free_resolution(M, deg_bound=12, hom_bound=4)
        t = res.betti
        assert check_graded(t).member, gens
        rows = {ij: x for ij, x in t.items() if ij[0] <= 2}
        for k in range(t.min_degree - 3, t.max_degree + 4):
            assert bench_oracle.gamma(rows, k) >= 0, (gens, k)
        # the multiplicity identity: rows 0..2 complete, and gamma_inf = e
        assert not [i for i in res.truncated_rows if i <= 2], gens
        assert bench_oracle.gamma_inf(rows) == hilbert_data(M, deg_bound=12).e, gens
        passed += 1
    assert passed == 50
    print("criterion 5 (50 random monomial quotients resolve into the cone): PASS")


def random_presentation(rng):
    """1-4 generators in degrees 0-2 and 0-5 relations over F_32003, each 1-5
    degrees above the lowest generator, with entries (c1)*x^e + (c2)*y^e +
    (c3)*z^e, c in [-3, 3] and e the relation degree less the generator's,
    or 0 where e < 1."""
    gens = [next(rng) % 3 for _ in range(1 + next(rng) % 4)]
    rels = []
    for _ in range(next(rng) % 6):
        degree = min(gens) + 1 + next(rng) % 5
        row = []
        for a in gens:
            coeffs = [next(rng) % 7 - 3 for _ in "xyz"]
            e = degree - a
            row.append(" + ".join(f"({c})*{v}^{e}" for c, v in zip(coeffs, "xyz")) if e >= 1 else "0")
        rels.append(tuple(map(parse_poly, row)))
    return GradedModuleB(gens, rels, FP_DEFAULT)


def test_criterion_05_random_presentations_land_in_the_cone():
    rng = lcg(32003)
    valid = finite = 0
    for _ in range(1000):
        try:
            M = random_presentation(rng)
        except ValueError:  # a zero relation row
            continue
        top = max(M.gen_degrees + M.relation_degrees())
        t = min_free_resolution(M, deg_bound=top + 4, hom_bound=4).betti
        verdict = check_graded(t)
        assert verdict.member, M
        assert verdict.decomposition.recombine() == collapse_tail(t), M
        e = hilbert_data(M, deg_bound=top + 4).e
        assert bench_oracle.gamma_inf({ij: x for ij, x in t.items() if ij[0] <= 2}) == e, M
        if e == 0:
            assert check_finite_length(t).member, M
            finite += 1
        valid += 1
    assert valid > 900 and finite > 100, (valid, finite)
    print(f"criterion 5 ({valid} random presentations resolve into the cone, {finite} of finite length): PASS")


def test_criterion_06_decomposition_round_trips():
    rng = lcg(271828)
    for _ in range(200):
        n_terms = 1 + next(rng) % 6
        terms = []
        for _ in range(n_terms):
            shape = next(rng) % 3
            d0 = -5 + next(rng) % 12
            d1 = d0 + 1 + next(rng) % 3
            if shape == 0:
                d = DegreeSequence.free(d0)
            elif shape == 1:
                d = DegreeSequence.two_step(d0, d1)
            else:
                d = DegreeSequence.tail(d0, d1)
            coeff = Fraction(1 + next(rng) % 8, 1 + next(rng) % 4)
            terms.append((d, coeff))
        v = BettiTable(bench_oracle.combine(terms))

        deco = decompose(v)
        assert deco.recombine() == v

        # replay the greedy peeling; every residual must stay in the cone
        for d, coeff in deco.terms:
            assert coeff > 0
            terms.append((d, -coeff))
            residual = bench_oracle.combine(terms)
            assert bench_oracle.first_violation(residual) is None
        assert residual == {}

        chain = [d for d, _ in deco.terms]
        assert all(degseq_leq(a, b) for a, b in zip(chain, chain[1:]))
    print("criterion 6 (200 random decompositions round trip): PASS")


def ray_counts(n: int) -> tuple[int, int]:
    """Extreme rays on a window [j, j + n], graded and finite length: n + 1
    free, n(n + 1)/2 two-step and n(n - 1)/2 tail diagrams; the finite
    length cone keeps the last two kinds."""
    return n * n + n + 1, n * n


def test_criterion_07_window_rays_match_generators(monkeypatch):
    for jmin, jmax in ((0, 1), (0, 3), (-2, 2), (0, 5)):
        for finite_length, n_rays in zip((False, True), ray_counts(jmax - jmin)):
            report = cross_check(Window(jmin, jmax), finite_length=finite_length)
            assert report.equal, (jmin, jmax, report.witnesses)
            assert report.n_rays == n_rays, (jmin, jmax, finite_length)
    assert ray_counts(3) == (13, 9)

    # ablations: each facet family is load bearing
    assert not cross_check(Window(0, 3), include_alpha=False).equal
    assert not cross_check(Window(0, 3), include_gamma=False).equal

    # past the cap: width 8 at a negative jmin, and the ablations at width 7
    monkeypatch.setattr(window_module, "MAX_WINDOW_DIM", 24)
    for finite_length, n_rays in zip((False, True), ray_counts(7)):
        report = cross_check(Window(-3, 4), finite_length=finite_length)
        assert report.equal and report.n_rays == report.n_generators == n_rays, report.witnesses
    assert ray_counts(7) == (57, 49)
    assert not cross_check(Window(-3, 3), include_alpha=False).equal
    assert not cross_check(Window(-3, 3), include_gamma=False).equal
    print("criterion 7 (window extreme rays equal the pure diagrams): PASS")


def test_criterion_08_local_cone():
    deco = decompose_local(BettiSequence.of(2, 3, 3))
    assert (deco.a, deco.b, deco.c) == (0, Fraction(3, 2), Fraction(1, 2))
    deco = decompose_local(BettiSequence.of(1, 2, 3))
    assert (deco.a, deco.b, deco.c) == (0, Fraction(1, 2), Fraction(1, 2))

    assert check_local(BettiSequence.of(1, 1, 1)).member
    verdict = check_local(BettiSequence.of(1, 1, 1), finite_length=True)
    assert not verdict.member and verdict.violation.label == "3b0+b2-3b1 == 0"

    verdict = check_local(BettiSequence.of(0, 1, 0))
    assert not verdict.member
    assert verdict.violation.label == "3b0+b2-3b1"
    assert verdict.violation.value == -3

    # exhaustive grid against a from-scratch halfspace oracle
    rays = LocalDecomposition.RAYS
    for b0 in range(-2, 7):
        for b1 in range(-2, 7):
            for b2 in range(-2, 7):
                s = BettiSequence.of(b0, b1, b2)
                member = (min(b0, b1, b2) >= 0
                          and 3 * b0 + b2 - 3 * b1 >= 0
                          and 2 * b1 - b2 >= 0)
                assert check_local(s).member == member, (b0, b1, b2)
                if member:
                    deco = decompose_local(s)
                    assert min(deco.a, deco.b, deco.c) >= 0
                    recombined = tuple(
                        deco.a * rays[0][k] + deco.b * rays[1][k] + deco.c * rays[2][k]
                        for k in range(3)
                    )
                    assert recombined == (b0, b1, b2)
                else:
                    try:
                        decompose_local(s)
                        assert False, (b0, b1, b2)
                    except NotInConeError:
                        pass
    print("criterion 8 (local cone membership and decomposition): PASS")


def test_criterion_09_field_independence():
    # every computation from criteria 1-3, replayed over QQ and over F_32003
    # to homological degree 8
    modules = [builtin(name) for name in
               ("B", "omega", "M1", "M2", "M3", "M12", "M13", "M23", "k_residue")]
    for d1 in (1, 2, 3, 4):
        modules.append(quotient_module([f"(x+y+z)^{d1}"]))
        modules.append(quotient_module([f"x^{d1}", f"y^{d1}", f"z^{d1}"]))
    for M in modules:
        deg_bound = max(M.gen_degrees) + 12
        rational = min_free_resolution(M.with_field(QQ), deg_bound, hom_bound=8)
        modular = min_free_resolution(M.with_field(FP_DEFAULT), deg_bound, hom_bound=8)
        assert rational.betti == modular.betti
        hq = hilbert_data(M.with_field(QQ), deg_bound)
        hp = hilbert_data(M.with_field(FP_DEFAULT), deg_bound)
        assert (hq.offset, hq.numerator, hq.e) == (hp.offset, hp.numerator, hp.e)
    print("criterion 9 (rational and finite field runs agree): PASS")
