"""Acceptance suite.

Each test covers one criterion and ends by printing a single pass line;
run with -s (or read the -v listing) to see them.  The checks lean on
oracles computed from scratch in this file rather than on the library's
own functionals wherever a criterion calls for an independent judgment.
"""

from fractions import Fraction

from betticone import window as window_module
from betticone import (
    BettiSequence,
    BettiTable,
    DegreeSequence,
    Functional,
    LocalDecomposition,
    NotInConeError,
    QQ,
    FP_DEFAULT,
    Window,
    check_graded,
    check_local,
    cross_check,
    decompose,
    decompose_local,
    degseq_leq,
    eval_functional,
    expand_tail,
    builtin,
    hilbert_data,
    hk_ray,
    hk_relations_check,
    make_pure_diagram,
    min_free_resolution,
    quotient_module,
    table_arith,
)

# -- independent oracles ------------------------------------------------------------


def gamma_by_definition(t: BettiTable, k: int) -> Fraction:
    """Truncated alternating sum over j <= k, straight from entry()."""
    if t.is_zero:
        return Fraction(0)
    total = Fraction(0)
    for j in range(t.min_degree - 3, k + 1):
        total += 3 * t.entry(0, j) - 3 * t.entry(1, j + 1) + t.entry(2, j + 2)
    return total


def in_cone_by_definition(t: BettiTable, finite_length: bool = False) -> bool:
    """Halfspace membership recomputed from entry() alone."""
    if t.is_zero:
        return True
    lo, hi = t.min_degree, t.max_degree
    if any(v < 0 for _, v in t.items()):
        return False
    for k in range(lo - 2, hi + 3):
        if 2 * t.entry(1, k) - t.entry(2, k + 1) < 0:
            return False
        if gamma_by_definition(t, k) < 0:
            return False
    if finite_length and gamma_by_definition(t, hi + 3) != 0:
        return False
    return True


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
        assert res.betti == expand_tail(pd.table, max_row=4)

        powers = quotient_module([f"x^{d1}", f"y^{d1}", f"z^{d1}"])
        res = min_free_resolution(powers, deg_bound=d1 + 6, hom_bound=4)
        assert res.truncated_rows == ()
        assert res.tail_consistent
        pd = make_pure_diagram(DegreeSequence.tail(0, d1))
        assert res.betti == expand_tail(pd.table, max_row=4)
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
            assert res.betti.row_total(i) == value  # diagonal only
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
    assert hk_relations_check(8)
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
        for k in range(t.min_degree - 3, t.max_degree + 4):
            assert gamma_by_definition(t, k) >= 0, (gens, k)
        # the multiplicity identity: rows 0..2 complete, and gamma_inf = e
        assert not [i for i in res.truncated_rows if i <= 2], gens
        assert eval_functional(Functional.gamma_inf(), t) == hilbert_data(M, deg_bound=12).e, gens
        passed += 1
    assert passed == 50
    print("criterion 5 (50 random monomial quotients resolve into the cone): PASS")


def test_criterion_06_decomposition_round_trips():
    rng = lcg(271828)
    zero = BettiTable()
    for _ in range(200):
        n_terms = 1 + next(rng) % 6
        v = zero
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
            v = table_arith(1, v, coeff, make_pure_diagram(d).table)

        deco = decompose(v)
        assert deco.recombine() == v

        # replay the greedy peeling; every residual must stay in the cone
        residual = v
        for d, coeff in deco.terms:
            assert coeff > 0
            residual = table_arith(1, residual, -coeff, make_pure_diagram(d).table)
            assert in_cone_by_definition(residual)
        assert residual == zero

        chain = [d for d, _ in deco.terms]
        assert all(degseq_leq(a, b) for a, b in zip(chain, chain[1:]))
    print("criterion 6 (200 random decompositions round trip): PASS")


def test_criterion_07_window_rays_match_generators(monkeypatch):
    for jmin, jmax in ((0, 1), (0, 3), (-2, 2), (0, 5)):
        report = cross_check(Window(jmin, jmax))
        assert report.equal, (jmin, jmax, report.witnesses)

    assert cross_check(Window(0, 3)).n_rays == 13
    fl = cross_check(Window(0, 3), finite_length=True)
    assert fl.equal and fl.n_rays == 9

    # ablations: each facet family is load bearing
    assert not cross_check(Window(0, 3), include_alpha=False).equal
    assert not cross_check(Window(0, 3), include_gamma=False).equal

    # past the cap: width 8 at a negative jmin, and the ablations at width 7
    monkeypatch.setattr(window_module, "MAX_WINDOW_DIM", 24)
    for finite_length in (False, True):
        report = cross_check(Window(-3, 4), finite_length=finite_length)
        assert report.equal and report.n_rays == report.n_generators, report.witnesses
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
