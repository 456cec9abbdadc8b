"""Exact elimination over Q and F_p."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import QQ, FP_DEFAULT, PrimeField
from betticone.linalg import Field, SpanTracker
from oracles import kernel_basis

entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=0, max_size=6)
    .map(lambda rows: (rows, ncols))
)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(4)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(0)
    # a characteristic that is not an int is refused, even one equal to a prime
    for p in (7.0, "7", Fraction(7), True, False):
        with pytest.raises(ValueError, match="must be an int"):
            Field(p)
    with pytest.raises(ValueError, match="must be an int"):
        PrimeField(7.0)
    PrimeField(2)
    PrimeField(32003)
    PrimeField(2 ** 31 - 1)
    # trial division is only bounded below 2^31, so larger p is refused at once
    start = time.perf_counter()
    for p in (2 ** 31, 1000000000000000003):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)
    assert time.perf_counter() - start < 1.0


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.int_row([Fraction(1, 2)]) == [4]  # 2 * 4 = 8 = 1 mod 7
    assert f.int_row([Fraction(-3, 4), 9, 0]) == [1, 2, 0]  # 4 * 1 = 4 = -3 mod 7
    assert f.name == "Fp 7" and f.p == 7
    with pytest.raises(ValueError, match="divisible by 7"):
        f.int_row([1, Fraction(1, 7)])


def test_rational_field_basics():
    assert QQ.name == "QQ" and QQ.p == 0
    assert QQ.int_row([3]) == [3]
    # clearing denominators keeps the line: a unit multiple of the row
    row = QQ.int_row([Fraction(1, 2), Fraction(-2, 3), 0])
    assert row == [3, -4, 0] and all(type(x) is int for x in row)
    assert QQ.int_row([]) == []


@given(st.lists(st.one_of(st.integers(-40000, 40000), st.integers(-2 ** 200, 2 ** 200)), max_size=9))
@settings(max_examples=300, deadline=None)
def test_int_row_of_ints_matches_the_same_row_as_fractions(row):
    # a row of ints skips the Fraction path; it must give what that path gives
    for field in (QQ, FP_DEFAULT):
        got = field.int_row(row)
        assert got == field.int_row([Fraction(a) for a in row]) and all(type(a) is int for a in got)
        assert got is not row


def test_span_tracker_membership():
    for field in (QQ, PrimeField(7)):
        t = SpanTracker(field)
        assert t.add([1, 1, 0]) is not None
        assert t.add([2, 2, 0]) is None  # dependent
        assert t.rank == 1
        assert t.add([-3, -3, 0]) is None
        assert t.add([1, 0, 0]) is not None


def test_span_tracker_rows_are_normalised():
    # over Q primitive with a positive pivot, over F_p reduced with pivot 1;
    # the rows are in echelon form, not reduced against each other
    t = SpanTracker(QQ)
    assert t.add([-2, 4, 6]) == [1, -2, -3]
    assert t.add([0, 3, 6]) == [0, 1, 2]
    assert t.rows == [[1, -2, -3], [0, 1, 2]]
    t = SpanTracker(PrimeField(7))
    assert t.add([3, 1, 0]) == [1, 5, 0]  # 3 * 5 = 15 = 1 mod 7
    assert t.add([-1, 2, 0]) is None  # (-1, 2) = 2 * (3, 1) mod 7


def test_span_tracker_residual_is_a_lift():
    # the returned residual must stay fixed as more rows come in
    t = SpanTracker(QQ)
    t.add([1, 2, 3])
    res = t.add([0, 1, 1])
    snapshot = list(res)
    t.add([0, 0, 1])
    assert res == snapshot


def matrix_rank(rows, ncols, field):
    tracker = SpanTracker(field)
    for row in rows:
        tracker.add(row)
    return tracker.rank


# denominators up to 4 stay invertible mod 5 and mod 32003
fields = st.sampled_from([QQ, PrimeField(5), FP_DEFAULT])


def _is_zero(total, field):
    return (total % field.p if field.p else total) == 0


@given(matrices, fields)
@settings(max_examples=160, deadline=None)
def test_kernel_vectors_annihilate_rows(mat, field):
    rows, ncols = mat
    int_rows = [field.int_row(row) for row in rows]
    kern = kernel_basis(int_rows, ncols, field)
    for vec in kern:
        assert all(type(x) is int for x in vec)
        for row, int_row in zip(rows, int_rows):
            assert _is_zero(sum(a * x for a, x in zip(int_row, vec)), field)
            if not field.p:  # over Q the kernel of the scaled rows is the kernel of the rows
                assert sum(a * x for a, x in zip(row, vec)) == 0


@given(matrices, fields)
@settings(max_examples=160, deadline=None)
def test_rank_nullity(mat, field):
    rows, ncols = mat
    int_rows = [field.int_row(row) for row in rows]
    rank = matrix_rank(int_rows, ncols, field)
    kern = kernel_basis(int_rows, ncols, field)
    assert rank + len(kern) == ncols
    assert matrix_rank(kern, ncols, field) == len(kern)  # kernel basis is independent


int_matrices = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), min_size=0, max_size=4
    ).map(lambda rows: (rows, ncols))
)


@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_agrees_across_fields(mat):
    # with entries in [-3, 3] and size <= 4 every minor is below 32003 in
    # absolute value, so ranks over Q and F_32003 provably coincide
    rows, ncols = mat
    fp = FP_DEFAULT
    fp_rows = [fp.int_row(row) for row in rows]
    assert matrix_rank(rows, ncols, QQ) == matrix_rank(fp_rows, ncols, fp)
