"""Property tests for the packed-row GF(2) linear algebra kernel."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli.gf2 import kernel, minor, packed_rref, rank, rref, wedge
from pluecker_oracles import bitwise_wedge


def mats(max_rows=6, max_cols=6):
    """(rows, cols): a matrix as packed int rows, column j at bit j-1."""
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.integers(0, (1 << c) - 1), min_size=r, max_size=r
            ).map(lambda rows: (tuple(rows), c))
        )
    )


def square_mats(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n
        ).map(lambda rows: (tuple(rows), n))
    )


def entries(rows, cols):
    return [[(r >> j) & 1 for j in range(cols)] for r in rows]


def ref_rank(rows, cols) -> int:
    """Rank by brute-force row reduction over lists of coordinates."""
    rows = entries(rows, cols)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def ref_det(rows, n) -> int:
    """Determinant of a square matrix by cofactor expansion on the
    coordinate lists."""
    a = entries(rows, n)

    def go(rs, cs):
        if not rs:
            return 1
        i = rs[0]
        total = 0
        for k, j in enumerate(cs):
            if a[i][j]:
                total ^= go(rs[1:], cs[:k] + cs[k + 1:])
        return total

    return go(list(range(n)), list(range(n)))


def full_minor(rows, n) -> int:
    every = range(1, n + 1)
    return minor(rows, n, every, every)


@given(mats())
def test_rref_idempotent(m):
    rows, _ = m
    r = rref(rows)
    assert rref(r) == r


@given(mats())
def test_rref_preserves_row_space(m):
    rows, _ = m

    def span(rs):
        s = {0}
        for row in rs:
            s |= {v ^ row for v in s}
        return s

    assert span(rows) == span(rref(rows))


@given(mats(max_rows=8))
def test_wedge_keeps_a_basis_and_reads_back_as_rref(m):
    # rows in the span of earlier ones (zero and repeated rows included)
    # are skipped, so the table is the bit-by-bit wedge of the RREF basis
    rows, cols = m
    reduced = rref(rows)
    table, kept = wedge(rows + rows[:1] + (0,), cols)
    assert kept == len(reduced)
    assert table == bitwise_wedge(reduced, cols)
    assert packed_rref(table, cols) == sum(r << cols * i for i, r in enumerate(reversed(reduced)))


def test_wedge_rejects_rows_wider_than_its_columns():
    for row in (0b1000, -1):
        with pytest.raises(ValueError, match="at most 3 bits"):
            wedge((1, row), 3)


@given(mats())
def test_rank_matches_reference(m):
    assert rank(m[0]) == ref_rank(*m)


@given(mats())
def test_rank_plus_kernel_dim_is_cols(m):
    rows, cols = m
    k = kernel(rows, cols)
    assert rank(rows) + len(k) == cols
    assert rank(k) == len(k)  # kernel basis is independent


@given(mats())
def test_kernel_annihilates(m):
    rows, cols = m
    for v in kernel(rows, cols):
        assert v >> cols == 0
        for row in rows:
            assert bin(row & v).count("1") % 2 == 0


@given(square_mats())
def test_det_matches_cofactor_reference(m):
    assert full_minor(*m) == ref_det(*m)


@given(square_mats(4), square_mats(4))
def test_det_multiplicative(a, b):
    (a_rows, n), (b_rows, nb) = a, b
    if n != nb:
        return
    prod_rows = []
    for r in a_rows:
        p = 0
        for j in range(n):
            if (r >> j) & 1:
                p ^= b_rows[j]
        prod_rows.append(p)
    assert full_minor(prod_rows, n) == (full_minor(a_rows, n) & full_minor(b_rows, n))


@given(mats())
def test_minor_matches_submatrix_det(m):
    rows, cols = m
    row_sets = list(itertools.combinations(range(1, len(rows) + 1), min(2, len(rows))))
    col_sets = list(itertools.combinations(range(1, cols + 1), min(2, cols)))
    for rs in row_sets[:5]:
        for cs in col_sets[:5]:
            if len(rs) != len(cs):
                continue
            sub = [sum(((rows[i - 1] >> (j - 1)) & 1) << k for k, j in enumerate(cs)) for i in rs]
            assert minor(rows, cols, rs, cs) == ref_det(sub, len(cs))


def test_empty_minor_is_one():
    assert minor((0b01, 0b11), 2, (), ()) == 1


def test_minor_and_kernel_check_their_indices():
    rows = (0b01, 0b11)
    for rs, cs in (((3,), (1,)), ((1,), (3,)), ((0,), (1,)), ((1,), (0,))):
        with pytest.raises(IndexError):
            minor(rows, 2, rs, cs)
    with pytest.raises(ValueError):
        minor(rows, 2, (1, 2), (1,))
    with pytest.raises(ValueError):
        kernel((0b100,), 2)
