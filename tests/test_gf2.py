"""Property tests for the packed-row GF(2) linear algebra kernel."""

import itertools
import random
from functools import partial, reduce
from operator import xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli import gf2
from lgrpauli.gf2 import (apply_gate, apply_tables, byte_tables, column_masks, columns, grades, independent,
                          packed_rref, rank, reduce_row, walk, wedge)
from lgrpauli.projection import _image_bits, clifford_gates
from gf2_oracles import columns_by_string_joins, kernel, rref
from orbit_oracles import minor
from pluecker_oracles import bitwise_wedge
from test_cli import fresh_stdout


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


@pytest.mark.parametrize("cols", range(1, 11))
def test_grades_mask_the_keys_by_column_count(cols):
    # entry k is the popcount filter of the 2^cols keys, and entry cols + 1,
    # which a row given after a full basis reads, is 0
    g = grades(cols)
    assert len(g) == cols + 2 and g[-1] == 0
    assert all(g[k] == sum(1 << m for m in range(1 << cols) if m.bit_count() == k) for k in range(cols + 1))


@pytest.mark.parametrize("cols", range(0, 13))
def test_column_masks_hold_each_key_that_holds_the_column(cols):
    # bit m of entry j is bit j of the key m, for all 2^cols keys
    masks = column_masks(cols)
    assert len(masks) == cols
    assert all(masks[j] >> m & 1 == m >> j & 1 for j in range(cols) for m in range(1 << cols))


def test_column_masks_of_the_n5_slice_on_sampled_keys():
    # 16 columns, the N = 5 slice of ``verify_variety``: 2,000 seeded keys per column
    rng, masks = random.Random(16), column_masks(16)
    assert len(masks) == 16 and all(m.bit_length() <= 1 << 16 for m in masks)
    for j, mask in enumerate(masks):
        assert all(mask >> m & 1 == m >> j & 1 for m in (rng.randrange(1 << 16) for _ in range(2000)))


def test_wedge_carry_never_raises_the_column_count():
    # the wedge shifts every key m by 2^j for each column j of a row: when m
    # holds column j the carry must leave at most |m| columns, so that only
    # the keys m | 2^j reach the next grade
    for cols in range(1, 11):
        for m in range(1 << cols):
            assert all((m + (1 << j)).bit_count() <= m.bit_count() for j in range(cols) if m >> j & 1)


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
    # wide and negative rows, first, after a zero row or after kept rows;
    # none is memoized
    for cols in range(1, 11):
        for row in (1 << cols, (1 << cols + 3) | 1, -1, -(1 << cols)):
            for rows in ((row,), (0, row), (1, row), (1, 1, row)):
                with pytest.raises(ValueError, match=f"basis rows must have at most {cols} bits"):
                    wedge(rows, cols)
            assert row not in gf2._row_memo[cols]


def kept_by_bitwise_wedge(rows, cols: int) -> list[int]:
    """Oracle: each row whose bitwise wedge with the rows kept before it is
    nonzero, in order."""
    kept = []
    for r in rows:
        if bitwise_wedge(kept + [r], cols):
            kept.append(r)
    return kept


@pytest.mark.parametrize("cols", range(1, 11))
def test_wedge_row_memo_matches_the_bitwise_wedge(cols):
    # seeded rows, with leading zero rows, a repeated first row and rows
    # dependent on earlier ones, given as a list and as an iterator
    rng = random.Random(cols)
    for _ in range(100):
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(1, min(cols, 6) + 1))]
        for rs in ([0] + rows, [0, 0, 0] + rows, rows[:1] + rows, rows + [reduce(xor, rows)],
                   rows[:1] + [0] + rows[:2] + [rows[0] ^ rows[-1]] + rows):
            kept = kept_by_bitwise_wedge(rs, cols)
            expected = (bitwise_wedge(kept, cols), len(kept))
            assert wedge(rs, cols) == wedge(iter(rs), cols) == expected


def test_wedge_fills_its_row_memo_lazily():
    # in a fresh process one wedge of one row memoizes that row alone
    code = "from lgrpauli import gf2; gf2.wedge([5], 10); print({c: list(m) for c, m in gf2._row_memo.items()})"
    assert fresh_stdout(code) == "{10: [5]}\n"


@given(mats())
def test_rank_matches_reference(m):
    assert rank(m[0]) == ref_rank(*m)


@given(mats(max_rows=8))
def test_rank_matches_the_rref_oracle(m):
    # zero and repeated rows included: they reduce to zero and do not count
    rows, _ = m
    for rs in (rows, rows + rows[:1] + (0,), (0,) + rows + rows):
        assert rank(rs) == len(rref(rs))


@given(mats(max_rows=8))
def test_independent_keeps_the_rows_outside_the_earlier_span(m):
    # row k is kept iff it raises the oracle rank of rows[:k]; the span of
    # the kept rows is the row space, each sum listed once, entry c the
    # XOR of the kept rows at the bits of c
    rows, _ = m
    for rs in (rows, rows + rows[:1] + (0,), (0,) + rows + rows):
        kept = independent(rs)
        assert kept == [k for k in range(len(rs)) if len(rref(rs[:k + 1])) > len(rref(rs[:k]))]
        basis = [rs[k] for k in kept]
        sums = walk(0, [r.__xor__ for r in basis])
        assert len(set(sums)) == len(sums) == 1 << len(kept)
        assert rref(sums) == rref(rs)
        assert all(sums[c] == reduce(xor, [r for k, r in enumerate(basis) if c >> k & 1], 0)
                   for c in range(len(sums)))


@given(mats(max_rows=8), st.integers(0, (1 << 6) - 1))
def test_reduce_row_is_zero_exactly_on_the_span(m, row):
    # pivots built from the rows; a row is in their span iff adding it to
    # them leaves the rank of the oracle unchanged, and the reduction only
    # adds span elements, so the row space with either is the same
    rows, _ = m
    pivots = {}
    for r in rows:
        if r := reduce_row(pivots, r):
            pivots[r.bit_length()] = r
    assert all(k == p.bit_length() for k, p in pivots.items())
    for x in (row, *rows, 0, rows[0] ^ rows[-1]):
        reduced = reduce_row(pivots, x)
        assert (reduced == 0) == (len(rref(rows + (x,))) == len(rref(rows)))
        assert rref(rows + (reduced,)) == rref(rows + (x,))


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


def apply_by_bits(images, x: int) -> int:
    """Oracle: the XOR of the images of the set bits of x."""
    y = 0
    for k, im in enumerate(images):
        if x >> k & 1:
            y ^= im
    return y


@pytest.mark.parametrize("size", range(1, 41))
def test_byte_tables_match_the_bit_loop_oracle(size):
    # seeded random maps of 1-40 images (a partial byte, one or more full
    # bytes: 4, 8, 15, 16, 32, ...), some images zero, on the unit vectors,
    # the extremes and random inputs of ``size`` bits
    rng = random.Random(1000 + size)
    images = [rng.getrandbits(rng.choice((1, 8, 40))) * rng.randrange(4) for _ in range(size)]
    tables = byte_tables(images)
    assert [len(t) for t in tables] == [1 << min(8, size - lo) for lo in range(0, size, 8)]
    xs = [0, (1 << size) - 1, *(1 << k for k in range(size)),
          *(rng.getrandbits(size) for _ in range(300))]
    for x in xs:
        assert apply_tables(tables, x) == apply_by_bits(images, x)


def test_byte_tables_of_no_images_map_to_zero():
    assert byte_tables([]) == ()
    assert apply_tables((), 0) == 0


def walk_by_bits(start: int, steps, c: int) -> int:
    """Oracle: ``start`` moved by step k for each bit k of c, in turn."""
    for k, step in enumerate(steps):
        if c >> k & 1:
            start = step(start)
    return start


@pytest.mark.parametrize("size", range(0, 11))
def test_walk_by_xors_from_zero_sums_the_rows_at_the_bits_of_each_entry(size):
    # seeded rows, some zero or repeated: entry c is the XOR of the rows at
    # the bits of c, as the per-bit oracle reads it
    rng = random.Random(1100 + size)
    rows = [rng.getrandbits(rng.choice((1, 8, 40))) * rng.randrange(3) for _ in range(size)]
    rows += rows[:size // 4]
    steps = [r.__xor__ for r in rows]
    got = walk(0, steps)
    assert len(got) == 1 << len(rows)
    assert got == [reduce(xor, [r for k, r in enumerate(rows) if c >> k & 1], 0) for c in range(len(got))]
    assert got == [walk_by_bits(0, steps, c) for c in range(len(got))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_by_commuting_gates_matches_the_per_bit_oracle(n):
    # the chart gates S_i and CZ_ij commute: seeded subsets of them in
    # seeded orders, from seeded starts
    rng = random.Random(1200 + n)
    chart_gates = clifford_gates(n)[n:]
    for _ in range(8):
        gates = rng.sample(chart_gates, rng.randrange(len(chart_gates) + 1))
        steps = [partial(apply_gate, g) for g in gates]
        start = rng.getrandbits(1 << n)
        got = walk(start, steps)
        assert got == [walk_by_bits(start, steps, c) for c in range(1 << len(gates))]


@pytest.mark.parametrize("start", [0, 1, 0b1011, 1 << 70])
def test_walk_with_no_steps_is_its_start(start):
    assert walk(start, []) == [start]
    assert walk(start, iter(())) == [start]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_columns_match_the_string_join_oracle_on_the_image(n):
    # the value columns of ``vanishing_quadrics(image(n))``
    bits = _image_bits(n)
    assert columns(bits, 1 << n) == columns_by_string_joins(bits, 1 << n)


@pytest.mark.parametrize("n_cols", [1, 2, 7, 8, 9, 16, 23, 40])
def test_columns_match_the_string_join_oracle(n_cols):
    # widths within one byte lane, at its edge and across several, with
    # 1, 2 and many seeded rows, zero rows among them
    rng = random.Random(2000 + n_cols)
    for count in (1, 2, 300):
        rows = [rng.getrandbits(n_cols) * rng.randrange(2) for _ in range(count)]
        assert columns(rows, n_cols) == columns_by_string_joins(rows, n_cols)
