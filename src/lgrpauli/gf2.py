"""Exact GF(2) linear algebra and linear maps (gates, byte tables) on packed ints.

A matrix is a sequence of Python integers, one per row, with column j
(1-based) at bit j-1, and all arithmetic is exact.  Every forward elimination
goes through ``reduce_row``; ``quadric_orbit`` back-substitutes on its own.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

Mat2 = tuple[tuple[int, int], tuple[int, int]]
Gate = tuple[int, int, int, int, int]
Tables = tuple[tuple[int, ...], ...]
RowEntry = tuple[int, tuple[int, ...]]

SWAP: Mat2 = ((0, 1), (1, 0))
LOWER: Mat2 = ((1, 0), (1, 1))


def reduce_row(pivots: dict[int, int], row: int) -> int:
    """``row`` reduced against ``pivots`` (bit length -> row of that length)
    by XORing in the pivot matching its top bit until none does: 0 exactly
    when ``row`` lies in their span, else a new pivot for its bit length."""
    while p := pivots.get(row.bit_length()):
        row ^= p
    return row


def independent(rows: Iterable[int]) -> list[int]:
    """The indices of the rows outside the span of the earlier ones (each
    reduced against those kept before it): the first basis among them."""
    pivots: dict[int, int] = {}
    kept = []
    for k, r in enumerate(rows):
        if r := reduce_row(pivots, r):
            pivots[r.bit_length()] = r
            kept.append(k)
    return kept


def rank(rows: Iterable[int]) -> int:
    """GF(2) row rank: the number of rows that reduce to nonzero."""
    return len(independent(rows))


def column_masks(n_cols: int) -> tuple[int, ...]:
    """Entry j has bit m set iff the subset mask m holds column j+1, for the
    2^n_cols masks m; by doubling, as the keys of c + 1 columns are those of c
    and the same keys with column c + 1."""
    masks = []
    for c in range(n_cols):
        masks = [m | m << (1 << c) for m in masks] + [((1 << (1 << c)) - 1) << (1 << c)]
    return tuple(masks)


@lru_cache(maxsize=None)
def grades(n_cols: int) -> tuple[int, ...]:
    """Entry k masks the keys of k columns, k = 0..n_cols, then one 0 entry; by
    doubling, as k of c + 1 columns are k of the first c or k - 1 and column c + 1."""
    g = [1]
    for c in range(n_cols):
        g = [a | b << (1 << c) for a, b in zip(g + [0], [0] + g)]
    return tuple(g + [0])


# per column width, each row seen so far with its ``_row_entry``, filled lazily
_row_memo: defaultdict[int, dict[int, RowEntry]] = defaultdict(dict)


def _row_entry(n_cols: int, r: int) -> RowEntry:
    """Row r's product with 1 (sum of 1 << 2^j over its columns j), and the
    shifts 2^j of its columns, which wedge it onto a product."""
    if r >> n_cols:
        raise ValueError(f"basis rows must have at most {n_cols} bits")
    shifts = tuple(1 << j for j in range(n_cols) if r >> j & 1)
    return sum(1 << s for s in shifts), shifts


def wedge(rows: Iterable[int], n_cols: int) -> tuple[int, int]:
    """(table, rank): the exterior product of a basis of the row space, bit
    m of ``table`` the minor on the columns of subset mask m; a change of
    basis has determinant 1, so it depends only on the span.  A row whose
    product with the kept rows vanishes lies in their span and is skipped,
    so ``rank`` rows are kept; the first kept row's product is read from
    its memo entry.  A row not an int (a bool is not) or wider than ``n_cols`` bits raises.

    A shift by 2^j sends key m of k columns to m | 2^j if m omits column j,
    else by a carry to at most k columns: so a row XORs a product's shifts by
    its columns' 2^j and keeps grade k + 1 (``grades``) once, with no column mask."""
    memo, grade = _row_memo[n_cols], grades(n_cols)
    w, kept = 1, 0
    for r in rows:
        if r.__class__ is not int:  # True and 1.0 would find row 1's memo entry
            raise ValueError(f"basis rows must be ints, got {r!r}")
        product, shifts = memo.get(r) or memo.setdefault(r, _row_entry(n_cols, r))
        if kept:
            product = 0
            for s in shifts:
                product ^= w << s
            product &= grade[kept + 1]
        if product:
            w = product
            kept += 1
    return w, kept


@lru_cache(maxsize=None)
def _rref_reader(n_cols: int, pivots: int) -> itemgetter:
    """For the pivot set ``pivots``: the characters of a table's bit string
    (key k at index -1-k) that spell the RREF rows, pivots ascending and
    each row's columns from the highest down."""
    return itemgetter(*(-1 - (pivots ^ 1 << p ^ 1 << j) for p in range(n_cols) if pivots >> p & 1
                        for j in reversed(range(n_cols))))


def packed_rref(table: int, n_cols: int) -> int:
    """The RREF rows (pivot = lowest column) of the row space whose wedge is
    ``table``, packed ``n_cols`` bits apart with the first row highest, so
    that at one rank the ints order as the row tuples do.  The pivot set P
    is the lowest set key, and column j of the row with pivot p is the
    coordinate at P - p + j: the minor of the RREF rows on the columns P
    with p replaced by j."""
    pivots = (table & -table).bit_length() - 1
    if not pivots:
        return 0
    # the top bit keeps every key's digit in the string, below "0b1"
    return int("".join(_rref_reader(n_cols, pivots)(bin(table | 1 << (1 << n_cols)))), 2)


# per bit k, a translate table from a byte to the digit "0" or "1" of its bit k
_BIT_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def columns(rows: Sequence[int], n_cols: int) -> list[int]:
    """The transpose of one or more rows of ``n_cols`` bits: entry j holds
    bit j of every row, the first row at the top bit.  Each byte lane of
    the rows, packed little-endian, is read by ``bytes.translate`` as one
    binary digit per row for each of its bits."""
    width = (n_cols + 7) // 8
    packed = b"".join([r.to_bytes(width, "little") for r in rows])
    lanes = [packed[b::width] for b in range(width)]
    return [int(lanes[j >> 3].translate(_BIT_DIGITS[j & 7]), 2) for j in range(n_cols)]


def gate(n_qubits: int, frm: int, to: int, mat: Mat2) -> Gate:
    """The linear map applying ``mat`` to every coordinate pair
    (x_{S|frm}, x_{S|to}) with S disjoint from frm|to, fixing the other
    coordinates; ``frm`` < ``to`` are disjoint subset masks.

    Packed as (shift, n00, n01, n10, n11): x_{S|to} sits ``shift`` =
    to - frm bits above x_{S|frm}, and n_ab masks the x_{S|frm} positions
    where (mat + I)[a][b] = 1, the change the gate adds to each pair.
    """
    if frm & to or frm >= to:
        raise ValueError("gate needs disjoint subset masks frm < to")
    low = sum(1 << m for m in range(1 << n_qubits) if m & (frm | to) == frm)
    return (to - frm, *(low if mat[a][b] ^ (a == b) else 0 for a in (0, 1) for b in (0, 1)))


def apply_gate(g: Gate, bits: int) -> int:
    """Apply a packed gate to packed coordinates (bit m = subset m)."""
    shift, n00, n01, n10, n11 = g
    hi = bits >> shift
    return bits ^ (bits & n00 ^ hi & n01) ^ (bits & n10 ^ hi & n11) << shift


def walk(start: int, steps: Iterable[Callable[[int], int]]) -> list[int]:
    """Entry c is ``start`` moved by step k for each bit k of c, for steps
    that commute: step k maps the first 2^k entries to the next 2^k."""
    out = [start]
    for step in steps:
        out += list(map(step, out))  # a snapshot: ``out += map(step, out)`` would chase its own tail
    return out


def byte_tables(images: Sequence[int]) -> Tables:
    """The linear map sending bit k to ``images[k]``, as one table per input
    byte: entry v of table b is the image of v << 8b, the XOR ``walk`` from
    0 by the byte's images."""
    return tuple(tuple(walk(0, [r.__xor__ for r in images[lo:lo + 8]])) for lo in range(0, len(images), 8))


def apply_tables(tables: Tables, x: int) -> int:
    """The image of ``x`` (no wider than the images) under the tabulated map."""
    y = 0
    for table in tables:
        y ^= table[x & 255]
        x >>= 8
    return y
