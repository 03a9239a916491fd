"""Exact linear algebra over GF(2) on packed integer rows.

A matrix is a sequence of Python integers, one per row, with column j
(1-based) at bit j-1.  All arithmetic is exact; there is no floating
point anywhere.  Index sets in the API are 1-based.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence


def rref(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form: the nonzero rows sorted by pivot column,
    the canonical form used for subspace equality."""
    pivots: list[tuple[int, int]] = []  # (pivot bit index, row)
    for r in rows:
        for pc, pr in pivots:
            if (r >> pc) & 1:
                r ^= pr
        if r:
            pc = (r & -r).bit_length() - 1
            for k, (pc2, pr2) in enumerate(pivots):
                if (pr2 >> pc) & 1:
                    pivots[k] = (pc2, pr2 ^ r)
            pivots.append((pc, r))
    pivots.sort()
    return [pr for _, pr in pivots]


def rank(rows: Iterable[int]) -> int:
    """GF(2) row rank."""
    return len(rref(rows))


def kernel(rows: Sequence[int], n_cols: int) -> list[int]:
    """A basis of the right null space of a matrix with ``n_cols``
    columns: ``n_cols - rank`` packed vectors."""
    if any(r >> n_cols for r in rows):
        raise ValueError(f"row wider than {n_cols} columns")
    reduced = rref(rows)
    pivot_cols = [(r & -r).bit_length() - 1 for r in reduced]
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for pc, r in zip(pivot_cols, reduced):
            if (r >> free) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def minor(rows: Sequence[int], n_cols: int, row_set: Iterable[int], col_set: Iterable[int]) -> int:
    """Determinant of the submatrix on 1-based index sets ``row_set``/``col_set``
    of a matrix with ``n_cols`` columns.

    The empty minor is 1 by convention.
    """
    rs = sorted(set(row_set))
    cs = sorted(set(col_set))
    if len(rs) != len(cs):
        raise ValueError(f"minor needs |I| == |J|, got {len(rs)} and {len(cs)}")
    for i in rs:
        if not 1 <= i <= len(rows):
            raise IndexError(f"row index {i} out of range 1..{len(rows)}")
    for j in cs:
        if not 1 <= j <= n_cols:
            raise IndexError(f"column index {j} out of range 1..{n_cols}")
    sub = []
    for i in rs:
        r = rows[i - 1]
        sub.append(sum(1 << k for k, j in enumerate(cs) if (r >> (j - 1)) & 1))
    return 1 if rank(sub) == len(rs) else 0


@lru_cache(maxsize=None)
def absent_masks(n_cols: int) -> tuple[int, ...]:
    """Entry j has bit m set iff the subset mask m omits column j+1, for the
    2^n_cols masks m."""
    npos = 1 << n_cols
    masks = []
    for j in range(n_cols):
        pat = (1 << (1 << j)) - 1
        width = 1 << (j + 1)
        while width < npos:
            pat |= pat << width
            width <<= 1
        masks.append(pat)
    return tuple(masks)


@lru_cache(maxsize=None)
def _row_terms(n_cols: int, r: int) -> tuple[tuple[int, int], ...]:
    """The terms of wedging row r onto a product: the (absent_masks entry,
    shift) pair of each of its columns."""
    if r >> n_cols:
        raise ValueError(f"basis rows must have at most {n_cols} bits")
    absent = absent_masks(n_cols)
    return tuple((absent[j], 1 << j) for j in range(n_cols) if r >> j & 1)


def wedge(rows: Iterable[int], n_cols: int) -> tuple[int, int]:
    """(table, rank): the exterior product of a basis of the row space, bit
    m of ``table`` the minor on the columns of subset mask m; a change of
    basis has determinant 1, so it depends only on the span.  A row whose
    product with the kept rows vanishes lies in their span and is skipped,
    so ``rank`` rows are kept.  A row wider than ``n_cols`` bits raises."""
    w, kept = 1, 0
    for r in rows:
        nw = 0
        for m, s in _row_terms(n_cols, r):
            nw ^= (w & m) << s
        if nw:
            w = nw
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
