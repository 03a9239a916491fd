"""Exact linear algebra over GF(2) on packed integer rows.

A matrix is a sequence of Python integers, one per row, with column j
(1-based) at bit j-1.  All arithmetic is exact; there is no floating
point anywhere.  Index sets in the API are 1-based.
"""

from __future__ import annotations

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
