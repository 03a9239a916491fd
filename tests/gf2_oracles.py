"""Test-only oracles for the GF(2) primitives: the full reduced row echelon
form and the right null space built on it, which the library replaced by
one pivot reduction (``gf2.reduce_row``)."""

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


def columns_by_string_joins(rows: Sequence[int], n_cols: int) -> list[int]:
    """The transpose of ``rows``, first row at the top bit, one string join
    of binary digits per column."""
    return [int("".join("1" if r >> j & 1 else "0" for r in rows), 2) for j in range(n_cols)]
