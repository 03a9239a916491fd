"""Reference implementations kept for the tests to compare against: the
image walk, as the whole chart walked once, indexed by chart codes, and
each T's cell read from it by code (``_image_bits`` walks each cell in
place); H_T as byte tables (``lift`` folds it into its readout); and the
principal coordinates read by one strided slice of the table's bit string
(``_principal_bits`` folds them together)."""

import itertools
from functools import lru_cache

from lgrpauli.gf2 import Tables, byte_tables
from lgrpauli.projection import _gray_walk, clifford_gates


def chart_points(n_qubits: int) -> list[int]:
    """Entry c is the chart point of the symmetric matrix A with code c,
    bit k of c the entry flipped by gate k of ``clifford_gates(n)[n:]``
    (a_ii by S_i, then a_ij = a_ji by CZ_ij), walked from x_{} = 1."""
    return _gray_walk([(g,) for g in clifford_gates(n_qubits)[n_qubits:]], 1)


def _chart_cell(n: int, t: int) -> list[int]:
    """The codes of the symmetric A with a_ij = 0 whenever max(i, j) is in T."""
    cell = [0]
    for k, top in enumerate([*range(n), *(j for _, j in itertools.combinations(range(n), 2))]):
        if not t >> top & 1:
            cell += [c | 1 << k for c in cell]  # doubled over the free entries
    return cell


@lru_cache(maxsize=None)
def hadamard(n_qubits: int, t: int) -> Tables:
    """H_T = prod_{i in T} H_i as byte tables: it maps x_S to x_{S ^ T}."""
    return byte_tables([1 << (m ^ t) for m in range(1 << n_qubits)])


def principal_bits_by_slice(n: int, table: int) -> int:
    """Subset m's principal coordinate, at key (m + 1)(2^N - 1), to bit m."""
    step = (1 << n) - 1  # one strided slice reads them all, high m first
    return int(format(table, f"0{1 << 2 * n}b")[-1 - (step << n):-1:step], 2)
