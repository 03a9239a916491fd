"""Reference implementations kept for the tests to compare against: the
image walk, as the whole chart walked once, indexed by chart codes, and
each T's cell read from it by code (``_image_bits`` walks each cell in
place); H_T as byte tables (``lift`` applies the gates H_i); the lift's
graph rows read by one readout per T, with H_T and the column swaps folded
into its tables (``lift`` reads one table per N and swaps the columns
after); and the principal coordinates read by one strided slice of the
table's bit string (``_principal_bits`` folds them together)."""

import itertools
from functools import cache, lru_cache, partial

from lgrpauli import projection
from lgrpauli.gf2 import Tables, apply_gate, apply_tables, byte_tables, walk
from lgrpauli.projection import _entries, clifford_gates

# ``projection.image`` builds its points on each call; the tests that read
# them again share this one cache
image = cache(projection.image)


def chart_points(n_qubits: int) -> list[int]:
    """Entry c is the chart point of the symmetric matrix A with code c,
    bit k of c the entry flipped by gate k of ``clifford_gates(n)[n:]``
    (a_ii by S_i, then a_ij = a_ji by CZ_ij), walked from x_{} = 1."""
    return walk(1, [partial(apply_gate, g) for g in clifford_gates(n_qubits)[n_qubits:]])


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


@lru_cache(maxsize=None)
def readout_by_cell(n: int, t: int) -> tuple[Tables, tuple[int, ...]]:
    """For the points p lowest at x_T: byte tables reading p to its packed
    graph rows less the products a_ii a_jj, with the diagonal d of A above
    them (a_ii at bit 2N^2 + i), and by d the rest of the rows, with d
    itself to clear it.

    On the chart q = H_T p, q_S = p_{S ^ T}, and as a^2 = a the 1- and
    2-minors give A: a_ii = q_{i} and a_ij = q_{ij} + a_ii a_jj.  Row i of
    the graph, e_i + sum_j a_ij e_{N+j} with columns k and N+k swapped for
    k in T, is packed at bit 2N i."""
    def at(i: int, c: int) -> int:  # column c of row i, after the swaps
        return 1 << 2 * n * i + ((c + n) % (2 * n) if t >> c % n & 1 else c)

    entries, top = _entries(n), 2 * n * n
    images = [0] * (1 << n)  # entry e = {i, j} (i = j for a_ii) is read from bit e ^ T of p
    for e in entries:
        i, j = (e & -e).bit_length() - 1, e.bit_length() - 1
        images[e ^ t] = at(i, n + j) | at(j, n + i) | (e << top if i == j else 0)
    ones = sum(at(i, i) for i in range(n))
    return byte_tables(images), tuple(d << top | ones | sum(images[e ^ t] for e in entries[n:] if e & d == e)
                                      for d in range(1 << n))


def graph_rows_by_cell(n: int, bits: int) -> list[int]:
    """The graph rows that ``lift`` reads off the point ``bits``, row i at
    index i, through the readout of its lowest subset T."""
    tables, constant = readout_by_cell(n, (bits & -bits).bit_length() - 1)
    rows = apply_tables(tables, bits)
    rows ^= constant[rows >> 2 * n * n]
    return [rows >> 2 * n * i & (1 << 2 * n) - 1 for i in range(n)]


def principal_bits_by_slice(n: int, table: int) -> int:
    """Subset m's principal coordinate, at key (m + 1)(2^N - 1), to bit m."""
    step = (1 << n) - 1  # one strided slice reads them all, high m first
    return int(format(table, f"0{1 << 2 * n}b")[-1 - (step << n):-1:step], 2)
