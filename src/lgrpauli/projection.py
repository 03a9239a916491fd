"""The projection onto principal-minor coordinates and its inverse.

Keeping only the 2^N Plucker coordinates indexed by principal minors gives
a point of PG(2^N - 1, 2).  On the chart where the empty minor is 1, the
subspace is the graph of a symmetric matrix A and the coordinates are the
principal minors of A; over GF(2) those determine A (and hence the whole
subspace) uniquely, so the projection is a bijection onto its image, walked
by ``image`` one cell per T (its points lowest at x_T) from x_T by the chart
gates conjugated by H_T.  ``lift`` inverts it: H_T, for T the lowest subset
with x_T = 1, moves a point onto that chart, where its 1- and 2-minors give
A, and the point is in the image exactly when the graph of A, its columns
swapped back by T, projects to it.

Coordinates are indexed internally by subsets I of {1..N} (element j at
bit j-1).  The display order used for bit strings and observables puts
the subsets without element 1 first, ascending by the value with element 1
most significant, followed by their complements in the same order.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache, partial
from typing import Iterable

from . import pauli
from .gf2 import LOWER, SWAP, Gate, Tables, apply_gate, apply_tables, byte_tables, gate, packed_rref, walk
from .pauli import MAX_QUBITS, Generator, PauliPoint, _require_int, _require_qubits, _Value
from .pluecker import PlueckerVec


class NotInImageError(ValueError):
    """Raised when a point has no preimage among the generators."""


@lru_cache(maxsize=None)
def display_masks(n_qubits: int) -> tuple[int, ...]:
    """Internal subset masks in display order (length 2^N)."""
    n = n_qubits
    _require_qubits(n)
    # bit k of the index toggles element N - k for k < N - 1, and its top bit complements
    return tuple(walk(0, [(1 << k).__xor__ for k in reversed(range(1, n))] + [((1 << n) - 1).__xor__]))


@lru_cache(maxsize=None)
def _display_order(n_qubits: int) -> Tables:
    """The display order as byte tables of a bit permutation, moving the
    coordinate of display_masks(N)[j] to bit j."""
    masks = display_masks(n_qubits)
    positions = sorted(range(len(masks)), key=masks.__getitem__)  # the inverse permutation
    return byte_tables([1 << j for j in positions])


_HEX = re.compile(r"0[xX][0-9a-fA-F]+")


class ProjPoint(_Value, order=True):
    """A nonzero point of PG(2^N - 1, 2) in principal-minor coordinates.

    ``bits`` packs the coordinate of subset-mask m at bit m.
    """

    __slots__ = ("n_source", "bits")

    def __init__(self, n_source: int, bits: int):
        _require_qubits(n_source, 1, None, "source qubit count")
        if bits.__class__ is not int or bits <= 0 or (bits.bit_length() - 1) >> n_source:  # builds no 2^N-bit int
            _require_int("bits", bits)
            raise ValueError("point must be nonzero and within 2^N coordinates")
        _Value.__init__(self, n_source, bits)

    def display_str(self) -> str:
        return "[" + ":".join(self.bit_string()) + "]"

    def bit_string(self) -> str:
        # display coordinate j is bit j of the permuted int, so it is read reversed
        n = self.n_source
        return format(apply_tables(_display_order(n), self.bits), f"0{1 << n}b")[::-1]

    def hex_string(self) -> str:
        width = ((1 << self.n_source) + 3) // 4
        return format(int(self.bit_string(), 2), f"0{width}x")

    @classmethod
    def from_string(cls, n_qubits: int, text: str) -> "ProjPoint":
        """Parse a display bit string ("0010"), colon form ("[0:0:1:0]") or
        hex ("0x4", ASCII hex digits only)."""
        _require_qubits(n_qubits, 1, None, "source qubit count")
        masks = display_masks(n_qubits)  # N in 1..5, checked before the text is read
        if not isinstance(text, str):
            raise ValueError(f"point must be a str, got {type(text).__name__}")
        text = text.strip()
        size = 1 << n_qubits
        if text.startswith("[") and text.endswith("]"):
            parts = [part.strip() for part in text[1:-1].split(":")]
            if len(parts) != size or set(parts) - {"0", "1"}:
                raise ValueError(f"expected {size} coordinates, each 0 or 1")
            bitstr = "".join(parts)
        elif _HEX.fullmatch(text):
            bitstr = format(int(text, 16), f"0{size}b")
        else:
            bitstr = text
        if len(bitstr) != size or set(bitstr) - {"0", "1"}:
            raise ValueError(f"expected {size} binary digits or hex")
        return cls(n_qubits, sum(1 << m for m, digit in zip(masks, bitstr) if digit == "1"))


# ``project`` and ``to_observable`` write their results' slots themselves:
# their inputs passed the constructors' checks, and ``_principal_bits`` and
# the display order keep a nonzero point within its 2^N bits.
_new = object.__new__
_set_point_n, _set_point_bits = ProjPoint._setters
_set_op_n, _set_op_bits = PauliPoint._setters


def project(v: PlueckerVec) -> ProjPoint:
    """Keep the principal-minor coordinates of a Plucker vector.

    The vector's constructor checked the isotropy constraints, whose kernel
    is larger than the generators' span at N >= 4; a resulting zero vector
    signals a point off the Lagrangian locus and is rejected.
    """
    n = v.n_qubits
    bits = _principal_bits(n, v.table)
    if bits == 0:
        raise ValueError("all principal coordinates vanish: input not Lagrangian")
    p = _new(ProjPoint)
    _set_point_n(p, n)
    _set_point_bits(p, bits)
    return p


@lru_cache(maxsize=None)
def _principal_folds(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """For ``_principal_bits``: the mask of the bits m(2^N - 1), and each
    fold's (shift, mask).  Fold i moves the odd groups of 2^i bits,
    2^i(2^N - 1) apart, down onto the end of the even ones."""
    step = (1 << n) - 1
    masks = [sum(((1 << (1 << i)) - 1) << k for k in range(0, step << n, step << i)) for i in range(n + 1)]
    return masks[0], tuple((step - 1 << i, masks[i + 1]) for i in range(n))


def _principal_bits(n: int, table: int) -> int:
    """Subset m's principal coordinate, at key (m + 1)(2^N - 1), to bit m:
    one shift and mask moves it to bit m(2^N - 1), and N folds close the gaps."""
    mask, folds = _principal_folds(n)
    t = table >> (1 << n) - 1 & mask
    for shift, keep in folds:
        t = (t | t >> shift) & keep
    return t


def to_observable(p: ProjPoint) -> PauliPoint:
    """Read the display coordinates as a Pauli operator on 2^(N-1) qubits:
    display coordinate j is bit j of the operator."""
    n = p.n_source
    o = _new(PauliPoint)
    _set_op_n(o, 1 << n - 1)
    _set_op_bits(o, apply_tables(_display_order(n), p.bits))
    return o


def _entries(n: int) -> list[int]:
    """A symmetric A's entries as masks: {i} for a_ii, then {i, j} for a_ij (i < j)."""
    return [1 << i for i in range(n)] + [1 << i | 1 << j for i, j in itertools.combinations(range(n), 2)]


@lru_cache(maxsize=None)
def clifford_gates(n_qubits: int) -> tuple[Gate, ...]:
    """H_i for each qubit, then S_i, then CZ_ij (i < j):
    H_i: x_S <-> x_{S ^ {i}};  S_i: x_S += x_{S - {i}} for i in S;
    CZ_ij: x_S += x_{S - {i,j}} for {i,j} in S."""
    _require_qubits(n_qubits)
    n, entries = n_qubits, _entries(n_qubits)
    return tuple([gate(n, 0, e, SWAP) for e in entries[:n]] + [gate(n, 0, e, LOWER) for e in entries])


def local_gates(n: int) -> tuple[Gate, ...]:
    """Generators of the local group as gates: H_i and S_i on each axis
    (SWAP and LOWER generate GL(2,2)), then the adjacent axis swaps
    k <-> k+1.  Each is an involution."""
    return clifford_gates(n)[:2 * n] + tuple(gate(n, 1 << k, 2 << k, SWAP) for k in range(n - 1))


@lru_cache(maxsize=None)
def _image_bits(n_qubits: int) -> tuple[int, ...]:
    """The packed bits of every image point, sorted; ``verify``'s bijection
    suite checks that they are prod (2^i + 1) distinct points.

    Each image point is H_T q for one chart point q and its lowest subset T
    with x_T = 1, so q vanishes on {S ^ T : S < T}, the nonempty U with max U
    in T: as q holds the principal minors of A, that is a_ij = 0 whenever
    max(i, j) is in T (row max U of A[U, U] is then zero, and U = {k},
    {j, k} give a_kk, a_jk).  So T's cell is H_T of the walk from x_{} = 1
    (A = 0) by the chart gates g_e = gate(n, {}, e, LOWER) of the entries e
    with max e not in T, or the walk from x_T by the H_T g_e H_T: as H_T
    moves the pair (x_S, x_{S | e}) that g_e acts on to (x_{U | (e & T)},
    x_{U | (e - T)}), U = (S ^ T) - e, that is gate(n, e & T, e - T, LOWER)."""
    n = n_qubits
    _require_qubits(n)
    hits = [bits for t in range(1 << n) for bits in walk(1 << t, [
        partial(apply_gate, gate(n, e & t, e & ~t, LOWER)) for e in _entries(n) if not t >> e.bit_length() - 1 & 1])]
    return tuple(sorted(hits))


def image(n_qubits: int) -> tuple[ProjPoint, ...]:
    """The projected images of all generators, sorted: one per generator (the
    projection is injective), built on each call."""
    return tuple(ProjPoint(n_qubits, bits) for bits in _image_bits(n_qubits))


@lru_cache(maxsize=None)
def _readout(n: int) -> tuple[Tables, tuple[int, ...], int]:
    """Byte tables reading a chart point q to its packed graph rows less the
    products a_ii a_jj, with the diagonal d of A above them (a_ii at bit
    2N^2 + i); by d the rest of the rows, with d itself to clear it; and
    the mask of each row's first column, whose product with T masks the
    columns k in T of every row.

    As a^2 = a the 1- and 2-minors of q give A: a_ii = q_{i} and a_ij =
    q_{ij} + a_ii a_jj.  Row i of the graph, e_i + sum_j a_ij e_{N+j}, is
    packed at bit 2N i."""
    entries, top = _entries(n), 2 * n * n
    images = [0] * (1 << n)  # entry e = {i, j} (i = j for a_ii) is read from bit e of q
    for e in entries:
        i, j = (e & -e).bit_length() - 1, e.bit_length() - 1
        images[e] = 1 << 2 * n * i + n + j | 1 << 2 * n * j + n + i | (e << top if i == j else 0)
    firsts = sum(1 << 2 * n * i for i in range(n))
    ones = sum(1 << (2 * n + 1) * i for i in range(n))
    return byte_tables(images), tuple(d << top | ones | sum(images[e] for e in entries[n:] if e & d == e)
                                      for d in range(1 << n)), firsts


# the generators lifted so far at each N, keyed by their points' bits
_lifted: dict[int, dict[int, Generator]] = {n: {} for n in range(1, MAX_QUBITS + 1)}


def _lift_points(n: int, points: Iterable[int]) -> list[Generator]:
    """``lift`` of each point p, given by its bits: its memo entry, or else
    the generator of its graph rows.  For T, the lowest subset with x_T = 1,
    the H_i for i in T move p onto the chart, q_S = p_{S ^ T}; ``_readout``
    reads the rows off q, and one masked exchange swaps columns k and N+k
    of every row for k in T.  Their entries are forced, so p is in the
    image exactly when that generator's principal coordinates are p."""
    _require_qubits(n)
    memo = _lifted[n]
    tables, constant, firsts = _readout(n)
    hadamards = clifford_gates(n)[:n]
    width = 2 * n
    out = []
    for bits in points:
        g = memo.get(bits)
        if g is None:
            q = bits
            t = s = (bits & -bits).bit_length() - 1
            while s:  # H_i for i in T: of its gate (shift, low, low, low, low), the exchange reads n01
                shift, _, low, _, _ = hadamards[(s & -s).bit_length() - 1]
                x = (q >> shift ^ q) & low
                q ^= x | x << shift
                s &= s - 1
            rows = apply_tables(tables, q)
            rows ^= constant[rows >> width * n]
            x = (rows >> n ^ rows) & t * firsts  # columns k and N+k of every row, k in T
            rows ^= x | x << n
            g = Generator(n, [rows >> width * i & (1 << width) - 1 for i in range(n)])
            if _principal_bits(n, g.table) != bits:
                raise NotInImageError(f"{ProjPoint(n, bits).display_str()} is not in the image")
            memo[bits] = g
        out.append(g)
    return out


def lift(p: ProjPoint) -> Generator:
    """The unique generator projecting to ``p``, read off its 1- and 2-minors
    on the first lift of ``p`` and the same object on every later one.  It
    has passed the rank and isotropy checks of ``Generator`` and projects
    back to ``p``."""
    try:
        return _lifted[p.n_source][p.bits]
    except KeyError:
        pass
    return _lift_points(p.n_source, (p.bits,))[0]


@lru_cache(maxsize=None)
def enumerate_generators(n_qubits: int) -> tuple[Generator, ...]:
    """All (2+1)(2^2+1)...(2^N+1) generators of W(2N-1,2), sorted by
    canonical basis matrix: the lifts of the image points, each built and
    checked by ``lift``'s own path, so ``lift`` returns the same objects."""
    gens = _lift_points(n_qubits, _image_bits(n_qubits))
    # packed rows order as the row tuples do, and take less memory
    return tuple(sorted(gens, key=lambda g: packed_rref(g.table, 2 * n_qubits)))


# perfbench/layers.py times the enumeration as ``pauli.enumerate_generators``
pauli.enumerate_generators = enumerate_generators
