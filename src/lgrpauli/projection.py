"""The projection onto principal-minor coordinates and its inverse.

Keeping only the 2^N Plucker coordinates indexed by principal minors gives
a point of PG(2^N - 1, 2).  On the chart where the empty minor is 1, the
subspace is the graph of a symmetric matrix A and the coordinates are the
principal minors of A; over GF(2) those determine A (and hence the whole
subspace) uniquely, so the projection is a bijection onto its image.

Coordinates are indexed internally by subsets I of {1..N} (element j at
bit j-1).  The display order used for bit strings and observables puts
the subsets without element 1 first, ascending by the value with element 1
most significant, followed by their complements in the same order.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

from .pauli import MAX_QUBITS, Generator, PauliPoint, generator_count, omega_masks
from .pluecker import PlueckerVec, embed, lagrangian_constraints


class NotInImageError(ValueError):
    """Raised when a point has no preimage among the generators."""


@lru_cache(maxsize=None)
def display_masks(n_qubits: int) -> tuple[int, ...]:
    """Internal subset masks in display order (length 2^N)."""
    n = n_qubits
    half = 1 << (n - 1)
    first = []
    for d in range(half):
        m = 0
        for j in range(2, n + 1):
            if (d >> (n - j)) & 1:
                m |= 1 << (j - 1)
        first.append(m)
    full = (1 << n) - 1
    return tuple(first + [full ^ m for m in first])


_HEX = re.compile(r"0[xX][0-9a-fA-F]+")


@dataclass(frozen=True, order=True)
class ProjPoint:
    """A nonzero point of PG(2^N - 1, 2) in principal-minor coordinates.

    ``bits`` packs the coordinate of subset-mask m at bit m.
    """

    n_source: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n_source:
            raise ValueError("source qubit count must be positive")
        if self.bits <= 0 or self.bits >> (1 << self.n_source):
            raise ValueError("point must be nonzero and within 2^N coordinates")

    def display_bits(self) -> tuple[int, ...]:
        return tuple((self.bits >> m) & 1 for m in display_masks(self.n_source))

    def display_str(self) -> str:
        return "[" + ":".join(str(b) for b in self.display_bits()) + "]"

    def bit_string(self) -> str:
        return "".join(str(b) for b in self.display_bits())

    def hex_string(self) -> str:
        width = (len(display_masks(self.n_source)) + 3) // 4
        value = int(self.bit_string(), 2)
        return format(value, f"0{width}x")

    @classmethod
    def from_display_bits(cls, bits) -> "ProjPoint":
        bits = tuple(int(b) for b in bits)
        if set(bits) - {0, 1}:
            raise ValueError("display coordinates must be 0 or 1")
        size = len(bits)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError("display length must be a power of two")
        packed = 0
        for b, m in zip(bits, display_masks(n)):
            if b:
                packed |= 1 << m
        return cls(n, packed)

    @classmethod
    def from_string(cls, n_qubits: int, text: str) -> "ProjPoint":
        """Parse a display bit string ("0010"), colon form ("[0:0:1:0]") or
        hex ("0x4", ASCII hex digits only)."""
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
        return cls.from_display_bits(int(c) for c in bitstr)


@lru_cache(maxsize=None)
def _contraction(n_qubits: int) -> tuple[int, tuple[tuple[int, str], ...]]:
    """Each constraint's key K (the meet of its terms K | p_i), as a mask and
    with its message: bit K of the contraction with omega (``omega_masks``)
    is the sum of the constraint's terms."""
    named = tuple((reduce(int.__and__, c.term_keys), f"input violates isotropy constraint {c}")
                  for c in lagrangian_constraints(n_qubits))
    return sum(1 << k for k, _ in named), named


def project(v: PlueckerVec) -> ProjPoint:
    """Keep the principal-minor coordinates of a Plucker vector.

    The input must satisfy the isotropy constraints; a resulting zero
    vector signals a point off the Lagrangian locus and is rejected.
    """
    n, t = v.n_qubits, v.table
    targets, named = _contraction(n)
    s = 0
    for p, m in omega_masks(n):
        s ^= (t & m) >> p
    if s & targets:
        raise ValueError(next(msg for k, msg in named if s >> k & 1))
    # the key of subset m is (m + 1) * step: one slice reads them all, high m first
    step = (1 << n) - 1
    bits = int(format(t, f"0{1 << 2 * n}b")[-1 - (step << n):-1:step], 2)
    if bits == 0:
        raise ValueError("all principal coordinates vanish: input not Lagrangian")
    return ProjPoint(n, bits)


@lru_cache(maxsize=None)
def _observable_tables(n_qubits: int) -> tuple[tuple[int, ...], ...]:
    """The display order as byte tables: entry [b][v] has bit j set for each
    bit k of v with display_masks(N)[j] == 8b + k."""
    pos = {m: j for j, m in enumerate(display_masks(n_qubits))}
    low = range(min(8, len(pos)))
    return tuple(tuple(sum(1 << pos[lo + k] for k in low if v >> k & 1) for v in range(256))
                 for lo in range(0, len(pos), 8))


def to_observable(p: ProjPoint) -> PauliPoint:
    """Read the display coordinates as a Pauli operator on 2^(N-1) qubits:
    display coordinate j is bit j of the operator."""
    tables = enumerate(_observable_tables(p.n_source))
    return PauliPoint(1 << (p.n_source - 1), sum(t[p.bits >> 8 * b & 255] for b, t in tables))


def chart_matrix(p: ProjPoint) -> tuple[int, ...]:
    """The rows of the symmetric matrix A whose graph is the subspace of a
    chart point (empty-set coordinate = 1): a_ii from the singleton minors,
    a_ij = D_i D_j + D_ij."""
    n = p.n_source
    if not p.bits & 1:
        raise ValueError("not a chart point: empty-set coordinate is 0")
    rows = [0] * n
    for i in range(n):
        di = (p.bits >> (1 << i)) & 1
        if di:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            dj = (p.bits >> (1 << j)) & 1
            dij = (p.bits >> ((1 << i) | (1 << j))) & 1
            if (di & dj) ^ dij:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


Mat2 = tuple[tuple[int, int], tuple[int, int]]
Gate = tuple[int, int, int, int, int]

SWAP: Mat2 = ((0, 1), (1, 0))
LOWER: Mat2 = ((1, 0), (1, 1))


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


@lru_cache(maxsize=None)
def clifford_gates(n_qubits: int) -> tuple[Gate, ...]:
    """H_i for each qubit, then S_i, then CZ_ij (i < j):
    H_i: x_S <-> x_{S ^ {i}};  S_i: x_S += x_{S - {i}} for i in S;
    CZ_ij: x_S += x_{S - {i,j}} for {i,j} in S."""
    n = n_qubits
    singles = [1 << i for i in range(n)]
    pairs = [a | b for a, b in itertools.combinations(singles, 2)]
    return tuple([gate(n, 0, t, SWAP) for t in singles]
                 + [gate(n, 0, t, LOWER) for t in singles + pairs])


def to_chart(p: ProjPoint) -> tuple[int, ProjPoint]:
    """(T, H_T p) for the lowest subset T with x_T = 1.  H_T maps x_S to
    x_{S ^ T}; it is a product of local SWAP factors, so H_T p is a chart
    point of the same local orbit."""
    n = p.n_source
    t = (p.bits & -p.bits).bit_length() - 1
    bits = p.bits
    for i, h in enumerate(clifford_gates(n)[:n]):
        if t >> i & 1:
            bits = apply_gate(h, bits)
    return t, ProjPoint(n, bits)


def chart_points(n_qubits: int) -> list[int]:
    """Entry c is the chart point of the symmetric matrix A with code c,
    bit k of c the entry flipped by gate k of ``clifford_gates(n)[n:]``
    (a_ii by S_i, then a_ij = a_ji by CZ_ij).  One Gray-code walk from
    A = 0 (the point x_{} = 1) applies one gate per step."""
    gates = clifford_gates(n_qubits)[n_qubits:]
    points = [1] * (1 << len(gates))
    bits = 1
    for k in range(1, len(points)):
        bits = apply_gate(gates[(k & -k).bit_length() - 1], bits)
        points[k ^ k >> 1] = bits
    return points


@lru_cache(maxsize=None)
def lift_table(n_qubits: int) -> MappingProxyType[ProjPoint, Generator]:
    """Every image point with the unique generator projecting to it.

    Each image point is H_T q for one chart point q and the lowest subset T
    with x_T = 1, which H_T q has exactly when q vanishes on {S ^ T : S < T}.
    Its generator is the graph u_i = e_i + sum_j a_ij e_{N+j} of q's matrix
    A with the columns i <-> N+i exchanged for i in T, checked to project
    to the point; the table holds prod (2^i + 1) points in point order.
    """
    n = n_qubits
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"supported qubit range is 1..{MAX_QUBITS}")
    points = chart_points(n)
    e = len(points).bit_length() - 1
    hits = []  # bits << (e + N) | T << e | code, so that sorting puts them in point order
    for t in range(1 << n):
        below = sum(1 << (s ^ t) for s in range(t))
        hadamards = [h for i, h in enumerate(clifford_gates(n)[:n]) if t >> i & 1]
        for code in itertools.compress(range(len(points)), map(operator.not_, map(below.__and__, points))):
            q = points[code]
            for h in hadamards:
                q = apply_gate(h, q)
            hits.append(q << e + n | t << e | code)
    hits.sort()
    # the graph rows of A packed 2N bits apart; code bit k adds a_ij and a_ji,
    # so the rows are the XOR of one entry per code byte (e <= 15 for N <= 5)
    w = 2 * n
    flips = [1 << w * i + n + j | 1 << w * j + n + i
             for i, j in [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))]
    eye, spread = sum(1 << w * i + i for i in range(n)), sum(1 << w * i for i in range(n))
    lo, hi = [eye], [0]  # I plus the flips picked by code bits 0-7; by bits 8 and up
    for k, f in enumerate(flips):
        part = lo if k < 8 else hi
        part += [x ^ f for x in part]
    table = {}
    for hit in hits:
        t, code = hit >> e & (1 << n) - 1, hit & (1 << e) - 1
        r = lo[code & 255] ^ hi[code >> 8]
        d = (r ^ r >> n) & t * spread
        r ^= d ^ d << n
        g = Generator(n, [r >> w * i & (1 << w) - 1 for i in range(n)])
        p = project(embed(g))
        if p.bits != hit >> e + n:
            raise RuntimeError(f"lift table: {ProjPoint(n, hit >> e + n).display_str()} does not round-trip")
        table[p] = g
    if not len(hits) == len(table) == generator_count(n):
        raise RuntimeError(f"lift table: {len(table)} points from {len(hits)} hits,"
                           f" expected {generator_count(n)}")
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def image(n_qubits: int) -> tuple[ProjPoint, ...]:
    """The projected images of all generators, sorted; has the same
    cardinality as the generator list (the projection is injective)."""
    return tuple(lift_table(n_qubits))  # the table is built in point order


def lift(p: ProjPoint) -> Generator:
    """The unique generator projecting to ``p``."""
    try:
        return lift_table(p.n_source)[p]
    except KeyError:
        raise NotInImageError(f"{p.display_str()} is not in the image") from None
