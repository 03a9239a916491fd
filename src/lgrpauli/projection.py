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

from .gf2 import LOWER, SWAP, Gate, Tables, apply_gate, apply_tables, byte_tables, gate
from .pauli import MAX_QUBITS, Generator, PauliPoint, generator_count, omega_masks
from .pluecker import PlueckerVec, embed, lagrangian_constraints


class NotInImageError(ValueError):
    """Raised when a point has no preimage among the generators."""


@lru_cache(maxsize=None)
def display_masks(n_qubits: int) -> tuple[int, ...]:
    """Internal subset masks in display order (length 2^N)."""
    n = n_qubits
    # the N-1 bits of d, reversed, are elements 2..N
    first = [int(format(d, f"0{n - 1}b")[::-1], 2) << 1 for d in range(1 << n - 1)]
    full = (1 << n) - 1
    return tuple(first + [full ^ m for m in first])


@lru_cache(maxsize=None)
def _display_order(n_qubits: int) -> tuple[Tables, Tables]:
    """The display order as byte tables of a bit permutation, moving the
    coordinate of display_masks(N)[j] to bit j, and of its inverse."""
    masks = display_masks(n_qubits)
    positions = sorted(range(len(masks)), key=masks.__getitem__)  # the inverse permutation
    return byte_tables([1 << j for j in positions]), byte_tables([1 << m for m in masks])


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
        return tuple(map(int, self.bit_string()))

    def display_str(self) -> str:
        return "[" + ":".join(self.bit_string()) + "]"

    def bit_string(self) -> str:
        # display coordinate j is bit j of the permuted int, so it is read reversed
        n = self.n_source
        return format(apply_tables(_display_order(n)[0], self.bits), f"0{1 << n}b")[::-1]

    def hex_string(self) -> str:
        width = ((1 << self.n_source) + 3) // 4
        return format(int(self.bit_string(), 2), f"0{width}x")

    @classmethod
    def from_display_bits(cls, bits) -> "ProjPoint":
        bits = tuple(int(b) for b in bits)
        if set(bits) - {0, 1}:
            raise ValueError("display coordinates must be 0 or 1")
        size = len(bits)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError("display length must be a power of two")
        return cls(n, apply_tables(_display_order(n)[1], sum(b << j for j, b in enumerate(bits))))

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
        return cls(n_qubits, apply_tables(_display_order(n_qubits)[1], int(bitstr[::-1], 2)))


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


def to_observable(p: ProjPoint) -> PauliPoint:
    """Read the display coordinates as a Pauli operator on 2^(N-1) qubits:
    display coordinate j is bit j of the operator."""
    return PauliPoint(1 << (p.n_source - 1), apply_tables(_display_order(p.n_source)[0], p.bits))


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


@lru_cache(maxsize=None)
def _hadamard(n_qubits: int, t: int) -> Tables:
    """H_T = prod_{i in T} H_i as byte tables: it maps x_S to x_{S ^ T}."""
    return byte_tables([1 << (m ^ t) for m in range(1 << n_qubits)])


def to_chart(p: ProjPoint) -> tuple[int, ProjPoint]:
    """(T, H_T p) for the lowest subset T with x_T = 1.  H_T is a product
    of local SWAP factors, so H_T p is a chart point of the same local
    orbit."""
    t = (p.bits & -p.bits).bit_length() - 1
    return t, ProjPoint(p.n_source, apply_tables(_hadamard(p.n_source, t), p.bits))


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
        h = _hadamard(n, t)
        for code in itertools.compress(range(len(points)), map(operator.not_, map(below.__and__, points))):
            hits.append(apply_tables(h, points[code]) << e + n | t << e | code)
    hits.sort()
    # the graph rows of A packed 2N bits apart: I plus a linear map of the
    # code, whose bit k flips a_ij and a_ji
    w = 2 * n
    decode = byte_tables([1 << w * i + n + j | 1 << w * j + n + i
                          for i, j in [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))])
    eye, spread = sum(1 << w * i + i for i in range(n)), sum(1 << w * i for i in range(n))
    table = {}
    for hit in hits:
        t, code = hit >> e & (1 << n) - 1, hit & (1 << e) - 1
        r = eye ^ apply_tables(decode, code)
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
