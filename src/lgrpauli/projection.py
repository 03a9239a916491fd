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
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .gf2 import BinMat, minor
from .pauli import BITS_LETTER, MAX_QUBITS, Generator, PauliPoint
from .pluecker import LinearConstraint, PlueckerVec, SubsetIndex, embed, lagrangian_constraints


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


def principal_index(n_qubits: int, subset) -> SubsetIndex:
    """The Plucker index whose minor is the principal minor on I:
    ({1..N} minus I) together with {N+i : i in I}."""
    n = n_qubits
    if isinstance(subset, int):
        i_mask = subset
    else:
        i_mask = 0
        for j in subset:
            if not 1 <= j <= n:
                raise ValueError(f"subset element {j} out of range 1..{n}")
            i_mask |= 1 << (j - 1)
    full = (1 << n) - 1
    key = (full & ~i_mask) | (i_mask << n)
    return SubsetIndex.from_key(2 * n, key)


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

    def coord(self, subset) -> int:
        if isinstance(subset, int):
            m = subset
        else:
            m = sum(1 << (j - 1) for j in subset)
        return (self.bits >> m) & 1

    def display_bits(self) -> tuple[int, ...]:
        return tuple((self.bits >> m) & 1 for m in display_masks(self.n_source))

    @property
    def display_int(self) -> int:
        """Display-order coordinates packed with position k at bit k-1."""
        out = 0
        for k, m in enumerate(display_masks(self.n_source)):
            if (self.bits >> m) & 1:
                out |= 1 << k
        return out

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
        size = len(bits)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError("display length must be a power of two")
        packed = 0
        for b, m in zip(bits, display_masks(n)):
            if b & 1:
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
def _constraint_masks(n_qubits: int) -> tuple[tuple[int, LinearConstraint], ...]:
    """Each isotropy constraint with the mask of its terms' coordinates."""
    return tuple((sum(1 << k for k in c.term_keys), c) for c in lagrangian_constraints(n_qubits))


def project(v: PlueckerVec) -> ProjPoint:
    """Keep the principal-minor coordinates of a Plucker vector.

    The input must satisfy the isotropy constraints; a resulting zero
    vector signals a point off the Lagrangian locus and is rejected.
    """
    n = v.n_qubits
    for mask, c in _constraint_masks(n):
        if (v.table & mask).bit_count() & 1:
            raise ValueError(f"input violates isotropy constraint {c}")
    full = (1 << n) - 1
    bits = 0
    for m in range(1 << n):
        key = (full & ~m) | (m << n)
        if (v.table >> key) & 1:
            bits |= 1 << m
    if bits == 0:
        raise ValueError("all principal coordinates vanish: input not Lagrangian")
    return ProjPoint(n, bits)


def to_observable(p: ProjPoint) -> PauliPoint:
    """Read the display coordinates as a Pauli operator on 2^(N-1) qubits."""
    db = p.display_bits()
    m = len(db) // 2
    letters = "".join(BITS_LETTER[(db[k], db[k + m])] for k in range(m))
    return PauliPoint.from_label(letters)


@dataclass(frozen=True)
class ChartMatrix:
    """The symmetric matrix whose graph is a chart point's subspace."""

    n: int
    entries: BinMat

    def __post_init__(self):
        if self.entries.nrows != self.n or self.entries.cols != self.n:
            raise ValueError("chart matrix must be N x N")
        if self.entries != self.entries.transpose():
            raise ValueError("chart matrix must be symmetric")

    def principal_minor(self, subset) -> int:
        idx = sorted(subset)
        return minor(self.entries, idx, idx)


def chart_matrix(p: ProjPoint) -> ChartMatrix:
    """Reconstruct A from a chart point (empty-set coordinate = 1):
    a_ii from the singleton minors, a_ij = D_i D_j + D_ij."""
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
    return ChartMatrix(n, BinMat(n, tuple(rows)))


def chart_generator(p: ProjPoint, swap: int = 0) -> Generator:
    """The generator spanned by u_i = e_i + sum_j a_ij e_{N+j}, with the
    columns i <-> N+i exchanged for i in the subset mask ``swap``."""
    a = chart_matrix(p)
    n = p.n_source
    rows = []
    for i in range(n):
        r = (1 << i) | (a.entries.rows[i] << n)
        d = (r ^ (r >> n)) & swap
        rows.append(r ^ d ^ (d << n))
    return Generator.from_basis(BinMat(2 * n, tuple(rows)), n)


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


@lru_cache(maxsize=None)
def lift_table(n_qubits: int) -> MappingProxyType[ProjPoint, Generator]:
    """Every image point with the unique generator projecting to it.

    The image is the orbit of the point x_{} = 1 under the Clifford gates.
    Each point p is swap-lifted: the chart generator of H_T p with columns
    T swapped back, checked to project to p.
    """
    n = n_qubits
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"supported qubit range is 1..{MAX_QUBITS}")
    gates = clifford_gates(n)
    seen, frontier = {1}, {1}
    while frontier:
        frontier = {apply_gate(g, v) for v in frontier for g in gates} - seen
        seen |= frontier
    table = {}
    for bits in sorted(seen):
        p = ProjPoint(n, bits)
        t, q = to_chart(p)
        g = chart_generator(q, swap=t)
        if project(embed(g)) != p:
            raise RuntimeError(f"lift table: {p.display_str()} does not round-trip")
        table[p] = g
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
