"""The local-operations group acting on the principal-minor space, its
orbit stratification, and the two rank invariants.

The group is one copy of GL(2,2) per tensor axis, extended by axis
permutations.  It acts linearly on the 2^N coordinates (indexed by subsets
of {1..N}), preserves the projected image, and preserves both the tensor
rank and the exclusive rank, which is what makes the orbit classification
of commuting families meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .gf2 import minor
from .pauli import PauliPoint
from .projection import (
    SWAP,
    Gate,
    Mat2,
    ProjPoint,
    apply_gate,
    chart_matrix,
    display_masks,
    gate,
    image,
    lift,
    lift_table,
    to_chart,
    to_observable,
)

SHEAR: Mat2 = ((1, 1), (0, 1))


class MixedOrbitError(RuntimeError):
    """An orbit met the image without being contained in it; this would
    contradict invariance of the image under the group."""


@dataclass(frozen=True)
class GroupElem:
    """An element (M_1, ..., M_N; perm): one invertible 2x2 factor per axis
    followed by an axis permutation.  ``perm[j-1]`` is the image of axis j."""

    n: int
    factors: tuple[Mat2, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) != self.n or sorted(self.perm) != list(range(1, self.n + 1)):
            raise ValueError("need N factors and a permutation of 1..N")
        for m in self.factors:
            a, b = m[0]
            c, d = m[1]
            if (a & d) ^ (b & c) != 1:
                raise ValueError(f"factor {m} is singular over GF(2)")

    @classmethod
    def identity(cls, n: int) -> "GroupElem":
        eye: Mat2 = ((1, 0), (0, 1))
        return cls(n, (eye,) * n, tuple(range(1, n + 1)))

    @classmethod
    def axis_op(cls, n: int, axis: int, mat: Mat2) -> "GroupElem":
        e = cls.identity(n)
        factors = list(e.factors)
        factors[axis - 1] = mat
        return cls(n, tuple(factors), e.perm)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "GroupElem":
        e = cls.identity(n)
        perm = list(e.perm)
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
        return cls(n, e.factors, tuple(perm))

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        """Composition so that act(g * h, p) == act(g, act(h, p))."""
        if self.n != other.n:
            raise ValueError("axis count mismatch")

        def mul2(x: Mat2, y: Mat2) -> Mat2:
            return tuple(
                tuple(
                    (x[i][0] & y[0][j]) ^ (x[i][1] & y[1][j]) for j in range(2)
                )
                for i in range(2)
            )  # type: ignore[return-value]

        factors = tuple(
            mul2(self.factors[other.perm[j] - 1], other.factors[j])
            for j in range(self.n)
        )
        perm = tuple(self.perm[other.perm[j] - 1] for j in range(self.n))
        return GroupElem(self.n, factors, perm)


@lru_cache(maxsize=None)
def _elem_gates(g: GroupElem) -> tuple[Gate, ...]:
    """``g`` as gates: each factor on its axis, then the axis
    permutation as adjacent transpositions of axes k, k+1."""
    n = g.n
    gates = [gate(n, 0, 1 << j, m) for j, m in enumerate(g.factors)]
    dest = [d - 1 for d in g.perm]  # dest[k]: final axis of the content of axis k
    for end in range(n - 1, 0, -1):  # bubble sort: one transposition per swap
        for k in range(end):
            if dest[k] > dest[k + 1]:
                dest[k], dest[k + 1] = dest[k + 1], dest[k]
                gates.append(gate(n, 1 << k, 2 << k, SWAP))
    return tuple(gates)


def _apply_elem(g: GroupElem, bits: int) -> int:
    for gt in _elem_gates(g):
        bits = apply_gate(gt, bits)
    return bits


def act(g: GroupElem, p: ProjPoint) -> ProjPoint:
    """Apply each 2x2 factor along its tensor axis, then permute the axes."""
    if g.n != p.n_source:
        raise ValueError("dimension mismatch")
    return ProjPoint(p.n_source, _apply_elem(g, p.bits))


@lru_cache(maxsize=None)
def group_generators(n: int) -> tuple[GroupElem, ...]:
    """A small involutive generator set: shear and swap on each axis plus
    the adjacent transpositions."""
    gens = []
    for axis in range(1, n + 1):
        gens.append(GroupElem.axis_op(n, axis, SHEAR))
        gens.append(GroupElem.axis_op(n, axis, SWAP))
    for axis in range(1, n):
        gens.append(GroupElem.transposition(n, axis, axis + 1))
    return tuple(gens)


def group_order(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return 6**n * out


@lru_cache(maxsize=None)
def _display_rows(n: int, g: GroupElem) -> list[int]:
    """Row masks of the action matrix in display coordinates (1-based rows;
    row a holds the variables substituted for x_a)."""
    disp = display_masks(n)
    pos = {m: i + 1 for i, m in enumerate(disp)}
    rows = [0] * (len(disp) + 1)
    for c_idx, c_mask in enumerate(disp):
        col = _apply_elem(g, 1 << c_mask)
        while col:
            a_mask = (col & -col).bit_length() - 1
            col &= col - 1
            rows[pos[a_mask]] |= 1 << c_idx
    return rows


@lru_cache(maxsize=None)
def _orbit_data(n: int) -> tuple[list[int], list[list[int]]]:
    """(assignment point -> orbit id, orbit member lists), ids ordered by
    (size, minimal member)."""
    if not 2 <= n <= 4:
        raise ValueError("orbit partition supports 2 <= N <= 4")
    size = 1 << (1 << n)
    # the action is linear, so a point's image is the XOR of the images of
    # its low and high bytes
    tables = [([_apply_elem(g, x) for x in range(min(size, 256))],
               [_apply_elem(g, x << 8) for x in range(max(1, size >> 8))])
              for g in group_generators(n)]
    oid = [-1] * size
    raw: list[list[int]] = []
    for start in range(1, size):
        if oid[start] >= 0:
            continue
        members = [start]
        oid[start] = len(raw)
        stack = [start]
        while stack:
            v = stack.pop()
            lo8 = v & 255
            hi8 = v >> 8
            for tl, th in tables:
                w = tl[lo8] ^ th[hi8]
                if oid[w] < 0:
                    oid[w] = len(raw)
                    members.append(w)
                    stack.append(w)
        raw.append(members)
    order = sorted(range(len(raw)), key=lambda i: (len(raw[i]), min(raw[i])))
    relabel = {old: new for new, old in enumerate(order)}
    assign = [relabel[x] if x >= 0 else -1 for x in oid]
    orbits = [sorted(raw[old]) for old in order]
    return assign, orbits


@lru_cache(maxsize=None)
def _separable_vectors(n: int) -> tuple[int, ...]:
    vecs = [1]
    for axis in range(n):
        shift = 1 << axis
        nxt = []
        for v in vecs:
            nxt.append(v)               # (1,0) on this axis
            nxt.append(v << shift)      # (0,1)
            nxt.append(v | (v << shift))  # (1,1)
        vecs = nxt
    return tuple(sorted(set(vecs)))


@lru_cache(maxsize=None)
def _orbit_t_ranks(n: int) -> list[int]:
    """T-rank of each orbit id: the minimal number of separable tensors
    summing to its points, by a layered search over orbit ids.

    The separable set and each set {T-rank <= k} are unions of orbits, and
    for o = g.rep, o + s = g.(rep + g^-1 s) with g^-1 s separable again, so
    the orbits one separable step from an orbit are those of rep + s over
    the separable s, read from one representative."""
    assign, orbits = _orbit_data(n)
    seps = _separable_vectors(n)
    ranks = [0] * len(orbits)
    frontier = {assign[s] for s in seps}
    rank = 1
    while frontier:
        for o in frontier:
            ranks[o] = rank
        rank += 1
        reached = {assign[w] for o in frontier for s in seps if (w := orbits[o][0] ^ s)}
        frontier = {o for o in reached if not ranks[o]}
    return ranks


def t_rank(p: ProjPoint) -> int:
    """Minimal k with p a sum of k separable tensors (the T-rank of its
    orbit)."""
    n = p.n_source
    if not 2 <= n <= 4:
        raise ValueError("tensor rank supports 2 <= N <= 4")
    assign, _ = _orbit_data(n)
    return _orbit_t_ranks(n)[assign[p.bits]]


def _exclusive_minors_vanish(a, k: int) -> bool:
    n = a.n
    if 2 * k > n:
        return True
    for i_set in itertools.combinations(range(1, n + 1), k):
        rest = [j for j in range(1, n + 1) if j not in i_set]
        for j_set in itertools.combinations(rest, k):
            if j_set < i_set:
                continue  # symmetric matrix: unordered pairs suffice
            if minor(a.entries, i_set, j_set):
                return False
    return True


def _e_rank_of_chart(a) -> int:
    for k in range(a.n + 1):
        if _exclusive_minors_vanish(a, k + 1):
            return k
    raise AssertionError("unreachable: top exclusive minors are vacuous")


def e_rank(p: ProjPoint) -> int:
    """Minimal k such that every (k+1)x(k+1) minor on disjoint row/column
    sets of the chart matrix vanishes; an off-chart point is first carried
    to a chart point of its orbit by ``to_chart``."""
    if p not in lift_table(p.n_source):
        raise ValueError("exclusive rank is defined only on the image")
    _, q = to_chart(p)
    return _e_rank_of_chart(chart_matrix(q))


# Classification data for the known commuting classes: display-order
# representative, class label in the standard orbit numbering, observable,
# tensor/exclusive rank, orbit size, and a spanning commuting set.
CLASS_TABLE: dict[int, list[dict]] = {
    2: [
        {"label": "O1", "representative": "0010", "observable": "XI",
         "t_rank": 1, "e_rank": 0, "size": 9, "ops": ("XI", "IX")},
        {"label": "O2", "representative": "1010", "observable": "YI",
         "t_rank": 2, "e_rank": 1, "size": 6, "ops": ("ZX", "XZ")},
    ],
    3: [
        {"label": "O1", "representative": "00001000", "observable": "XIII",
         "t_rank": 1, "e_rank": 0, "size": 27, "ops": ("XII", "IXI", "IIX")},
        {"label": "O2", "representative": "00010010", "observable": "IIXZ",
         "t_rank": 2, "e_rank": 1, "size": 54, "ops": ("ZZI", "XXI", "IIX")},
        {"label": "O4", "representative": "00010110", "observable": "IXXZ",
         "t_rank": 3, "e_rank": 1, "size": 54, "ops": ("XIX", "IXX", "ZZZ")},
    ],
    4: [
        {"label": "O2", "representative": "0000000010000000",
         "observable": "XIIIIIII", "t_rank": 1, "e_rank": 0, "size": 81,
         "ops": ("XIII", "IXII", "IIXI", "IIIX")},
        {"label": "O3", "representative": "0000000001100000",
         "observable": "IXXIIIII", "t_rank": 2, "e_rank": 1, "size": 324,
         "ops": ("XIII", "IXII", "IIZZ", "IIYY")},
        {"label": "O6", "representative": "0000000001101000",
         "observable": "IXXIXIII", "t_rank": 3, "e_rank": 1, "size": 648,
         "ops": ("XIII", "IZZZ", "IYYZ", "IYZY")},
        {"label": "O14", "representative": "0000000101101000",
         "observable": "IXXIXIIZ", "t_rank": 4, "e_rank": 1, "size": 162,
         "ops": ("ZYYY", "YZYY", "YYZY", "YYYZ")},
        {"label": "O17", "representative": "0000011000000110",
         "observable": "IIIIIYYI", "t_rank": 4, "e_rank": 2, "size": 108,
         "ops": ("XXII", "ZZII", "IIZZ", "IIYY")},
        {"label": "O18", "representative": "0000011010000110",
         "observable": "XIIIIYYI", "t_rank": 4, "e_rank": 2, "size": 972,
         "ops": ("XIZZ", "IXZZ", "ZZXI", "ZZIX")},
    ],
}

# Labels of the non-image orbits that are determined by size alone.
_NON_IMAGE_LABELS = {3: {108: "O3", 12: "O5"}}


@dataclass(frozen=True)
class OrbitRecord:
    orbit_id: int
    size: int
    representative: ProjPoint
    in_image: bool
    t_rank: int
    e_rank: Optional[int]
    observable: Optional[str]
    reference_label: Optional[str]


@lru_cache(maxsize=None)
def orbit_partition(n: int) -> tuple[OrbitRecord, ...]:
    """Every nonzero point assigned to exactly one orbit; orbits sorted by
    (size, canonical representative) and numbered from 1."""
    assign, orbits = _orbit_data(n)
    img = {p.bits for p in image(n)}
    trank = _orbit_t_ranks(n)
    ref_by_bits = {}
    for row in CLASS_TABLE.get(n, ()):
        p = ProjPoint.from_string(n, row["representative"])
        ref_by_bits[assign[p.bits]] = row["label"]
    records = []
    for i, members in enumerate(orbits):
        rep = ProjPoint(n, members[0])
        inside = members[0] in img
        hit = sum(1 for v in members if v in img)
        if 0 < hit < len(members):
            raise MixedOrbitError(
                f"orbit {i + 1} meets the image in {hit} of {len(members)} points"
            )
        label = ref_by_bits.get(i)
        if label is None and not inside:
            label = _NON_IMAGE_LABELS.get(n, {}).get(len(members))
        records.append(
            OrbitRecord(
                orbit_id=i + 1,
                size=len(members),
                representative=rep,
                in_image=inside,
                t_rank=trank[i],
                e_rank=e_rank(rep) if inside else None,
                observable=to_observable(rep).label() if inside else None,
                reference_label=label,
            )
        )
    return tuple(records)


def classify_image(n: int) -> tuple[OrbitRecord, ...]:
    """The orbits making up the projected image (whole-orbit containment is
    enforced by orbit_partition)."""
    return tuple(r for r in orbit_partition(n) if r.in_image)


def orbit_members(n: int, orbit_id: int) -> list[ProjPoint]:
    _, orbits = _orbit_data(n)
    return [ProjPoint(n, v) for v in orbits[orbit_id - 1]]


def orbit_of_point(p: ProjPoint) -> OrbitRecord:
    assign, _ = _orbit_data(p.n_source)
    return orbit_partition(p.n_source)[assign[p.bits]]


def emit_tables(n: int) -> list[dict]:
    """Rows describing each image class: ids, sizes, representatives,
    observable, both ranks, and a sample maximal commuting set."""
    rows = []
    refs = {}
    for row in CLASS_TABLE.get(n, ()):
        p = ProjPoint.from_string(n, row["representative"])
        refs[orbit_of_point(p).orbit_id] = p
    for rec in classify_image(n):
        ref_rep = refs.get(rec.orbit_id, rec.representative)
        g = lift(ref_rep)
        sample = [PauliPoint.from_bits(n, r).label() for r in g.basis.rows]
        rows.append(
            {
                "orbit_id": rec.orbit_id,
                "reference_label": rec.reference_label,
                "size": rec.size,
                "representative_bits": rec.representative.bit_string(),
                "reference_representative_bits": ref_rep.bit_string(),
                "observable": to_observable(ref_rep).label(),
                "t_rank": rec.t_rank,
                "e_rank": rec.e_rank,
                "sample_commuting_set": sample,
            }
        )
    return rows
