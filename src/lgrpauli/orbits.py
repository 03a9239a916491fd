"""The local-operations group acting on the principal-minor space, its
orbit stratification, and the two rank invariants.

The group is one copy of GL(2,2) per tensor axis, extended by axis
permutations, and is generated by the gates of :func:`local_gates`.  It
acts linearly on the 2^N coordinates (indexed by subsets of {1..N}),
preserves the projected image, and preserves both the tensor rank and the
exclusive rank, which is what makes the orbit classification of commuting
families meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

from .gf2 import minor
from .pauli import PauliPoint
from .projection import (
    SWAP,
    Gate,
    ProjPoint,
    apply_gate,
    chart_matrix,
    clifford_gates,
    gate,
    image,
    lift,
    lift_table,
    to_chart,
    to_observable,
)


class MixedOrbitError(RuntimeError):
    """An orbit met the image without being contained in it; this would
    contradict invariance of the image under the group."""


@lru_cache(maxsize=None)
def local_gates(n: int) -> tuple[Gate, ...]:
    """Generators of the local group as gates: H_i and S_i on each axis
    (SWAP and LOWER generate GL(2,2)), then the adjacent axis swaps
    k <-> k+1.  Each is an involution."""
    return clifford_gates(n)[:2 * n] + tuple(gate(n, 1 << k, 2 << k, SWAP) for k in range(n - 1))


def _generator_pair(n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """Two elements generating the local group, as gate sequences applied
    in turn: a = H_1, S_1, then the axis swap 1 <-> 2; b = H_1, then every
    adjacent axis swap in order, which cycles the axes."""
    g = local_gates(n)
    return (g[0], g[n], g[2 * n]), (g[0], *g[2 * n:])


@lru_cache(maxsize=None)
def _orbit_data(n: int) -> tuple[list[int], list[list[int]]]:
    """(assignment point -> orbit id, orbit member lists), ids ordered by
    (size, minimal member); each orbit is a closure under _generator_pair."""
    if not 2 <= n <= 4:
        raise ValueError("orbit partition supports 2 <= N <= 4")
    size = 1 << (1 << n)
    # each element is linear, so a point's image is the XOR of the images
    # of its low and high bytes
    (al, ah), (bl, bh) = [
        ([reduce(lambda v, h: apply_gate(h, v), seq, x) for x in range(min(size, 256))],
         [reduce(lambda v, h: apply_gate(h, v), seq, x << 8) for x in range(max(1, size >> 8))])
        for seq in _generator_pair(n)]
    oid = [-1] * size
    raw: list[list[int]] = []
    for start in range(1, size):
        if oid[start] >= 0:
            continue
        members = [start]
        oid[start] = k = len(raw)
        for v in members:  # grows while walked: each member is visited once
            w = al[v & 255] ^ ah[v >> 8]
            if oid[w] < 0:
                oid[w] = k
                members.append(w)
            w = bl[v & 255] ^ bh[v >> 8]
            if oid[w] < 0:
                oid[w] = k
                members.append(w)
        raw.append(members)
    # starts ascend, so each orbit's start is its minimal member
    order = sorted(range(len(raw)), key=lambda i: (len(raw[i]), raw[i][0]))
    relabel = sorted(range(len(raw)), key=order.__getitem__) + [-1]  # new id by old; -1 stays
    assign = list(map(relabel.__getitem__, oid))
    orbits = [sorted(raw[old]) for old in order]
    return assign, orbits


@lru_cache(maxsize=None)
def _orbit_t_ranks(n: int) -> list[int]:
    """T-rank of each orbit id: the minimal number of separable tensors
    summing to its points, by a layered search over orbit ids.

    GL(2,2) is transitive on the nonzero vectors of GF(2)^2, so the 3^N
    separable tensors are the orbit of x_{} = 1.  Each set {T-rank <= k} is
    a union of orbits, and for o = g.rep, o + s = g.(rep + g^-1 s) with
    g^-1 s separable again, so the orbits one separable step from an orbit
    are those of rep + s over the separable s, read from one
    representative."""
    assign, orbits = _orbit_data(n)
    seps = orbits[assign[1]]
    ranks = [0] * len(orbits)
    frontier = {assign[1]}
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


def _exclusive_minors_vanish(a: tuple[int, ...], k: int) -> bool:
    n = len(a)
    if 2 * k > n:
        return True
    for i_set in itertools.combinations(range(1, n + 1), k):
        rest = [j for j in range(1, n + 1) if j not in i_set]
        for j_set in itertools.combinations(rest, k):
            if j_set < i_set:
                continue  # symmetric matrix: unordered pairs suffice
            if minor(a, n, i_set, j_set):
                return False
    return True


def _e_rank_of_chart(a: tuple[int, ...]) -> int:
    for k in range(len(a) + 1):
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
        sample = [PauliPoint(n, r).label() for r in g.rows]
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
