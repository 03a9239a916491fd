"""The local-operations group acting on the principal-minor space, its
orbit stratification, and the two rank invariants.

The group is one copy of GL(2,2) per tensor axis, extended by axis
permutations, and is generated by the gates of ``projection.local_gates``.
It acts linearly on the 2^N coordinates (indexed by subsets of {1..N}),
preserves the projected image, and preserves both the tensor rank and the
exclusive rank, which is what makes the orbit classification of commuting
families meaningful.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .gf2 import Gate, apply_gate, byte_tables, rank
from .pauli import PauliPoint, _require_qubits, _Value
from .projection import NotInImageError, ProjPoint, _image_bits, lift, local_gates, to_observable


class MixedOrbitError(RuntimeError):
    """An orbit met the image without being contained in it; this would
    contradict invariance of the image under the group."""


def _generator_pair(n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """Two elements generating the local group, as gate sequences applied
    in turn: a = H_1, S_1, then the axis swap 1 <-> 2; b = H_1, then every
    adjacent axis swap in order, which cycles the axes."""
    g = local_gates(n)
    return (g[0], g[n], g[2 * n]), (g[0], *g[2 * n:])


@lru_cache(maxsize=None)
def _orbit_data(n: int) -> tuple[bytes, list[tuple[int, int]]]:
    """(orbit id of each point, (size, least member) of each orbit), ids
    ordered by (size, least member); each orbit is a closure under
    _generator_pair.

    The ids are one byte per point of the 2^(2^N) (at most 29 orbits), 255
    for point 0.  An orbit's least member is its search start, as starts
    ascend."""
    _require_qubits(n, 2, 4)
    size = 1 << (1 << n)
    # each element is linear, so a point's image is the XOR of the images
    # of its low and high bytes (points have at most 16 bits)
    (al, ah), (bl, bh) = [byte_tables([reduce(lambda v, h: apply_gate(h, v), seq, 1 << k) for k in range(16)])
                          for seq in _generator_pair(n)]
    oid = bytearray(b"\xff") * size  # 255: not reached yet
    raw = []
    start = 0
    while (start := oid.find(255, start + 1)) > 0:  # the least point not reached yet
        members = [start]
        oid[start] = k = len(raw)
        for v in members:  # grows while walked: each member is visited once
            w = al[v & 255] ^ ah[v >> 8]
            if oid[w] == 255:
                oid[w] = k
                members.append(w)
            w = bl[v & 255] ^ bh[v >> 8]
            if oid[w] == 255:
                oid[w] = k
                members.append(w)
        raw.append((len(members), start))
    order = sorted(range(len(raw)), key=raw.__getitem__)
    relabel = bytearray(range(256))  # new id by old; 255 stays
    for new, old in enumerate(order):
        relabel[old] = new
    return bytes(oid).translate(relabel), [raw[old] for old in order]


def t_rank(p: ProjPoint) -> int:
    """Minimal k with p a sum of k separable tensors (the T-rank of its
    orbit, read from the orbit's record)."""
    return orbit_of_point(p).t_rank


def e_rank(p: ProjPoint) -> int:
    """Minimal k such that every (k+1)x(k+1) minor on disjoint row/column
    sets of the chart matrix vanishes: the largest cut rank
    rank(pi_X L) - |X| of the lifted generator L over the cuts X, where
    pi_X keeps the columns i and N+i for i in X.  Local gates keep each cut
    rank, and on the graph rows e_i + sum_j a_ij e_{N+j} of a chart point
    the cut X has rank rank A[X^c, X]; a cut and its complement have equal
    rank, so the cuts omitting qubit N suffice."""
    try:
        n, rows = p.n_source, lift(p).rows
    except NotInImageError:
        raise ValueError("exclusive rank is defined only on the image") from None
    return max(rank([r & (x | x << n) for r in rows]) - x.bit_count() for x in range(1 << n - 1))


# Classification data for the known commuting classes: display-order
# representative, class label in the standard orbit numbering, observable,
# tensor/exclusive rank and orbit size; the rows label every image orbit.
CLASS_TABLE: dict[int, list[dict]] = {
    2: [
        {"label": "O1", "representative": "0010", "observable": "XI",
         "t_rank": 1, "e_rank": 0, "size": 9},
        {"label": "O2", "representative": "1010", "observable": "YI",
         "t_rank": 2, "e_rank": 1, "size": 6},
    ],
    3: [
        {"label": "O1", "representative": "00001000", "observable": "XIII",
         "t_rank": 1, "e_rank": 0, "size": 27},
        {"label": "O2", "representative": "00010010", "observable": "IIXZ",
         "t_rank": 2, "e_rank": 1, "size": 54},
        {"label": "O4", "representative": "00010110", "observable": "IXXZ",
         "t_rank": 3, "e_rank": 1, "size": 54},
    ],
    4: [
        {"label": "O2", "representative": "0000000010000000",
         "observable": "XIIIIIII", "t_rank": 1, "e_rank": 0, "size": 81},
        {"label": "O3", "representative": "0000000001100000",
         "observable": "IXXIIIII", "t_rank": 2, "e_rank": 1, "size": 324},
        {"label": "O6", "representative": "0000000001101000",
         "observable": "IXXIXIII", "t_rank": 3, "e_rank": 1, "size": 648},
        {"label": "O14", "representative": "0000000101101000",
         "observable": "IXXIXIIZ", "t_rank": 4, "e_rank": 1, "size": 162},
        {"label": "O17", "representative": "0000011000000110",
         "observable": "IIIIIYYI", "t_rank": 4, "e_rank": 2, "size": 108},
        {"label": "O18", "representative": "0000011010000110",
         "observable": "XIIIIYYI", "t_rank": 4, "e_rank": 2, "size": 972},
    ],
}

# Labels of the non-image orbits that are determined by size alone.
_NON_IMAGE_LABELS = {3: {108: "O3", 12: "O5"}}


class OrbitRecord(_Value):
    __slots__ = ("orbit_id", "size", "representative", "in_image", "t_rank", "e_rank", "observable",
                 "reference_label")


def _class_points(n: int) -> list[tuple[dict, ProjPoint]]:
    """Each ``CLASS_TABLE`` row of N with its parsed representative."""
    return [(row, ProjPoint.from_string(n, row["representative"])) for row in CLASS_TABLE.get(n, ())]


@lru_cache(maxsize=None)
def orbit_partition(n: int) -> tuple[OrbitRecord, ...]:
    """Every nonzero point assigned to exactly one orbit; orbits sorted by
    (size, canonical representative) and numbered from 1.

    An orbit's T-rank is the minimal number of separable tensors summing to
    its points, found by a layered search over orbit ids.  The 3^N
    separable tensors are the products of one factor (1, 0), (0, 1) or
    (1, 1) per axis; GL(2,2) is transitive on the nonzero vectors of
    GF(2)^2, so they are the orbit of x_{} = 1.  Each set {T-rank <= k} is
    a union of orbits, and for o = g.rep, o + s = g.(rep + g^-1 s) with
    g^-1 s separable again, so the orbits one separable step from an orbit
    are those of rep + s over the separable s, read from its least
    member."""
    assign, orbits = _orbit_data(n)
    hits = [0] * len(orbits)  # image points per orbit
    for b in _image_bits(n):
        hits[assign[b]] += 1
    seps = [1]  # the products over the axes below i; axis i is bit i of the subset masks
    for i in range(n):
        seps = [u for t in seps for u in (t, t << (1 << i), t | t << (1 << i))]
    trank = [0] * len(orbits)
    frontier = {assign[1]}
    depth = 1
    while frontier:
        for o in frontier:
            trank[o] = depth
        depth += 1
        reached = {assign[w] for o in frontier for s in seps if (w := orbits[o][1] ^ s)}
        frontier = {o for o in reached if not trank[o]}
    ref_labels = {assign[p.bits]: row["label"] for row, p in _class_points(n)}
    records = []
    for i, (size, least) in enumerate(orbits):
        rep = ProjPoint(n, least)
        hit = hits[i]
        if 0 < hit < size:
            raise MixedOrbitError(
                f"orbit {i + 1} meets the image in {hit} of {size} points"
            )
        inside = hit > 0
        label = ref_labels.get(i)
        if label is None:
            label = _NON_IMAGE_LABELS.get(n, {}).get(size)
        records.append(OrbitRecord(i + 1, size, rep, inside, trank[i], e_rank(rep) if inside else None,
                                   to_observable(rep).label() if inside else None, label))
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
    refs = {row["label"]: p for row, p in _class_points(n)}  # matched to orbits by ``orbit_partition``
    rows = []
    for rec in classify_image(n):
        ref_rep = refs[rec.reference_label]
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
