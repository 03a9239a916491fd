"""Reference implementations of the orbit invariants, kept for the tests to
compare against: each computes its invariant point by point, without the
orbit partition's per-orbit records.  The exclusive-minor E-rank reads the
chart matrix through ``to_chart`` and takes its minors with ``minor``."""

import itertools
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from lgrpauli.gf2 import apply_gate, apply_tables, byte_tables, rank
from lgrpauli.orbits import _generator_pair, _orbit_data
from lgrpauli.projection import ProjPoint, _image_bits, lift, local_gates

# A commuting set that maps into each class of ``orbits.CLASS_TABLE``, by N
# and class label.
CLASS_SAMPLE_SETS: dict[int, dict[str, tuple[str, ...]]] = {
    2: {"O1": ("XI", "IX"), "O2": ("ZX", "XZ")},
    3: {"O1": ("XII", "IXI", "IIX"), "O2": ("ZZI", "XXI", "IIX"), "O4": ("XIX", "IXX", "ZZZ")},
    4: {
        "O2": ("XIII", "IXII", "IIXI", "IIIX"),
        "O3": ("XIII", "IXII", "IIZZ", "IIYY"),
        "O6": ("XIII", "IZZZ", "IYYZ", "IYZY"),
        "O14": ("ZYYY", "YZYY", "YYZY", "YYYZ"),
        "O17": ("XXII", "ZZII", "IIZZ", "IIYY"),
        "O18": ("XIZZ", "IXZZ", "ZZXI", "ZZIX"),
    },
}


def orbit_data_by_local_gates(n: int) -> tuple[bytes, list[tuple[int, int]]]:
    """(assignment, (size, least member) of each orbit) as ``_orbit_data``
    returns them, found by closing each point under all the gates of
    ``local_gates(n)``."""
    size = 1 << (1 << n)
    # the action is linear, so a point's image is the XOR of the images of
    # its low and high bytes
    tables = [([apply_gate(g, x) for x in range(min(size, 256))],
               [apply_gate(g, x << 8) for x in range(max(1, size >> 8))])
              for g in local_gates(n)]
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
    assign = bytes(relabel[x] if x >= 0 else 255 for x in oid)
    return assign, [(len(raw[old]), min(raw[old])) for old in order]


def image_orbits(n: int) -> list[list[int]]:
    """The orbits that the image points reach under the two elements of
    ``_generator_pair(n)``, each as its members' bits in the order reached,
    sorted by (size, least member).  Each element is tabulated by
    ``byte_tables`` over the 2^N unit vectors, and the closure starts from
    each image point not reached yet, so it works at N = 5, where
    ``_orbit_data``'s walk over all 2^(2^N) points does not."""
    tables = [byte_tables([reduce(lambda v, h: apply_gate(h, v), seq, 1 << k) for k in range(1 << n)])
              for seq in _generator_pair(n)]
    reached: set[int] = set()
    orbits = []
    for start in _image_bits(n):
        if start in reached:
            continue
        members = [start]
        reached.add(start)
        for v in members:  # grows while walked: each member is visited once
            for t in tables:
                if (w := apply_tables(t, v)) not in reached:
                    reached.add(w)
                    members.append(w)
        orbits.append(members)
    return sorted(orbits, key=lambda members: (len(members), min(members)))


@lru_cache(maxsize=None)
def separable_tensors(n: int) -> tuple[int, ...]:
    """The 3^N rank-one tensors v_1 (x) ... (x) v_N, one nonzero v_j in
    GF(2)^2 per axis: the coordinate of subset m is the product over axes
    j of v_j[bit j of m]."""
    out = set()
    for vs in itertools.product(((1, 0), (0, 1), (1, 1)), repeat=n):
        out.add(sum(1 << m for m in range(1 << n)
                    if all(v[m >> j & 1] for j, v in enumerate(vs))))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def whole_space_t_ranks(n: int) -> bytearray:
    """Graph distance from 0 over all 2^(2^N) points with separable vectors
    as steps: exact minimal number of rank-one tensors summing to each
    point."""
    seps = separable_tensors(n)
    size = 1 << (1 << n)
    dist = bytearray(size)
    frontier = list(seps)
    for s in seps:
        dist[s] = 1
    d = 1
    while frontier:
        nxt = []
        for v in frontier:
            for s in seps:
                w = v ^ s
                if w and not dist[w]:
                    dist[w] = d + 1
                    nxt.append(w)
        d += 1
        frontier = nxt
    return dist


def is_separable_by_flattenings(p: ProjPoint) -> bool:
    """Rank-one test via flattenings: separable iff every 2 x 2^(N-1)
    flattening has rank <= 1, i.e. all its 2x2 minors vanish."""
    n = p.n_source
    for axis in range(n):
        bit = 1 << axis
        row0 = row1 = 0
        idx = 0
        for m in range(1 << n):
            if m & bit:
                continue
            if (p.bits >> m) & 1:
                row0 |= 1 << idx
            if (p.bits >> (m | bit)) & 1:
                row1 |= 1 << idx
            idx += 1
        # rank <= 1 iff one row is zero or rows are equal
        if row0 and row1 and row0 != row1:
            return False
    return True


def _members(n: int, orbit_index: int) -> list[int]:
    """The bits of the points whose orbit id is ``orbit_index``, ascending."""
    assign, _ = _orbit_data(n)
    return [v for v, o in enumerate(assign) if o == orbit_index]


def orbit_members(n: int, orbit_id: int) -> list[ProjPoint]:
    """The points of the orbit numbered ``orbit_id``, in point order."""
    return [ProjPoint(n, v) for v in _members(n, orbit_id - 1)]


def chart_points_of_orbit(p: ProjPoint) -> list[ProjPoint]:
    """Orbit members with empty-set coordinate 1."""
    n = p.n_source
    assign, _ = _orbit_data(n)
    return [ProjPoint(n, v) for v in _members(n, assign[p.bits]) if v & 1]


def minor(rows: Sequence[int], n_cols: int, row_set: Iterable[int], col_set: Iterable[int]) -> int:
    """Determinant of the submatrix on 1-based index sets ``row_set``/``col_set``
    of a matrix with ``n_cols`` columns, column j at bit j-1.

    The empty minor is 1 by convention.
    """
    rs = sorted(set(row_set))
    cs = sorted(set(col_set))
    if len(rs) != len(cs):
        raise ValueError(f"minor needs |I| == |J|, got {len(rs)} and {len(cs)}")
    for i in rs:
        if not 1 <= i <= len(rows):
            raise IndexError(f"row index {i} out of range 1..{len(rows)}")
    for j in cs:
        if not 1 <= j <= n_cols:
            raise IndexError(f"column index {j} out of range 1..{n_cols}")
    sub = []
    for i in rs:
        r = rows[i - 1]
        sub.append(sum(1 << k for k, j in enumerate(cs) if (r >> (j - 1)) & 1))
    return 1 if rank(sub) == len(rs) else 0


def to_chart(p: ProjPoint) -> tuple[int, ProjPoint]:
    """(T, H_T p) for the lowest subset T with x_T = 1, where H_T maps x_S
    to x_{S ^ T}.  H_T is a product of local SWAP factors, so H_T p is a
    chart point of the same local orbit."""
    t = (p.bits & -p.bits).bit_length() - 1
    return t, ProjPoint(p.n_source, sum((p.bits >> (m ^ t) & 1) << m for m in range(1 << p.n_source)))


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


def exclusive_minor_e_rank(p: ProjPoint) -> int:
    """E-rank by its definition: the minimal k such that every (k+1)x(k+1)
    minor on disjoint row/column sets of the chart matrix A vanishes, by a
    sweep over the pairs of disjoint index sets.  An off-chart point is
    first carried to the chart by ``to_chart``; the lifted rows of a chart
    point are the graph rows e_i + sum_j a_ij e_{N+j} of A."""
    n = p.n_source
    _, q = to_chart(p)
    a = tuple(r >> n for r in lift(q).rows)
    return next(k for k in range(n + 1) if _exclusive_minors_vanish(a, k + 1))


def _local_complement(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Toggle every edge between two neighbours of vertex ``v``."""
    nb = adj[v]
    return tuple(a ^ nb & ~(1 << u) if nb >> u & 1 else a for u, a in enumerate(adj))


def _swap_vertices(adj: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Relabel vertices k and k + 1 of the graph."""
    def moved(a):
        return a ^ ((a >> k ^ a >> k + 1) & 1) * (3 << k)
    return tuple(moved(adj[u]) for u in (*range(k), k + 1, k, *range(k + 2, len(adj))))


def graph_classes(n: int) -> list[set[tuple[int, ...]]]:
    """The graphs on ``n`` vertices, each as its neighbourhood masks, in
    classes under local complementation and vertex relabelling."""
    pairs = list(itertools.combinations(range(n), 2))
    left = set()
    for edges in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if edges >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        left.add(tuple(adj))
    classes = []
    while left:
        frontier = [left.pop()]
        cls = set(frontier)
        while frontier:
            adj = frontier.pop()
            for nxt in [_local_complement(adj, v) for v in range(n)] + [_swap_vertices(adj, k) for k in range(n - 1)]:
                if nxt not in cls:
                    cls.add(nxt)
                    frontier.append(nxt)
        left -= cls
        classes.append(cls)
    return classes
