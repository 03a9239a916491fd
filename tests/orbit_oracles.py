"""Reference implementations of the orbit invariants, kept for the tests to
compare against: each computes its invariant point by point, without the
orbit partition's per-orbit records."""

import itertools
from functools import lru_cache

from lgrpauli.gf2 import apply_gate
from lgrpauli.orbits import _orbit_data, local_gates
from lgrpauli.projection import ProjPoint


def orbit_data_by_local_gates(n: int) -> tuple[list[int], list[list[int]]]:
    """(assignment, member lists) as ``_orbit_data`` returns them, found by
    closing each point under all the gates of ``local_gates(n)``."""
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
    assign = [relabel[x] if x >= 0 else -1 for x in oid]
    orbits = [sorted(raw[old]) for old in order]
    return assign, orbits


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


def orbit_members(n: int, orbit_id: int) -> list[ProjPoint]:
    """The points of the orbit numbered ``orbit_id``, in point order."""
    _, orbits = _orbit_data(n)
    return [ProjPoint(n, v) for v in orbits[orbit_id - 1]]


def chart_points_of_orbit(p: ProjPoint) -> list[ProjPoint]:
    """Orbit members with empty-set coordinate 1."""
    n = p.n_source
    assign, orbits = _orbit_data(n)
    members = orbits[assign[p.bits]]
    return [ProjPoint(n, v) for v in members if v & 1]
