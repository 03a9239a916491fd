"""Reference implementations of the orbit invariants, kept for the tests to
compare against: each computes its invariant point by point, without the
orbit partition's per-orbit records."""

from functools import lru_cache

from lgrpauli.orbits import _orbit_data, _separable_vectors
from lgrpauli.projection import ProjPoint


@lru_cache(maxsize=None)
def whole_space_t_ranks(n: int) -> bytearray:
    """Graph distance from 0 over all 2^(2^N) points with separable vectors
    as steps: exact minimal number of rank-one tensors summing to each
    point."""
    seps = _separable_vectors(n)
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


def chart_points_of_orbit(p: ProjPoint) -> list[ProjPoint]:
    """Orbit members with empty-set coordinate 1."""
    n = p.n_source
    assign, orbits = _orbit_data(n)
    members = orbits[assign[p.bits]]
    return [ProjPoint(n, v) for v in members if v & 1]
