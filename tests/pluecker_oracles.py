"""Reference implementations that the packed Plucker code replaced, kept for
the tests to compare against: the subset-object layer (one index object per
coordinate, relations and constraints evaluated term by term), the
bit-by-bit exterior product, and the generator constructor that checked
isotropy pair by pair and reduced its rows to RREF."""

from dataclasses import dataclass
from functools import lru_cache

from lgrpauli.pauli import CommutationError, NotMaximalError, PauliPoint
from lgrpauli.pluecker import LinearConstraint, PlueckerRelation, PlueckerVec, principal_keys
from gf2_oracles import rref


@dataclass(frozen=True, order=True)
class SubsetIndex:
    """A sorted k-subset of {1..n_ambient}, ordered by its integer key."""

    n_ambient: int
    members: tuple[int, ...]

    def __post_init__(self):
        m = self.members
        if any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
            raise ValueError("members must be strictly increasing")
        if m and not (1 <= m[0] and m[-1] <= self.n_ambient):
            raise ValueError("member out of ambient range")

    @property
    def key(self) -> int:
        return sum(1 << (j - 1) for j in self.members)

    @classmethod
    def from_key(cls, n_ambient: int, key: int) -> "SubsetIndex":
        return cls(n_ambient, tuple(j + 1 for j in range(n_ambient) if (key >> j) & 1))

    def label(self) -> str:
        if self.n_ambient < 10:
            return "p" + "".join(str(j) for j in self.members)
        return "p{" + ",".join(str(j) for j in self.members) + "}"


def relation_terms(r: PlueckerRelation) -> list[tuple[SubsetIndex, SubsetIndex]]:
    two_n = 2 * r.n_qubits
    return [(SubsetIndex.from_key(two_n, a), SubsetIndex.from_key(two_n, b))
            for a, b in r.term_keys]


def relation_value(r: PlueckerRelation, v: PlueckerVec) -> int:
    """The relation's left side at ``v``, term by term."""
    t = v.table
    out = 0
    for a, b in r.term_keys:
        out ^= (t >> a) & (t >> b) & 1
    return out


def constraint_terms(c: LinearConstraint) -> list[SubsetIndex]:
    two_n = 2 * c.n_qubits
    return [SubsetIndex.from_key(two_n, k) for k in c.term_keys]


def constraint_value(c: LinearConstraint, table: int) -> int:
    """The constraint's sum on a Plucker table, term by term."""
    out = 0
    for k in c.term_keys:
        out ^= (table >> k) & 1
    return out


def retained_indices(n_qubits: int) -> tuple[SubsetIndex, ...]:
    """The 2^N principal-minor coordinates, in ascending key order."""
    return tuple(SubsetIndex.from_key(2 * n_qubits, k) for k in sorted(principal_keys(n_qubits)))


@lru_cache(maxsize=None)
def _absent(two_n: int) -> tuple[int, ...]:
    """Entry j: the keys m < 2^two_n that omit column j."""
    return tuple(sum(1 << m for m in range(1 << two_n) if not m >> j & 1) for j in range(two_n))


def bitwise_wedge(rows, two_n: int) -> int:
    """Exterior product of packed rows, one set column bit at a time: bit m
    of the result is the minor on the columns of subset mask m."""
    absent = _absent(two_n)
    w = 1
    for r in rows:
        nw = 0
        rr = r
        while rr:
            j = (rr & -rr).bit_length() - 1
            rr &= rr - 1
            nw ^= (w & absent[j]) << (1 << j)  # the keys omitting j gain it
        w = nw
    return w


def rref_generator_rows(n: int, rows) -> tuple[int, ...]:
    """The rows the RREF constructor kept, raising what ``Generator`` raises:
    a width check, then the first anticommuting pair of the whole list in
    combinations order, then a rank below N."""
    if any(r >> (2 * n) for r in rows):
        raise ValueError(f"basis rows must have at most {2 * n} bits")
    low = (1 << n) - 1
    for i, a in enumerate(rows):
        w = (a >> n) | (a & low) << n  # a with its halves exchanged
        for b in rows[i + 1:]:
            if (w & b).bit_count() & 1:
                raise CommutationError(PauliPoint(n, a), PauliPoint(n, b))
    reduced = tuple(rref(rows))
    if len(reduced) < n:
        raise NotMaximalError(f"subspace has rank {len(reduced)}, expected {n}")
    return reduced
