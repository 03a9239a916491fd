"""Plucker coordinates of generators, the quadratic Plucker relations, and
the linear isotropy constraints that cut the Lagrangian locus out of the
Grassmannian.

A generator's Plucker vector collects the maximal minors of its N x 2N
basis matrix, one coordinate per N-subset of {1..2N}.  Over GF(2) a change
of basis has determinant 1, so the vector depends only on the subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .gf2 import rank
from .pauli import MAX_QUBITS, Generator


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


@lru_cache(maxsize=None)
def _key_label(n_ambient: int, key: int) -> str:
    """``SubsetIndex.from_key(n_ambient, key).label()``, from the key bits."""
    members = [str(j + 1) for j in range(n_ambient) if key >> j & 1]
    return "p" + "".join(members) if n_ambient < 10 else "p{" + ",".join(members) + "}"


@lru_cache(maxsize=None)
def _absent_masks(two_n: int) -> tuple[int, ...]:
    # absent[j]: big integer with bit m set iff subset-mask m omits element j+1
    npos = 1 << two_n
    masks = []
    for j in range(two_n):
        pat = (1 << (1 << j)) - 1
        width = 1 << (j + 1)
        while width < npos:
            pat |= pat << width
            width <<= 1
        masks.append(pat)
    return tuple(masks)


def _wedge(rows, two_n: int) -> int:
    """Exterior product of packed rows: bit m of the result is the minor on
    the columns of subset-mask m (signs collapse over GF(2))."""
    absent = _absent_masks(two_n)
    w = 1
    for r in rows:
        nw = 0
        rr = r
        while rr:
            j = (rr & -rr).bit_length() - 1
            rr &= rr - 1
            nw ^= (w & absent[j]) << (1 << j)
        w = nw
    return w


@dataclass(frozen=True, order=True)
class PlueckerVec:
    """Plucker coordinates of a generator: one bit per N-subset of {1..2N}.

    ``table`` packs the coordinate of subset-mask m at bit m.
    """

    n_qubits: int
    table: int

    def coord_key(self, key: int) -> int:
        return (self.table >> key) & 1

    def coord(self, idx: SubsetIndex) -> int:
        if idx.n_ambient != 2 * self.n_qubits or len(idx.members) != self.n_qubits:
            raise ValueError("index shape mismatch")
        return self.coord_key(idx.key)


def embed(g: Generator) -> PlueckerVec:
    """Plucker embedding of a generator."""
    return PlueckerVec(g.n_qubits, _wedge(g.rows, 2 * g.n_qubits))


@dataclass(frozen=True, order=True)
class PlueckerRelation:
    """A quadratic relation sum p_S p_T = 0 over GF(2); terms are unordered
    pairs of subset keys, deduplicated and cancellation-free."""

    n_qubits: int
    term_keys: tuple[tuple[int, int], ...]

    def terms(self) -> list[tuple[SubsetIndex, SubsetIndex]]:
        two_n = 2 * self.n_qubits
        return [
            (SubsetIndex.from_key(two_n, a), SubsetIndex.from_key(two_n, b))
            for a, b in self.term_keys
        ]

    def evaluate(self, v: PlueckerVec) -> int:
        t = v.table
        out = 0
        for a, b in self.term_keys:
            out ^= (t >> a) & (t >> b) & 1
        return out

    def __str__(self) -> str:
        two_n = 2 * self.n_qubits
        return " + ".join(f"{_key_label(two_n, a)}*{_key_label(two_n, b)}"
                          for a, b in self.term_keys) + " = 0"


def _relation_candidates(n_qubits: int) -> list[PlueckerRelation]:
    """One relation per choice of an (N-1)-sequence i and an (N+1)-sequence
    j: sum_a p_{i,j_a} p_{j \\ j_a} = 0, with repeated-index coordinates
    dropped, GF(2) cancellation applied and equal monomial supports merged;
    shorter relations first, then ascending key order."""
    n = n_qubits
    two_n = 2 * n
    seen: set[frozenset[tuple[int, int]]] = set()
    for i_set in itertools.combinations(range(1, two_n + 1), n - 1):
        i_key = sum(1 << (x - 1) for x in i_set)
        for j_set in itertools.combinations(range(1, two_n + 1), n + 1):
            j_key = sum(1 << (x - 1) for x in j_set)
            monomials: set[tuple[int, int]] = set()
            for ja in j_set:
                bit = 1 << (ja - 1)
                if i_key & bit:
                    continue  # repeated index: coordinate is zero
                a = i_key | bit
                b = j_key ^ bit
                mono = (a, b) if a <= b else (b, a)
                monomials ^= {mono}
            if monomials:
                seen.add(frozenset(monomials))
    rels = [
        PlueckerRelation(n, tuple(sorted(mono_set))) for mono_set in seen
    ]
    rels.sort(key=lambda r: (len(r.term_keys), r.term_keys))
    return rels


@lru_cache(maxsize=None)
def pluecker_relations(n_qubits: int) -> tuple[PlueckerRelation, ...]:
    """The deduplicated quadratic relations cutting out Gr(N,2N).

    The candidates of ``_relation_candidates`` that are GF(2) sums of
    earlier ones are removed: the result is an independent system.
    """
    n = n_qubits
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"supported qubit range is 2..{MAX_QUBITS}")
    mono_pos: dict[tuple[int, int], int] = {}
    pivots: dict[int, int] = {}  # top bit -> kept row with that top bit
    kept = []
    for r in _relation_candidates(n):
        row = 0
        for mono in r.term_keys:
            if mono not in mono_pos:
                mono_pos[mono] = len(mono_pos)
            row |= 1 << mono_pos[mono]
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                kept.append(r)
                break
            row ^= pivots[top]
    kept.sort()
    return tuple(kept)


@dataclass(frozen=True, order=True)
class LinearConstraint:
    """A linear isotropy condition: the listed coordinates sum to zero."""

    n_qubits: int
    term_keys: tuple[int, ...]

    def terms(self) -> list[SubsetIndex]:
        two_n = 2 * self.n_qubits
        return [SubsetIndex.from_key(two_n, k) for k in self.term_keys]

    def evaluate(self, v: PlueckerVec) -> int:
        t = v.table
        out = 0
        for k in self.term_keys:
            out ^= (t >> k) & 1
        return out

    def __str__(self) -> str:
        two_n = 2 * self.n_qubits
        return " + ".join(_key_label(two_n, k) for k in self.term_keys) + " = 0"


@lru_cache(maxsize=None)
def lagrangian_constraints(n_qubits: int) -> tuple[LinearConstraint, ...]:
    """The linear conditions isolating the totally isotropic subspaces.

    For each (N-2)-subset K of {1..2N}: sum over i (with i and N+i both
    outside K) of p_{K + {i, N+i}} = 0, degenerate sums dropped (so none
    for N = 1, where every line is isotropic).
    """
    n = n_qubits
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"supported qubit range is 1..{MAX_QUBITS}")
    two_n = 2 * n
    out = []
    for k_set in itertools.combinations(range(1, two_n + 1), max(n - 2, 0)):
        k_key = sum(1 << (x - 1) for x in k_set)
        terms = []
        for i in range(1, n + 1):
            pair = (1 << (i - 1)) | (1 << (n + i - 1))
            if k_key & pair:
                continue
            terms.append(k_key | pair)
        if len(terms) >= 2:
            out.append(LinearConstraint(n, tuple(sorted(terms))))
    out.sort()
    return tuple(out)


def constraint_rank(n_qubits: int) -> int:
    """GF(2) rank of the full linear constraint system."""
    return rank(sum(1 << k for k in c.term_keys) for c in lagrangian_constraints(n_qubits))


@lru_cache(maxsize=None)
def principal_keys(n_qubits: int) -> tuple[int, ...]:
    """Entry m is the key of the Plucker index whose minor is the principal
    minor on the subset mask m of {1..N}: ({1..N} minus m) together with
    {N+i : i in m}."""
    full = (1 << n_qubits) - 1
    return tuple((full & ~m) | (m << n_qubits) for m in range(1 << n_qubits))


@lru_cache(maxsize=None)
def retained_indices(n_qubits: int) -> tuple[SubsetIndex, ...]:
    """The 2^N principal-minor coordinates, in ascending key order."""
    return tuple(SubsetIndex.from_key(2 * n_qubits, k) for k in sorted(principal_keys(n_qubits)))
