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


@lru_cache(maxsize=None)
def _key_label(n_ambient: int, key: int) -> str:
    """The label of the subset of {1..n_ambient} with key ``key``: "p246",
    or "p{1,2,10}" once members can have two digits."""
    members = [str(j + 1) for j in range(n_ambient) if key >> j & 1]
    return "p" + "".join(members) if n_ambient < 10 else "p{" + ",".join(members) + "}"


@dataclass(frozen=True, order=True)
class PlueckerVec:
    """Plucker coordinates of a generator: one bit per N-subset of {1..2N}.

    ``table`` packs the coordinate of subset-mask m at bit m.
    """

    n_qubits: int
    table: int

    def coord_key(self, key: int) -> int:
        return (self.table >> key) & 1


def embed(g: Generator) -> PlueckerVec:
    """Plucker embedding of a generator: the vector it already holds."""
    return PlueckerVec(g.n_qubits, g.table)


@dataclass(frozen=True, order=True)
class PlueckerRelation:
    """A quadratic relation sum p_S p_T = 0 over GF(2); terms are unordered
    pairs of subset keys, deduplicated and cancellation-free."""

    n_qubits: int
    term_keys: tuple[tuple[int, int], ...]

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

