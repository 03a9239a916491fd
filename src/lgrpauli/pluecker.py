"""Plucker coordinates of generators, the quadratic Plucker relations, and
the linear isotropy constraints that cut the Lagrangian locus out of the
Grassmannian.

A generator's Plucker vector collects the maximal minors of its N x 2N
basis matrix, one coordinate per N-subset of {1..2N}.  Over GF(2) a change
of basis has determinant 1, so the vector depends only on the subspace.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .gf2 import grades, independent, rank
from .pauli import Generator, _require_int, _require_qubits, _Value, omega_contraction, omega_masks


@lru_cache(maxsize=None)
def _key_label(n_ambient: int, key: int) -> str:
    """The label of the subset of {1..n_ambient} with key ``key``: "p246",
    or "p{1,2,10}" once members can have two digits."""
    members = [str(j + 1) for j in range(n_ambient) if key >> j & 1]
    return "p" + "".join(members) if n_ambient < 10 else "p{" + ",".join(members) + "}"


class PlueckerVec(_Value, order=True):
    """Plucker coordinates: bit m of ``table`` is the coordinate of the
    N-subset mask m of {1..2N}.  A bit at any other key is rejected, and so
    is a table off the kernel of the isotropy constraints, naming the first
    constraint it violates.  The kernel is the generators' span up to N = 3,
    one dimension more at N = 4 (43) and ten more at N = 5 (142)."""

    __slots__ = ("n_qubits", "table")

    def __init__(self, n_qubits: int, table: int):
        _require_qubits(n_qubits)
        _require_int("Plucker table", table)
        if table < 0:
            raise ValueError(f"Plucker table must be nonnegative, got {table}")
        if bad := table & ~grades(2 * n_qubits)[n_qubits]:
            key = (bad & -bad).bit_length() - 1
            raise ValueError(f"Plucker key {key} is not a {n_qubits}-subset of 1..{2 * n_qubits}")
        if s := omega_contraction(n_qubits, table):
            # bit K sums K's constraint, whose terms K | p_i meet in K (the p_i are disjoint)
            c = next(c for c in lagrangian_constraints(n_qubits) if s >> (c.term_keys[0] & c.term_keys[1]) & 1)
            raise ValueError(f"input violates isotropy constraint {c}")
        _Value.__init__(self, n_qubits, table)


# ``embed`` writes a vector's slots itself, as its generator passed the same
# checks.  Held here, so no call looks them up.
_new = object.__new__
_set_vec_n, _set_vec_table = PlueckerVec._setters


def embed(g: Generator) -> PlueckerVec:
    """Plucker embedding of a generator: the vector it already holds, which
    its generator checked, so it is written without the constructor."""
    v = _new(PlueckerVec)
    _set_vec_n(v, g.n_qubits)
    _set_vec_table(v, g.table)
    return v


class PlueckerRelation(_Value, order=True):
    """A quadratic relation sum p_S p_T = 0 over GF(2); terms are unordered
    pairs of subset keys, deduplicated and cancellation-free."""

    __slots__ = ("n_qubits", "term_keys")

    def __str__(self) -> str:
        two_n = 2 * self.n_qubits
        return " + ".join(f"{_key_label(two_n, a)}*{_key_label(two_n, b)}"
                          for a, b in self.term_keys) + " = 0"


def _relation_candidates(n_qubits: int) -> list[tuple[tuple[int, int], ...]]:
    """The sorted terms of one relation per choice of an (N-1)-sequence i
    and an (N+1)-sequence j: sum_a p_{i,j_a} p_{j \\ j_a} = 0, with
    repeated-index coordinates dropped, GF(2) cancellation applied and equal
    monomial supports merged; shorter relations first, then ascending key
    order."""
    n = n_qubits
    units = [1 << x for x in range(2 * n)]
    j_sets = [(sum(j_bits), j_bits) for j_bits in itertools.combinations(units, n + 1)]
    seen: set[tuple[tuple[int, int], ...]] = set()
    for i_key in map(sum, itertools.combinations(units, n - 1)):
        for j_key, j_bits in j_sets:
            monomials: set[tuple[int, int]] = set()
            for bit in j_bits:
                if not i_key & bit:  # else a repeated index: the coordinate is zero
                    a, b = i_key | bit, j_key ^ bit
                    monomials ^= {(a, b) if a <= b else (b, a)}
            if monomials:
                seen.add(tuple(sorted(monomials)))
    return sorted(seen, key=lambda terms: (len(terms), terms))


@lru_cache(maxsize=None)
def pluecker_relations(n_qubits: int) -> tuple[PlueckerRelation, ...]:
    """The GF(2)-independent single-exchange relations of Gr(N,2N): the
    candidates of ``_relation_candidates`` that are GF(2) sums of earlier
    ones are removed, the rest ordered by terms.  They span the degree-2
    part of the ideal at N <= 4, and all of it but one dimension at N = 5
    (12,473 of 12,474).
    """
    n = n_qubits
    _require_qubits(n, 2)
    mono_pos: dict[tuple[int, int], int] = {}

    def row(terms: tuple[tuple[int, int], ...]) -> int:
        # a row's positions lie close together in the 28,476-wide index at
        # N = 5: build the row from its lowest one and widen it once
        pos = [mono_pos.setdefault(mono, len(mono_pos)) for mono in terms]
        lo = min(pos)
        return sum(1 << p - lo for p in pos) << lo

    # each row is built as ``independent`` consumes it, so only the kept rows stay
    cands = _relation_candidates(n)
    return tuple(PlueckerRelation(n, terms) for terms in sorted(cands[k] for k in independent(map(row, cands))))


class LinearConstraint(_Value, order=True):
    """A linear isotropy condition: the listed coordinates sum to zero."""

    __slots__ = ("n_qubits", "term_keys")

    def __str__(self) -> str:
        two_n = 2 * self.n_qubits
        return " + ".join(_key_label(two_n, k) for k in self.term_keys) + " = 0"


@lru_cache(maxsize=None)
def lagrangian_constraints(n_qubits: int) -> tuple[LinearConstraint, ...]:
    """The linear conditions isolating the totally isotropic subspaces.

    For each (N-2)-subset K of {1..2N}: sum over the pairs p_i = {i, N+i}
    (``omega_masks``) outside K of p_{K + p_i} = 0, degenerate sums dropped
    (so none for N = 1, where every line is isotropic).
    """
    n = n_qubits
    _require_qubits(n)
    keys = grades(2 * n)[max(n - 2, 0)]
    pairs = [p for p, _ in omega_masks(n)]
    # the pairs ascend, so each K's terms K | p_i do
    terms = [tuple(k | p for p in pairs if not k & p) for k in range(keys.bit_length()) if keys >> k & 1]
    return tuple(LinearConstraint(n, t) for t in sorted(terms) if len(t) >= 2)


def constraint_rank(n_qubits: int) -> int:
    """GF(2) rank of the full linear constraint system."""
    return rank(sum(1 << k for k in c.term_keys) for c in lagrangian_constraints(n_qubits))


def principal_keys(n_qubits: int) -> tuple[int, ...]:
    """Entry m is the key of the Plucker index whose minor is the principal
    minor on the subset mask m of {1..N}: ({1..N} minus m) together with
    {N+i : i in m}."""
    _require_qubits(n_qubits)
    full = (1 << n_qubits) - 1
    return tuple((full & ~m) | (m << n_qubits) for m in range(1 << n_qubits))

