"""Tests for the exterior-product coordinates, the quadratic exchange
relations, and the linear isotropy constraints."""

import itertools
import math
import re

import pytest

from lgrpauli.gf2 import rank, reduce_row
from lgrpauli.pauli import Generator, generator_from_operators, omega_masks, PauliPoint
from lgrpauli.pluecker import (
    PlueckerRelation,
    PlueckerVec,
    constraint_rank,
    embed,
    lagrangian_constraints,
    pluecker_relations,
    principal_keys,
    _relation_candidates,
)
from lgrpauli.projection import enumerate_generators
from gf2_oracles import kernel
from pauli_helpers import subset_keys
from pluecker_oracles import (
    SubsetIndex,
    constraint_terms,
    constraint_value,
    relation_terms,
    relation_value,
    retained_indices,
)


def permutation_det(a) -> int:
    """GF(2) determinant of a square 0/1 matrix (list of lists) as the sum
    over all permutations of the products of entries."""
    n = len(a)
    return sum(all(a[i][s[i]] for i in range(n)) for s in itertools.permutations(range(n))) & 1


def brute_coordinates(g):
    """Independent oracle: every NxN minor by direct determinant."""
    n = g.n_qubits
    out = {}
    for cols in itertools.combinations(range(2 * n), n):
        sub = [[(r >> j) & 1 for j in cols] for r in g.rows]
        out[sum(1 << c for c in cols)] = permutation_det(sub)
    return out


def complement_of_constraint_keys(n):
    """Oracle: the N-subset keys that no isotropy constraint touches."""
    gone = {k for c in lagrangian_constraints(n) for k in c.term_keys}
    return sorted(k for k in subset_keys(2 * n, n) if k not in gone)


@pytest.mark.parametrize("n", [2, 3])
def test_embedding_matches_minor_oracle(n):
    for g in enumerate_generators(n):
        v = embed(g)
        for key, val in brute_coordinates(g).items():
            assert v.table >> key & 1 == val


def test_embedding_nonzero_and_projectively_distinct():
    vs = {embed(g).table for g in enumerate_generators(3)}
    assert 0 not in vs
    assert len(vs) == 135


def test_subset_index_labels():
    idx = SubsetIndex(6, (2, 4, 6))
    assert idx.label() == "p246"
    assert SubsetIndex.from_key(6, idx.key) == idx


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_printed_relations_and_constraints_match_subset_index_labels(n):
    label = lambda k: SubsetIndex.from_key(2 * n, k).label()
    for r in pluecker_relations(n):
        assert str(r) == " + ".join(f"{label(a)}*{label(b)}" for a, b in r.term_keys) + " = 0"
        assert len(r.term_keys) == len(relation_terms(r))
    for c in lagrangian_constraints(n):
        assert str(c) == " + ".join(label(k) for k in c.term_keys) + " = 0"
        assert len(c.term_keys) == len(constraint_terms(c))


def test_subset_keys_counts():
    assert len(subset_keys(6, 3)) == 20
    assert len(subset_keys(8, 4)) == 70


@pytest.mark.parametrize("n,three,four", [(3, 30, 5)])
def test_relation_census(n, three, four):
    rels = pluecker_relations(n)
    by_terms = {}
    for r in rels:
        by_terms.setdefault(len(relation_terms(r)), []).append(r)
    assert len(by_terms.get(3, [])) == three
    assert len(by_terms.get(4, [])) == four
    assert set(by_terms) == {3, 4}


def min_reduction_relations(n):
    """Oracle: keep each candidate not in the span of the kept ones, reduced
    by row = min(row, row ^ b) against the kept rows sorted descending."""
    mono_pos = {}
    basis = []
    kept = []
    for terms in _relation_candidates(n):
        row = 0
        for mono in terms:
            row |= 1 << mono_pos.setdefault(mono, len(mono_pos))
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            kept.append(PlueckerRelation(n, terms))
    return tuple(sorted(kept))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relations_match_min_reduction_oracle(n):
    assert pluecker_relations(n) == min_reduction_relations(n)


def test_relation_count_n5():
    assert len(pluecker_relations(5)) == 12473


def incomparable_pairs(n):
    """How many pairs of N-subsets of 2N indices, each in ascending order, are
    not entrywise comparable: the dimension of the quadrics in Gr(N,2N)'s
    ideal, as the comparable pairs (the standard monomials) are a basis of
    the degree-2 coordinate ring in every characteristic."""
    subsets = list(itertools.combinations(range(2 * n), n))
    return sum(any(a < b for a, b in zip(s, t)) and any(a > b for a, b in zip(s, t))
               for s, t in itertools.combinations(subsets, 2))


@pytest.mark.parametrize("n,ideal", [(2, 1), (3, 35), (4, 721), (5, 12474)])
def test_relations_are_one_short_of_the_quadratic_ideal_at_n5_alone(n, ideal):
    # the GF(2)-independent single-exchange relations span the whole
    # degree-2 ideal at N <= 4, and all of it but one dimension at N = 5
    assert incomparable_pairs(n) == ideal
    assert len(pluecker_relations(n)) == ideal - (n == 5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relations_vanish_on_embedded_generators(n):
    rels = pluecker_relations(n)
    for g in enumerate_generators(n):
        v = embed(g)
        for r in rels:
            assert relation_value(r, v) == 0


@pytest.mark.parametrize("n,rank", [(2, 1), (3, 6), (4, 27)])
def test_constraint_rank(n, rank):
    assert constraint_rank(n) == rank


def symplectic_moves(n: int) -> list:
    """Row maps generating Sp(2N, 2), the Clifford group modulo Paulis:
    H_i exchanges x_i and x_{N+i}, S_i adds x_i to x_{N+i}, and CNOT_ij adds
    x_j to x_i and x_{N+i} to x_{N+j} (bit k - 1 of a row is x_k)."""
    moves = []
    for i in range(n):
        moves.append(lambda r, i=i: r ^ ((r >> i ^ r >> n + i) & 1) * (1 << i | 1 << n + i))
        moves.append(lambda r, i=i: r ^ (r >> i & 1) << n + i)
        moves += [lambda r, i=i, j=j: r ^ (r >> j & 1) << i ^ (r >> n + i & 1) << n + j for j in range(n) if j != i]
    return moves


@pytest.mark.parametrize("n, kernel_dim, span", [(1, 2, 2), (2, 5, 5), (3, 14, 14), (4, 43, 42), (5, 142, 132)])
def test_pluecker_vec_admits_the_constraint_kernel(n, kernel_dim, span):
    # the constructor checks the linear constraints alone, so it admits their
    # whole kernel: every generator's vector and, at N >= 4, more
    keys = subset_keys(2 * n, n)
    assert len(keys) - constraint_rank(n) == kernel_dim
    column = {k: j for j, k in enumerate(keys)}
    rows = [sum(1 << column[k] for k in c.term_keys) for c in lagrangian_constraints(n)]
    basis = [sum(1 << k for j, k in enumerate(keys) if b >> j & 1) for b in kernel(rows, len(keys))]
    assert len(basis) == kernel_dim
    for t in basis:  # the check is linear, so every sum of these passes too
        assert PlueckerVec(n, t).table == t
    # a prefix of the generators spans ``span`` dimensions (4,590 of them at
    # N = 5), and no generator leaves that span: it is closed under moves
    # generating Sp(2N, 2), which is transitive on the generators
    pivots, kept = {}, []
    for g in enumerate_generators(n):
        if row := reduce_row(pivots, g.table):
            pivots[row.bit_length()] = row
            kept.append(g)
            if len(kept) == span:
                break
    assert len(kept) == span
    for g in kept:
        for move in symplectic_moves(n):
            assert reduce_row(pivots, Generator(n, map(move, g.rows)).table) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constraints_vanish_on_embedded_generators(n):
    cons = lagrangian_constraints(n)
    for g in enumerate_generators(n):
        v = embed(g)
        for c in cons:
            assert constraint_value(c, v.table) == 0


def divided_power_forms(n: int) -> list[tuple[int, ...]]:
    """The contraction with the divided power sum_{i<j} e_i e_{N+i} e_j e_{N+j}
    of omega, which omega ^ omega = 0 does not give over GF(2): for each
    (N-4)-subset K of {1..2N}, the keys K | p_i | p_j over the pairs i < j
    with p_i and p_j disjoint from K, p_i = {i, N+i} (``omega_masks``)."""
    if n < 4:
        return []
    pairs = [p for p, _ in omega_masks(n)]
    return [tuple(k | p | q for p, q in itertools.combinations(pairs, 2) if not k & (p | q))
            for k in subset_keys(2 * n, n - 4)]


@pytest.mark.parametrize("n, count, omega_rank", [(2, 0, 1), (3, 0, 6), (4, 1, 27), (5, 10, 110)])
def test_divided_power_forms_close_the_constraint_gap(n, count, omega_rank):
    # each form vanishes on every generator, and with the omega rows they
    # have rank C(2N, N-2), the codimension of the generators' span
    forms = [sum(1 << k for k in keys) for keys in divided_power_forms(n)]
    assert len(forms) == count
    assert not any((g.table & form).bit_count() & 1 for g in enumerate_generators(n) for form in forms)
    omega_rows = [sum(1 << k for k in c.term_keys) for c in lagrangian_constraints(n)]
    assert rank(omega_rows) == constraint_rank(n) == omega_rank
    assert rank(omega_rows + forms) == math.comb(2 * n, n - 2)


def test_n4_three_term_constraints_sum_to_zero():
    three_term = [
        c for c in lagrangian_constraints(4) if len(constraint_terms(c)) == 3
    ]
    assert len(three_term) == 4
    total = set()
    for c in three_term:
        total ^= set(c.term_keys)
    assert total == set()


def test_retained_indices_count_matches_display_dimension():
    for n in (2, 3, 4):
        assert len(retained_indices(n)) == 1 << n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_principal_keys_are_the_keys_no_constraint_touches(n):
    # they ascend (key m is (m + 1)(2^N - 1)), which the `project` listing relies on
    keys = list(principal_keys(n))
    assert keys == sorted(keys) and len(set(keys)) == 1 << n
    assert keys == complement_of_constraint_keys(n)
    assert [idx.key for idx in retained_indices(n)] == complement_of_constraint_keys(n)


def test_sample_embedding_value():
    g = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("ZZI", "XXI", "IIX")]
    )
    v = embed(g)
    nz = {SubsetIndex.from_key(6, k).label() for k in subset_keys(6, 3) if v.table >> k & 1}
    # the two nonzero retained coordinates recorded for this family
    assert {"p246", "p156"} <= nz


@pytest.mark.parametrize("n", [-2, 0])
def test_pluecker_vec_rejects_fewer_than_one_qubit(n):
    # the bounded form of the message PauliPoint and Generator give
    with pytest.raises(ValueError, match=f"^qubit count {n} is outside 1..5$"):
        PlueckerVec(n, 1)


@pytest.mark.parametrize("table", [1.5, 3.0, "3", None, True])
def test_pluecker_vec_rejects_a_table_that_is_not_an_int(table):
    # a float table used to construct and fail later in >> with a bare TypeError
    with pytest.raises(ValueError, match=f"^Plucker table must be an int, got {re.escape(repr(table))}$"):
        PlueckerVec(2, table)
