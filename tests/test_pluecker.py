"""Tests for the exterior-product coordinates, the quadratic exchange
relations, and the linear isotropy constraints."""

import itertools

import pytest

from lgrpauli.pauli import enumerate_generators, generator_from_operators, PauliPoint
from lgrpauli.pluecker import (
    constraint_rank,
    embed,
    lagrangian_constraints,
    pluecker_relations,
    principal_keys,
    _relation_candidates,
)
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
            assert v.coord_key(key) == val


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
    for r in _relation_candidates(n):
        row = 0
        for mono in r.term_keys:
            row |= 1 << mono_pos.setdefault(mono, len(mono_pos))
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            kept.append(r)
    return tuple(sorted(kept))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relations_match_min_reduction_oracle(n):
    assert pluecker_relations(n) == min_reduction_relations(n)


def test_relation_count_n5():
    assert len(pluecker_relations(5)) == 12473


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constraints_vanish_on_embedded_generators(n):
    cons = lagrangian_constraints(n)
    for g in enumerate_generators(n):
        v = embed(g)
        for c in cons:
            assert constraint_value(c, v) == 0


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
    assert sorted(principal_keys(n)) == complement_of_constraint_keys(n)
    assert [idx.key for idx in retained_indices(n)] == complement_of_constraint_keys(n)


def test_sample_embedding_value():
    g = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("ZZI", "XXI", "IIX")]
    )
    v = embed(g)
    nz = {SubsetIndex.from_key(6, k).label() for k in subset_keys(6, 3) if v.coord_key(k)}
    # the two nonzero retained coordinates recorded for this family
    assert {"p246", "p156"} <= nz
