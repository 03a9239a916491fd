"""Tests for the local symmetry group, orbit stratification, and the two
rank invariants."""

import random
from functools import lru_cache

import pytest

from lgrpauli.orbits import (
    CLASS_TABLE,
    GroupElem,
    act,
    classify_image,
    e_rank,
    emit_tables,
    group_generators,
    group_order,
    orbit_members,
    orbit_of_point,
    orbit_partition,
    t_rank,
    _separable_vectors,
)
from lgrpauli.pauli import PauliPoint, generator_from_operators
from lgrpauli.pluecker import embed
from lgrpauli.projection import ProjPoint, image, project, to_observable
from orbit_oracles import chart_points_of_orbit, is_separable_by_flattenings, whole_space_t_ranks


@lru_cache(maxsize=None)
def _axis_columns(n, axis, mat):
    bit = 1 << (axis - 1)
    cols = []
    for m in range(1 << n):
        beta = 1 if m & bit else 0
        col = 0
        if mat[0][beta]:
            col |= 1 << (m & ~bit)
        if mat[1][beta]:
            col |= 1 << (m | bit)
        cols.append(col)
    return tuple(cols)


def _apply_columns(cols, v):
    out = 0
    while v:
        i = (v & -v).bit_length() - 1
        v &= v - 1
        out ^= cols[i]
    return out


def _elem_columns(g):
    """Oracle: the linear action of ``g`` as columns over subset masks,
    each factor applied bit by bit, then subset bit j-1 moved to bit
    perm[j-1]-1."""
    n = g.n
    current = [1 << m for m in range(1 << n)]
    for axis in range(1, n + 1):
        ac = _axis_columns(n, axis, g.factors[axis - 1])
        current = [_apply_columns(ac, c) for c in current]
    perm_cols = []
    for m in range(1 << n):
        t = 0
        for j in range(n):
            if (m >> j) & 1:
                t |= 1 << (g.perm[j] - 1)
        perm_cols.append(1 << t)
    return [_apply_columns(perm_cols, c) for c in current]


def _group(n):
    """Every element, as the closure of the generators."""
    gens = group_generators(n)
    seen = {GroupElem.identity(n)}
    frontier = set(seen)
    while frontier:
        frontier = {g * h for g in frontier for h in gens} - seen
        seen |= frontier
    return seen


@pytest.mark.parametrize("n", [2, 3])
def test_act_matches_column_oracle_on_the_whole_group(n):
    elems = _group(n)
    assert len(elems) == group_order(n)
    for g in elems:
        cols = _elem_columns(g)
        for bits in range(1, 1 << (1 << n)):
            assert act(g, ProjPoint(n, bits)).bits == _apply_columns(cols, bits)


def test_group_generators_are_involutions():
    for n in (2, 3):
        e = GroupElem.identity(n)
        for g in group_generators(n):
            assert g * g == e


def test_action_composition_law():
    rng = random.Random(7)
    gens = group_generators(3)
    for _ in range(40):
        g = rng.choice(gens)
        h = rng.choice(gens)
        p = ProjPoint(3, rng.randrange(1, 1 << 8))
        assert act(g * h, p) == act(g, act(h, p))


def test_group_order_formula():
    assert group_order(2) == 72
    assert group_order(3) == 1296
    assert group_order(4) == 31104


def test_singular_factor_rejected():
    with pytest.raises(ValueError):
        GroupElem(2, (((1, 1), (1, 1)), ((1, 0), (0, 1))), (1, 2))


@pytest.mark.parametrize(
    "n,sizes",
    [(2, [6, 9]), (3, [12, 27, 54, 54, 108])],
)
def test_orbit_sizes_small(n, sizes):
    recs = orbit_partition(n)
    assert sorted(r.size for r in recs) == sorted(sizes)
    assert sum(r.size for r in recs) == (1 << (1 << n)) - 1


def test_orbit_count_n4():
    recs = orbit_partition(4)
    assert len(recs) == 29
    assert sum(r.size for r in recs) == (1 << 16) - 1


@pytest.mark.parametrize(
    "n,sizes",
    [(2, {6, 9}), (3, {27, 54}), (4, {81, 324, 648, 162, 108, 972})],
)
def test_image_orbit_sizes(n, sizes):
    recs = classify_image(n)
    assert {r.size for r in recs} == sizes
    assert sum(r.size for r in recs) == len(image(n))


def test_image_is_union_of_whole_orbits():
    # enforced inside orbit_partition; also check membership directly
    img = set(image(3))
    for rec in orbit_partition(3):
        members = set(orbit_members(3, rec.orbit_id))
        assert members <= img or not (members & img)


def test_separable_vectors_census():
    for n in (2, 3, 4):
        seps = _separable_vectors(n)
        assert len(seps) == 3**n
        for v in seps:
            assert is_separable_by_flattenings(ProjPoint(n, v))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t_rank_matches_whole_space_oracle(n):
    oracle = whole_space_t_ranks(n)
    for bits in range(1, 1 << (1 << n)):
        assert t_rank(ProjPoint(n, bits)) == oracle[bits]


def test_t_rank_one_iff_separable_flattenings():
    for n in (2, 3, 4):
        for bits in range(1, 1 << (1 << n)):
            p = ProjPoint(n, bits)
            assert (t_rank(p) == 1) == is_separable_by_flattenings(p)


def test_t_rank_additivity_bound():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(1, 1 << 8)
        b = rng.randrange(1, 1 << 8)
        if a == b:
            continue
        pa, pb = ProjPoint(3, a), ProjPoint(3, b)
        ps = ProjPoint(3, a ^ b)
        assert t_rank(ps) <= t_rank(pa) + t_rank(pb)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t_rank_constant_on_orbits_exhaustive(n):
    oracle = whole_space_t_ranks(n)
    for rec in orbit_partition(n):
        ranks = {oracle[p.bits] for p in orbit_members(n, rec.orbit_id)}
        assert ranks == {rec.t_rank}


def test_e_rank_constant_on_chart_points_of_image_orbits():
    for n in (2, 3, 4):
        for rec in classify_image(n):
            charts = chart_points_of_orbit(rec.representative)
            assert charts  # every image orbit meets the chart
            ranks = {e_rank(p) for p in charts}
            assert ranks == {rec.e_rank}


def test_e_rank_rejects_non_image_points():
    bad = ProjPoint.from_display_bits((1, 0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        e_rank(bad)


def test_class_table_rows():
    for n, rows in CLASS_TABLE.items():
        for row in rows:
            p = ProjPoint.from_string(n, row["representative"])
            rec = orbit_of_point(p)
            assert rec.size == row["size"]
            assert to_observable(p).label() == row["observable"]
            assert t_rank(p) == row["t_rank"]
            assert e_rank(p) == row["e_rank"]


def test_class_table_sample_sets_project_into_the_same_orbit():
    for n, rows in CLASS_TABLE.items():
        for row in rows:
            ops = [PauliPoint.from_label(s) for s in row["ops"]]
            p = project(embed(generator_from_operators(ops)))
            rep = ProjPoint.from_string(n, row["representative"])
            assert orbit_of_point(p).orbit_id == orbit_of_point(rep).orbit_id


def test_emit_tables_covers_all_image_orbits():
    for n in (2, 3, 4):
        rows = emit_tables(n)
        assert len(rows) == len(classify_image(n))
        for row in rows:
            ops = [PauliPoint.from_label(s) for s in row["sample_commuting_set"]]
            p = project(embed(generator_from_operators(ops)))
            assert p.bit_string() == row["reference_representative_bits"]
            assert to_observable(p).label() == row["observable"]


def test_action_preserves_image_and_ranks():
    rng = random.Random(11)
    gens = group_generators(3)
    img = set(image(3))
    oracle = whole_space_t_ranks(3)
    for p in list(img)[::7]:
        for g in rng.sample(gens, 4):
            q = act(g, p)
            assert q in img
            assert oracle[q.bits] == oracle[p.bits]
            assert e_rank(q) == e_rank(p)
