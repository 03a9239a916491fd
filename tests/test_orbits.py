"""Tests for the local symmetry group, orbit stratification, and the two
rank invariants."""

import itertools
import math
import random
import tracemalloc
from functools import lru_cache, reduce

import pytest

from lgrpauli import orbits
from lgrpauli.gf2 import apply_gate, rank
from lgrpauli.orbits import (
    CLASS_TABLE,
    MixedOrbitError,
    _generator_pair,
    _orbit_data,
    classify_image,
    e_rank,
    emit_tables,
    orbit_of_point,
    orbit_partition,
    t_rank,
)
from lgrpauli.pauli import Generator, PauliPoint, commute, generator_from_operators
from lgrpauli.pluecker import embed
from lgrpauli.projection import ProjPoint, _image_bits, local_gates, project, to_observable
from orbit_oracles import (
    CLASS_SAMPLE_SETS,
    chart_points_of_orbit,
    exclusive_minor_e_rank,
    graph_classes,
    image_orbits,
    is_separable_by_flattenings,
    orbit_data_by_local_gates,
    orbit_members,
    separable_tensors,
    whole_space_t_ranks,
)
from projection_oracles import image

GL22 = [m for m in itertools.product(itertools.product((0, 1), repeat=2), repeat=2)
        if (m[0][0] & m[1][1]) ^ (m[0][1] & m[1][0])]


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


def _elem_columns(factors, perm):
    """Oracle: the linear action of the element (factors; perm) as columns
    over subset masks, each 2x2 factor applied along its axis, then subset
    bit j-1 moved to bit perm[j-1]-1."""
    n = len(factors)
    current = [1 << m for m in range(1 << n)]
    for axis in range(1, n + 1):
        ac = _axis_columns(n, axis, factors[axis - 1])
        current = [_apply_columns(ac, c) for c in current]
    perm_cols = []
    for m in range(1 << n):
        t = 0
        for j in range(n):
            if (m >> j) & 1:
                t |= 1 << (perm[j] - 1)
        perm_cols.append(1 << t)
    return tuple(_apply_columns(perm_cols, c) for c in current)


def _closure(n, elements):
    """Every element of the group generated by ``elements`` (each a gate
    sequence applied in turn), as the tuple of images of the unit vectors."""
    identity = tuple(1 << m for m in range(1 << n))
    seen, frontier = {identity}, {identity}
    while frontier:
        frontier = {tuple(reduce(lambda v, g: apply_gate(g, v), seq, c) for c in cols)
                    for cols in frontier for seq in elements} - seen
        seen |= frontier
    return seen


@lru_cache(maxsize=None)
def _local_group(n):
    """Every element of the group generated by ``local_gates(n)``."""
    return _closure(n, [(g,) for g in local_gates(n)])


@pytest.mark.parametrize("n", [2, 3])
def test_local_gates_generate_the_local_group(n):
    axis_perms = itertools.permutations(range(1, n + 1))
    oracle = {_elem_columns(f, p) for f, p in itertools.product(
        itertools.product(GL22, repeat=n), axis_perms)}
    assert _local_group(n) == oracle
    assert len(oracle) == 6**n * math.factorial(n)


@pytest.mark.parametrize("n", [2, 3])
def test_generator_pair_generates_the_local_group(n):
    # a pair with the same orbits may still span a proper subgroup, so
    # compare the groups themselves, not only the partitions
    assert _closure(n, _generator_pair(n)) == _local_group(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_data_matches_the_local_gates_oracle(n):
    assert _orbit_data(n) == orbit_data_by_local_gates(n)


def test_orbit_data_is_one_byte_per_point_and_a_pair_per_orbit():
    # sorted member arrays per orbit held about 0.2 MB and peaked at about
    # 0.6 MB; as lists of ints the partition peaked at about 4 MB
    _orbit_data(4)  # the gates and their tables are cached outside the trace
    tracemalloc.start()
    try:
        assign, orbit_pairs = _orbit_data.__wrapped__(4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 << 10 and held < 100 << 10
    assert type(assign) is bytes and len(assign) == 1 << 16 and assign[0] == 255
    assert all(type(pair) is tuple and len(pair) == 2 for pair in orbit_pairs)
    assert sum(size for size, _ in orbit_pairs) == (1 << 16) - 1


def test_orbit_partition_rejects_an_orbit_that_meets_the_image_in_part(monkeypatch):
    # no real orbit does; drop one image point so that its orbit does
    dropped, *kept = _image_bits(3)
    rec = orbit_of_point(ProjPoint(3, dropped))
    monkeypatch.setattr(orbits, "_image_bits", lambda n: kept)
    message = f"^orbit {rec.orbit_id} meets the image in {rec.size - 1} of {rec.size} points$"
    with pytest.raises(MixedOrbitError, match=message):
        orbit_partition.__wrapped__(3)  # the cached partition stays the real one


def test_group_generators_are_involutions():
    for n in (2, 3, 4):
        for g in local_gates(n):
            assert all(apply_gate(g, apply_gate(g, bits)) == bits
                       for bits in range(1 << (1 << n)))


def test_group_order_formula():
    assert len(_local_group(2)) == 72
    assert len(_local_group(3)) == 1296


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
        seps = separable_tensors(n)
        assert len(seps) == 3**n
        assert set(orbit_members(n, orbit_of_point(ProjPoint(n, 1)).orbit_id)) == {
            ProjPoint(n, v) for v in seps}
        for v in seps:
            assert is_separable_by_flattenings(ProjPoint(n, v))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_separable_products_are_the_orbit_of_x_empty(n):
    # orbit_partition builds the separable tensors as the products of one
    # nonzero factor per axis and takes them to be the orbit of x_{} = 1
    assign, _ = _orbit_data(n)
    seps = [1]
    for i in range(n):
        seps = [u for t in seps for u in (t, t << (1 << i), t | t << (1 << i))]
    assert len(seps) == len(set(seps)) == 3**n
    assert sorted(seps) == [v for v, k in enumerate(assign) if k == assign[1]] == list(separable_tensors(n))


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_e_rank_matches_the_exclusive_minor_oracle(n):
    for p in image(n)[::37 if n == 5 else 1]:
        assert e_rank(p) == exclusive_minor_e_rank(p)


def test_e_rank_rejects_non_image_points():
    # at N = 5, x_{} = x_{12345} = 1 alone would need a chart matrix with
    # no nonzero 1x1 or 2x2 principal minor, so A = 0, and det A = 1
    for bad in (ProjPoint.from_string(3, "10001000"), ProjPoint(5, 1 | 1 << 31)):
        with pytest.raises(ValueError, match="exclusive rank is defined only on the image"):
            e_rank(bad)


def test_class_table_rows():
    for n, rows in CLASS_TABLE.items():
        # the rows label every image orbit, each once
        labels = [rec.reference_label for rec in classify_image(n)]
        assert sorted(labels, key=str) == sorted(row["label"] for row in rows) and len(set(labels)) == len(labels)
        for row in rows:
            p = ProjPoint.from_string(n, row["representative"])
            rec = orbit_of_point(p)
            assert rec.size == row["size"]
            assert to_observable(p).label() == row["observable"]
            assert t_rank(p) == row["t_rank"]
            assert e_rank(p) == row["e_rank"]


def test_class_table_sample_sets_project_into_the_same_orbit():
    # each row's sample set commutes, spans N dimensions and projects into
    # the row's orbit, onto its representative except at O14
    off_rep = []
    for n, rows in CLASS_TABLE.items():
        for row in rows:
            ops = [PauliPoint.from_label(s) for s in CLASS_SAMPLE_SETS[n][row["label"]]]
            assert len(ops) == n and all(commute(a, b) for a, b in itertools.combinations(ops, 2))
            assert rank([op.bits for op in ops]) == n
            p = project(embed(generator_from_operators(ops)))
            rep = ProjPoint.from_string(n, row["representative"])
            assert orbit_of_point(p).orbit_id == orbit_of_point(rep).orbit_id
            assert orbit_of_point(p).reference_label == row["label"]
            if p != rep:
                off_rep.append((n, row["label"], to_observable(p).label()))
    assert off_rep == [(4, "O14", "XXXIXIIZ")]


@pytest.mark.parametrize("n, count", [(2, 2), (3, 3), (4, 6)])
def test_graph_state_classes_are_the_image_orbits(n, count):
    # each class of graphs under local complementation and relabelling,
    # built without the gates, lies in one image orbit, one class per orbit;
    # a graph's point projects the rows Z_i X_j (j a neighbour of i)
    orbit_ids = [{orbit_of_point(project(embed(Generator(n, [1 << i | a << n for i, a in enumerate(adj)])))).orbit_id
                  for adj in cls} for cls in graph_classes(n)]
    assert len(orbit_ids) == count and all(len(ids) == 1 for ids in orbit_ids)
    assert sorted(ids.pop() for ids in orbit_ids) == [rec.orbit_id for rec in classify_image(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_image_orbits_oracle_matches_classify_image(n):
    assert [(len(m), min(m)) for m in image_orbits(n)] == [(r.size, r.representative.bits) for r in classify_image(n)]


def test_n5_image_orbits_are_the_graph_state_classes():
    # the closure of the image under the group leaves the image at no step:
    # its 11 orbits partition the 75,735 image points, and the graph classes
    # lie one per orbit, as at N <= 4
    orbits5 = image_orbits(5)
    assert [len(m) for m in orbits5] == [243, 486, 1620, 1620, 2430, 3240, 4860, 7776, 9720, 14580, 29160]
    orbit_of = {v: k for k, m in enumerate(orbits5) for v in m}
    assert orbit_of.keys() == set(_image_bits(5))
    orbit_ids = [{orbit_of[project(embed(Generator(5, [1 << i | a << 5 for i, a in enumerate(adj)]))).bits]
                  for adj in cls} for cls in graph_classes(5)]
    assert all(len(ids) == 1 for ids in orbit_ids)
    assert sorted(ids.pop() for ids in orbit_ids) == list(range(11))


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
    gates = local_gates(3)
    img = set(image(3))
    oracle = whole_space_t_ranks(3)
    for p in list(img)[::7]:
        for g in rng.sample(gates, 4):
            q = ProjPoint(3, apply_gate(g, p.bits))
            assert q in img
            assert oracle[q.bits] == oracle[p.bits]
            assert e_rank(q) == e_rank(p)
