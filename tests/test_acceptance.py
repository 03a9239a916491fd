"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s to see them).  All comparisons are
exact integer or set equality; no tolerances anywhere."""

from lgrpauli.orbits import (
    CLASS_TABLE,
    classify_image,
    e_rank,
    orbit_of_point,
    orbit_partition,
    t_rank,
)
from lgrpauli.pauli import (
    PauliPoint,
    generator_count,
    symplectic_product,
)
from lgrpauli.pluecker import (
    constraint_rank,
    embed,
    lagrangian_constraints,
    pluecker_relations,
)
from lgrpauli.projection import ProjPoint, enumerate_generators, lift, project, to_observable
from lgrpauli.quadrics import (
    _image_columns,
    _values,
    cayley_quadric,
    pairing_quadric,
    quadric_orbit,
    variety_quadrics,
    verify_variety,
)
from orbit_oracles import chart_points_of_orbit, orbit_members, whole_space_t_ranks
from pauli_helpers import all_points, principal_bits, quad_form, y_count
from pluecker_oracles import constraint_terms, constraint_value, relation_terms, relation_value
from projection_oracles import image
from quadric_oracles import value_at, whole_space_zeros


def report(name, ok, detail=""):
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_generator_counts():
    expected = {2: 15, 3: 135, 4: 2295, 5: 75735}
    got = {n: len(enumerate_generators(n)) for n in expected}
    closed = {n: generator_count(n) for n in expected}
    report(
        "1 generator counts",
        got == expected == closed,
        f"{got}",
    )


def test_criterion_2_bijectivity():
    ok = True
    details = []
    for n in (1, 2, 3, 4, 5):
        gens = enumerate_generators(n)
        tables = [embed(g) for g in gens]
        points = [project(v) for v in tables]
        img = set(points)
        ok &= len(img) == len(gens)
        # the principal coordinates read key by key agree with project's slice
        ok &= all(p.bits == principal_bits(n, v.table) for p, v in zip(points, tables))
        # the per-constraint oracle accepts every table the vectors hold:
        # each constraint's terms, summed through one mask, vanish
        masks = [sum(1 << k for k in c.term_keys) for c in lagrangian_constraints(n)]
        ok &= not any((v.table & m).bit_count() & 1 for v in tables for m in masks)
        details.append(f"N={n}: {len(img)}/{len(gens)} distinct")
    for n in (2, 3, 4, 5):
        ok &= all(project(embed(lift(p))) == p for p in image(n))
        details.append(f"N={n} lift round-trip")
    report("2 bijectivity", ok, "; ".join(details))


def test_criterion_3_image_identification():
    full_pg32 = {ProjPoint(2, b) for b in range(1, 16)}
    ok2 = set(image(2)) == full_pg32
    reps = {n: verify_variety(n) for n in (2, 3, 4, 5)}
    zeros3 = whole_space_zeros(variety_quadrics(3), 3).bit_count()
    zeros4 = whole_space_zeros(variety_quadrics(4), 4).bit_count()
    pairing = pairing_quadric(4)
    q0_ok = all(value_at(pairing, p.bits) == 0 for p in image(4))
    ok = (
        ok2
        and all(rep.matches and rep.zero_set_size == 1 << n * (n - 1) // 2 for n, rep in reps.items())
        and zeros3 == 135
        and zeros4 == 2295
        and q0_ok
    )
    report(
        "3 image identification",
        ok,
        f"N=2 full space {ok2}; N=3 zero set {zeros3}; N=4 zero set {zeros4}; "
        f"slice zeros {[rep.zero_set_size for rep in reps.values()]}; Q0 vanishes {q0_ok}",
    )


def test_criterion_4_relation_and_constraint_counts():
    rels = pluecker_relations(3)
    three = sum(1 for r in rels if len(relation_terms(r)) == 3)
    four = sum(1 for r in rels if len(relation_terms(r)) == 4)
    ranks = {n: constraint_rank(n) for n in (2, 3, 4)}
    three_term_4 = [c for c in lagrangian_constraints(4) if len(constraint_terms(c)) == 3]
    total = set()
    for c in three_term_4:
        total ^= set(c.term_keys)
    ok = (
        three == 30
        and four == 5
        and ranks == {2: 1, 3: 6, 4: 27}
        and len(three_term_4) == 4
        and total == set()
    )
    report(
        "4 relation/constraint counts",
        ok,
        f"N=3 relations {three}+{four}; constraint ranks {ranks}; "
        f"N=4 three-term constraints sum to zero: {total == set()}",
    )


def test_criterion_5_orbit_stratification():
    s2 = sorted(r.size for r in orbit_partition(2))
    s3 = sorted(r.size for r in orbit_partition(3))
    i3 = sorted(r.size for r in classify_image(3))
    n4 = len(orbit_partition(4))
    i4 = sorted(r.size for r in classify_image(4))
    ok = (
        s2 == [6, 9]
        and s3 == [12, 27, 54, 54, 108]
        and i3 == [27, 54, 54]
        and n4 == 29
        and i4 == [81, 108, 162, 324, 648, 972]
        and sum(i4) == 2295
    )
    report(
        "5 orbit stratification",
        ok,
        f"N=2 {s2}; N=3 {s3} image {i3}; N=4 {n4} orbits image {i4}",
    )


def test_criterion_6_table_reproduction():
    ok = True
    rows_checked = 0
    for n, rows in CLASS_TABLE.items():
        for row in rows:
            p = ProjPoint.from_string(n, row["representative"])
            rec = orbit_of_point(p)
            ok &= rec.size == row["size"]
            ok &= to_observable(p).label() == row["observable"]
            ok &= t_rank(p) == row["t_rank"]  # layered search on the orbit quotient
            ok &= e_rank(p) == row["e_rank"]  # largest cut rank of the lifted generator
            rows_checked += 1
    report("6 table reproduction", ok and rows_checked == 11,
           f"{rows_checked} rows")


def test_criterion_7_cayley_orbit():
    quads = variety_quadrics(4)
    q0 = quads[8] + quads[9]
    orb = quadric_orbit(cayley_quadric(4))
    expected = {q0} | set(quads[:8])
    ok4 = orb == expected and quads[8] not in orb and quads[9] not in orb
    ok3 = cayley_quadric(3) == pairing_quadric(3)
    report(
        "7 Cayley orbit",
        ok4 and ok3,
        f"N=4 reduced closure = {{Q0..Q8}}: {ok4}; N=3 equals defining "
        f"quadric: {ok3}",
    )


def test_criterion_8_property_suites():
    ok = True
    # symplectic form alternating and bilinear (exhaustive N=2)
    pts2 = all_points(2)
    ok &= all(symplectic_product(a, a) == 0 for a in pts2)
    for a in pts2:
        for b in pts2:
            ok &= symplectic_product(a, b) == symplectic_product(b, a)
            s = a.bits ^ b.bits
            if s:
                c = PauliPoint(2, s)
                ok &= quad_form(c) == (
                    quad_form(a) ^ quad_form(b) ^ symplectic_product(a, b)
                )
    # quadratic form value = Y-parity for all points, N <= 4
    for n in (1, 2, 3, 4):
        ok &= all(quad_form(p) == y_count(p) % 2 for p in all_points(n))
    # every embedded generator annihilates every relation and constraint
    for n in (2, 3):
        rels = pluecker_relations(n)
        cons = lagrangian_constraints(n)
        for g in enumerate_generators(n):
            v = embed(g)
            ok &= all(relation_value(r, v) == 0 for r in rels)
            ok &= all(constraint_value(c, v.table) == 0 for c in cons)
    # whole-space t_rank constant on orbits and equal to the orbit record
    # (exhaustive N <= 4)
    for n in (2, 3, 4):
        oracle = whole_space_t_ranks(n)
        for rec in orbit_partition(n):
            ok &= {oracle[p.bits] for p in orbit_members(n, rec.orbit_id)} == {
                rec.t_rank
            }
    # e_rank constant over all chart points of each image orbit (N <= 4)
    for n in (2, 3, 4):
        for rec in classify_image(n):
            charts = chart_points_of_orbit(rec.representative)
            ok &= bool(charts)
            ok &= {e_rank(p) for p in charts} == {rec.e_rank}
    # image observables have even Y-count (N in {3,4})
    for n in (3, 4):
        ok &= all(y_count(to_observable(p)) % 2 == 0 for p in image(n))
    report("8 property suites", ok)


def test_criterion_9_n5_reported_checks():
    # point-level bijectivity at N=5 is asserted (also part of criterion 2);
    # the pairing-quadric behaviour on the N=5 image is REPORTED, not
    # asserted: deriving the N=5 equations is explicitly out of scope.
    gens = enumerate_generators(5)
    img = image(5)
    ok = len(img) == len(gens) == 75735
    pairing = pairing_quadric(5)
    vanish = len(img) - _values(pairing, _image_columns(5)).bit_count()
    report(
        "9 N=5 coverage",
        ok,
        f"bijective on {len(img)} points; pairing quadric vanishes on "
        f"{vanish}/{len(img)} image points [reported, not asserted]",
    )
