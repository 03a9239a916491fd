"""Tests for the principal-coordinate projection, display ordering, the
observable map, and the chart-based inverse."""

import itertools
import random
import re
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli import projection
from lgrpauli.gf2 import minor, rref
from lgrpauli.pauli import (
    BITS_LETTER,
    Generator,
    PauliPoint,
    enumerate_generators,
    generator_count,
    generator_from_operators,
)
from lgrpauli.pluecker import (
    PlueckerVec,
    embed,
    lagrangian_constraints,
    principal_keys,
)
from lgrpauli.projection import (
    LOWER,
    SWAP,
    NotInImageError,
    ProjPoint,
    apply_gate,
    chart_matrix,
    chart_points,
    clifford_gates,
    display_masks,
    gate,
    image,
    lift,
    lift_table,
    project,
    to_chart,
    to_observable,
)
from pauli_helpers import principal_bits, subset_keys, y_count
from pluecker_oracles import SubsetIndex, constraint_value


@lru_cache(maxsize=None)
def sweep_generators(n: int) -> tuple[Generator, ...]:
    """Oracle: every maximal isotropic subspace, sorted by canonical basis.

    Every such subspace has a nonzero principal Plucker coordinate, hence
    is the image under a coordinate swap e_i <-> e_{N+i} (i in T) of the
    graph {e_i + sum_j a_ij e_{N+j}} of a symmetric matrix A.  Sweeping all
    2^N swap sets T and all symmetric A reaches every subspace; duplicates
    collapse on the canonical form.
    """
    pair_positions = [(i, j) for i in range(n) for j in range(i, n)]
    seen = set()
    for t_mask in range(1 << n):
        for code in range(1 << len(pair_positions)):
            a = [0] * n
            for k, (i, j) in enumerate(pair_positions):
                if (code >> k) & 1:
                    a[i] |= 1 << j
                    a[j] |= 1 << i
            raw = []
            for i in range(n):
                r = (1 << i) | (a[i] << n)
                for s in range(n):
                    if (t_mask >> s) & 1 and ((r >> s) ^ (r >> (n + s))) & 1:
                        r ^= (1 << s) | (1 << (n + s))
                raw.append(r)
            seen.add(tuple(rref(raw)))
    return tuple(Generator(n, rows) for rows in sorted(seen))


def clifford_orbit(n: int) -> set[int]:
    """Oracle: the image as the orbit of the point x_{} = 1 under the
    Clifford gates H, S and CZ, by breadth-first search."""
    gates = clifford_gates(n)
    seen, frontier = {1}, {1}
    while frontier:
        frontier = {apply_gate(g, v) for v in frontier for g in gates} - seen
        seen |= frontier
    return seen


def swap_lift(p: ProjPoint) -> Generator:
    """The graph of the chart matrix of H_T p, columns i <-> N+i swapped for i in T."""
    n = p.n_source
    t, q = to_chart(p)
    rows = [(1 << i) | (a << n) for i, a in enumerate(chart_matrix(q))]
    for i in range(n):
        if t >> i & 1:
            rows = [swap_columns(r, i, n + i) for r in rows]
    return Generator(n, rows)


@lru_cache(maxsize=None)
def constraint_messages(n: int) -> dict:
    return {c: f"input violates isotropy constraint {c}" for c in lagrangian_constraints(n)}


def project_oracle(v: PlueckerVec) -> ProjPoint | str:
    """``project`` as a per-constraint check: the message of the first
    constraint, in order, whose terms sum to 1 (``constraint_value``, term
    by term), else the principal coordinates, or the message for all
    of them vanishing."""
    n = v.n_qubits
    for c, msg in constraint_messages(n).items():
        if constraint_value(c, v):
            return msg
    bits = principal_bits(v)
    return ProjPoint(n, bits) if bits else "all principal coordinates vanish: input not Lagrangian"


def project_outcome(v: PlueckerVec) -> ProjPoint | str:
    try:
        return project(v)
    except ValueError as e:
        return str(e)


def observable_oracle(p: ProjPoint) -> PauliPoint:
    """``to_observable`` through letters: display coordinates k and k + 2^(N-1)
    are the bit pair of qubit k, and the label is parsed back."""
    db = p.display_bits()
    m = len(db) // 2
    return PauliPoint.from_label("".join(BITS_LETTER[(db[k], db[k + m])] for k in range(m)))


def swap_columns(r: int, a: int, b: int) -> int:
    d = ((r >> a) ^ (r >> b)) & 1
    return r ^ (d << a) ^ (d << b)


def add_column(r: int, src: int, dst: int) -> int:
    return r ^ (((r >> src) & 1) << dst)


def clifford_cases(n: int):
    """The gates of ``clifford_gates`` in order, each with its symplectic
    action on one basis row: H_i swaps columns i and N+i; S_i adds column i
    to N+i (A += E_ii); CZ_ij adds column j to N+i and column i to N+j
    (A += E_ij + E_ji)."""
    cases = [(gate(n, 0, 1 << i, SWAP), lambda r, i=i: swap_columns(r, i, n + i))
             for i in range(n)]
    cases += [(gate(n, 0, 1 << i, LOWER), lambda r, i=i: add_column(r, i, n + i))
              for i in range(n)]
    cases += [(gate(n, 0, (1 << i) | (1 << j), LOWER),
               lambda r, i=i, j=j: add_column(add_column(r, j, n + i), i, n + j))
              for i, j in itertools.combinations(range(n), 2)]
    return cases


def transposition_cases(n: int):
    """The gate exchanging axes k and k+1, with its action on a basis row:
    swap qubit columns k <-> k+1 and N+k <-> N+k+1."""
    return [(gate(n, 1 << k, 2 << k, SWAP),
             lambda r, k=k: swap_columns(swap_columns(r, k, k + 1), n + k, n + k + 1))
            for k in range(n - 1)]


def proj(ops):
    labels = [PauliPoint.from_label(s) for s in ops]
    return project(embed(generator_from_operators(labels)))


def test_principal_index_pairs_complementary_columns():
    # subset I of {1..N} -> columns ({1..N} minus I) union {N+i : i in I}
    def members(i_mask):
        return SubsetIndex.from_key(6, principal_keys(3)[i_mask]).members

    assert members(0b010) == (1, 3, 5)
    assert members(0b000) == (1, 2, 3)
    assert members(0b111) == (4, 5, 6)


def test_display_order_first_half_excludes_element_one():
    for n in (2, 3, 4):
        masks = display_masks(n)
        half = 1 << (n - 1)
        assert len(masks) == 2 * half
        assert all(not (m & 1) for m in masks[:half])
        assert all(m & 1 for m in masks[half:])
        # complements line up across halves
        full = (1 << n) - 1
        assert [full ^ m for m in masks[:half]] == list(masks[half:])


def test_display_order_n3_explicit():
    # positions 1..8 as subset masks over {1,2,3} (bit i-1 = element i)
    assert display_masks(3) == (0b000, 0b100, 0b010, 0b110,
                                0b111, 0b011, 0b101, 0b001)


def test_point_serialization_roundtrip():
    p = proj(["ZZI", "XXI", "IIX"])
    assert p.display_str() == "[0:0:0:1:0:0:1:0]"
    assert p.bit_string() == "00010010"
    assert ProjPoint.from_string(3, p.bit_string()) == p
    assert ProjPoint.from_string(3, p.display_str()) == p
    assert ProjPoint.from_string(3, "0x" + p.hex_string()) == p


# the documented point forms: display bits, colon form, ASCII hex
POINT_FORM = re.compile(r"[01]+|\[\s*[01]\s*(:\s*[01]\s*)*\]|0[xX][0-9a-fA-F]+")
point_texts = st.one_of(
    st.text(),
    st.text(alphabet="01:[] \t0xX_abcdefABCDEF9\u0661\uff10"),
    st.from_regex(r"\s*0[xX][0-9a-f_\u0661\uff10]{1,4}\s*", fullmatch=True),
    st.lists(st.sampled_from(["0", "1", " 1", "0 ", "2", ""]), min_size=1, max_size=17)
    .map(lambda parts: "[" + ":".join(parts) + "]"),
)


@given(st.integers(1, 4), point_texts)
def test_from_string_fuzz(n, text):
    try:
        p = ProjPoint.from_string(n, text)
    except ValueError:
        return
    assert POINT_FORM.fullmatch(text.strip())
    assert p.n_source == n
    for form in (p.bit_string(), p.display_str(), "0x" + p.hex_string()):
        assert ProjPoint.from_string(n, form) == p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_project_names_the_first_violated_constraint(n):
    # sparse tables on the N-subset keys, or on keys of any size, where bits
    # off the N-subsets must not count as violations
    rng = random.Random(n)
    pools = (subset_keys(2 * n, n), range(1 << (2 * n)))
    masks = {c: sum(1 << k for k in c.term_keys) for c in lagrangian_constraints(n)}
    rejected = vanished = 0
    for _ in range(2000):
        bits = rng.sample(pools[rng.randrange(2)], rng.randrange(1, 6))
        v = PlueckerVec(n, sum(1 << k for k in bits))
        expected = project_oracle(v)
        assert project_outcome(v) == expected
        assert all((v.table & m).bit_count() & 1 == constraint_value(c, v) for c, m in masks.items())
        rejected += isinstance(expected, str) and "isotropy" in expected
        vanished += isinstance(expected, str) and "vanish" in expected
    assert 0 < rejected < 2000 and vanished > 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contraction_matches_constraint_oracle_on_single_bit_flips(n):
    keys = subset_keys(2 * n, n)
    for g in enumerate_generators(n):
        t = embed(g).table
        for k in keys:
            v = PlueckerVec(n, t ^ (1 << k))
            assert project_outcome(v) == project_oracle(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_to_observable_matches_letter_oracle(n):
    rng = random.Random(n)
    size = 1 << n
    others = [ProjPoint(n, rng.randrange(1, 1 << size)) for _ in range(300)]
    for p in image(n) + tuple(others):
        assert to_observable(p) == observable_oracle(p)


def test_worked_examples():
    assert proj(["XI", "IX"]).display_str() == "[0:0:1:0]"
    assert to_observable(proj(["XI", "IX"])).label() == "XI"
    assert to_observable(proj(["ZX", "XZ"])).label() == "YI"
    assert to_observable(proj(["ZZI", "XXI", "IIX"])).label() == "IIXZ"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_injective(n):
    gens = enumerate_generators(n)
    assert len({project(embed(g)) for g in gens}) == len(gens)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_table_matches_sweep_oracle(n):
    oracle = {project(embed(g)): g for g in sweep_generators(n)}
    assert lift_table(n) == oracle
    assert image(n) == tuple(sorted(oracle))
    assert enumerate_generators(n) == sweep_generators(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_clifford_gates_equivariant(n):
    # project(embed(C.G)) == C.project(embed(G)) for every generator gate C
    # and axis transposition C, and every subspace G, with C.G the
    # symplectic action on the basis
    cases = clifford_cases(n)
    assert clifford_gates(n) == tuple(g for g, _ in cases)
    assert len(cases) == n + n + n * (n - 1) // 2
    for g in sweep_generators(n):
        p = project(embed(g))
        for gt, on_row in cases + transposition_cases(n):
            moved = Generator(n, [on_row(r) for r in g.rows])
            assert project(embed(moved)).bits == apply_gate(gt, p.bits)


def test_gate_rejects_overlapping_or_unordered_masks():
    for frm, to in ((1, 1), (0b011, 0b110), (2, 1), (0, 0)):
        with pytest.raises(ValueError):
            gate(3, frm, to, SWAP)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_table_matches_clifford_orbit_oracle(n):
    assert {p.bits for p in lift_table(n)} == clifford_orbit(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_points_are_the_principal_minors_of_each_code(n):
    # bit k of a code holds a_ii for k < N, then a_ij for i < j
    entries = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
    subsets = [[i + 1 for i in range(n) if m >> i & 1] for m in range(1 << n)]
    points = chart_points(n)
    assert len(points) == 1 << len(entries)
    for code, bits in enumerate(points):
        a = [0] * n
        for k, (i, j) in enumerate(entries):
            if code >> k & 1:
                a[i] |= 1 << j
                a[j] |= 1 << i
        assert bits == sum(minor(a, n, s, s) << m for m, s in enumerate(subsets))


def test_lift_table_checks_its_size(monkeypatch):
    assert len(lift_table(1)) == 3
    monkeypatch.setattr(projection, "generator_count", lambda n: generator_count(n) + 1)
    with pytest.raises(RuntimeError, match="15 points from 15 hits, expected 16"):
        lift_table.__wrapped__(2)


def test_to_chart_reaches_the_chart_by_hadamards():
    for p in image(4):
        t, q = to_chart(p)
        assert (p.bits >> t) & 1 and not p.bits & ((1 << t) - 1)
        assert q.bits & 1 and q in lift_table(4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_round_trip(n):
    for p in image(n):
        g = lift(p)
        assert project(embed(g)) == p


def test_chart_matrix_reconstruction():
    # chart points: the rows form a symmetric matrix whose principal minors
    # reproduce the coordinates
    for n in (2, 3, 4):
        for p in image(n):
            if not p.bits & 1:
                continue
            a = chart_matrix(p)
            assert len(a) == n
            assert all((a[i] >> j) & 1 == (a[j] >> i) & 1 for i in range(n) for j in range(n))
            for m in range(1 << n):
                subset = [i + 1 for i in range(n) if (m >> i) & 1]
                assert minor(a, n, subset, subset) == (p.bits >> m) & 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_lift_agrees_with_lift(n):
    for p in image(n):
        assert swap_lift(p) == lift(p)


def test_lift_rejects_non_image_points():
    # a point failing the variety test for N=3
    bad = ProjPoint.from_display_bits((1, 0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(NotInImageError):
        lift(bad)


def test_observable_even_y_count_on_image():
    for n in (3, 4):
        for p in image(n):
            assert y_count(to_observable(p)) % 2 == 0


def test_from_display_bits_rejects_entries_other_than_0_or_1():
    for bits in ((3, 0, 0, 0), (0, 0, 2, 0), (1, 0, -1, 0)):
        with pytest.raises(ValueError):
            ProjPoint.from_display_bits(bits)
    assert ProjPoint.from_display_bits((1, 0, 0, 0)).display_str() == "[1:0:0:0]"


def test_image_sizes():
    assert len(image(2)) == 15
    assert len(image(3)) == 135
    assert len(image(4)) == 2295
