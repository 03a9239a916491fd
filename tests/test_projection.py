"""Tests for the principal-coordinate projection, display ordering, the
observable map, and the chart-based inverse."""

import itertools
import random
import re
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli.gf2 import BinMat, _rref_ints
from lgrpauli.pauli import (
    Generator,
    PauliPoint,
    enumerate_generators,
    generator_from_operators,
)
from lgrpauli.pluecker import PlueckerVec, embed, lagrangian_constraints, subset_keys
from lgrpauli.projection import (
    LOWER,
    SWAP,
    NotInImageError,
    ProjPoint,
    apply_gate,
    chart_generator,
    chart_matrix,
    clifford_gates,
    display_masks,
    gate,
    image,
    lift,
    lift_table,
    principal_index,
    project,
    to_chart,
    to_observable,
)


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
            seen.add(tuple(_rref_ints(raw)))
    return tuple(Generator(n, BinMat(2 * n, rows)) for rows in sorted(seen))


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
    idx = principal_index(3, {2})
    assert idx.members == (1, 3, 5)
    idx = principal_index(3, set())
    assert idx.members == (1, 2, 3)
    idx = principal_index(3, {1, 2, 3})
    assert idx.members == (4, 5, 6)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_project_names_the_first_violated_constraint(n):
    rng = random.Random(n)
    keys = subset_keys(2 * n, n)
    for _ in range(200):
        v = PlueckerVec(n, sum(1 << k for k in rng.sample(keys, rng.randrange(1, 6))))
        violated = [c for c in lagrangian_constraints(n) if c.evaluate(v)]
        if not violated:
            continue
        with pytest.raises(ValueError) as exc:
            project(v)
        assert str(exc.value) == f"input violates isotropy constraint {violated[0]}"


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
            rows = tuple(on_row(r) for r in g.basis.rows)
            moved = Generator.from_basis(BinMat(2 * n, rows), n)
            assert project(embed(moved)).bits == apply_gate(gt, p.bits)


def test_gate_rejects_overlapping_or_unordered_masks():
    for frm, to in ((1, 1), (0b011, 0b110), (2, 1), (0, 0)):
        with pytest.raises(ValueError):
            gate(3, frm, to, SWAP)


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
    # chart points: the symmetric matrix's principal minors reproduce
    # the display coordinates
    for p in image(3):
        if not p.bits & 1:
            continue
        a = chart_matrix(p)
        for m in range(1 << 3):
            subset = [i + 1 for i in range(3) if (m >> i) & 1]
            assert a.principal_minor(subset) == (p.bits >> m) & 1


def test_chart_generator_agrees_with_lift():
    for p in image(3):
        if p.bits & 1:
            assert chart_generator(p) == lift(p)


def test_lift_rejects_non_image_points():
    # a point failing the variety test for N=3
    bad = ProjPoint.from_display_bits((1, 0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(NotInImageError):
        lift(bad)


def test_observable_even_y_count_on_image():
    for n in (3, 4):
        for p in image(n):
            assert to_observable(p).y_count() % 2 == 0


def test_image_sizes():
    assert len(image(2)) == 15
    assert len(image(3)) == 135
    assert len(image(4)) == 2295
