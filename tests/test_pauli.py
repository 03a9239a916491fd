"""Tests for the binary symplectic Pauli encoding and the enumeration of
maximal commuting families."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli.pauli import (
    CommutationError,
    Generator,
    LabelError,
    NotMaximalError,
    PauliPoint,
    commute,
    enumerate_generators,
    generator_count,
    generator_from_operators,
    symplectic_product,
)
from lgrpauli.gf2 import rank, rref
from lgrpauli.pluecker import embed
from pauli_helpers import all_points, generator_points, label_oracle, quad_form, y_count
from pluecker_oracles import bitwise_wedge, rref_generator_rows


def points(n):
    return st.integers(1, (1 << (2 * n)) - 1).map(lambda b: PauliPoint(n, b))


def test_label_roundtrip():
    for s in ("XI", "YZ", "IIX", "ZZZZ", "IXYZ"):
        assert PauliPoint.from_label(s).label() == s
    assert PauliPoint.from_label("+XI").label() == "XI"
    assert PauliPoint.from_label("-XI").label() == "XI"


def test_label_matches_letter_loop_oracle():
    # four-qubit chunks, so lengths that are not multiples of 4 are included
    rng = random.Random(20)
    for n in range(1, 21):
        top = 1 << (2 * n)
        extremes = [1, top - 1, top >> 1, 1 << (n - 1), 1 << n]
        for bits in extremes + [rng.randrange(1, top) for _ in range(50)]:
            p = PauliPoint(n, bits)
            assert p.label() == label_oracle(p)
            assert PauliPoint.from_label(p.label()) == p


def test_bad_labels():
    for s in ("", "AB", "X I", "x"):
        with pytest.raises(LabelError):
            PauliPoint.from_label(s)


@given(st.one_of(st.text(), st.text(alphabet="IXYZ+-\u2212xi ")))
def test_from_label_fuzz(s):
    try:
        p = PauliPoint.from_label(s)
    except LabelError:
        return
    assert (s[1:] if s[:1] in ("+", "-", "\u2212") else s) == p.label()
    assert PauliPoint.from_label(p.label()) == p


def test_letter_bit_convention():
    p = PauliPoint.from_label("XYZ")
    # qubit i letters: X=(0,1), Y=(1,1), Z=(1,0) as (x_i, x_{N+i})
    t = [(p.bits >> j) & 1 for j in range(6)]
    assert (t[0], t[3]) == (0, 1)
    assert (t[1], t[4]) == (1, 1)
    assert (t[2], t[5]) == (1, 0)


def test_commutation_matches_letterwise_rule():
    # two Pauli operators commute iff they differ on an even number of
    # qubits where both act non-trivially with different letters
    for a in all_points(2):
        for b in all_points(2):
            la, lb = a.label(), b.label()
            anti = sum(
                1
                for x, y in zip(la, lb)
                if x != "I" and y != "I" and x != y
            )
            assert commute(a, b) == (anti % 2 == 0)


@given(points(3), points(3))
def test_symplectic_product_symmetric_alternating(a, b):
    assert symplectic_product(a, b) == symplectic_product(b, a)
    assert symplectic_product(a, a) == 0


@given(points(3), points(3), points(3))
def test_symplectic_product_bilinear(a, b, c):
    n = a.n_qubits
    if b.bits == c.bits:
        return
    bc = PauliPoint(n, b.bits ^ c.bits)
    assert symplectic_product(a, bc) == (
        symplectic_product(a, b) ^ symplectic_product(a, c)
    )


def test_quad_form_is_y_parity():
    for n in (1, 2, 3, 4):
        for p in all_points(n):
            assert quad_form(p) == y_count(p) % 2


def test_quad_form_polarizes_to_symplectic_product():
    for a in all_points(2):
        for b in all_points(2):
            s = a.bits ^ b.bits
            qs = quad_form(PauliPoint(2, s)) if s else 0
            assert qs == (quad_form(a) ^ quad_form(b) ^ symplectic_product(a, b))


@pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
def test_generator_counts_small(n, count):
    gens = enumerate_generators(n)
    assert len(gens) == count == generator_count(n)
    assert len(set(gens)) == count


@pytest.mark.parametrize("n", [0, 6])
def test_enumeration_outside_one_to_five_rejected(n):
    with pytest.raises(ValueError):
        enumerate_generators(n)


def test_count_formula_is_product_of_shifted_powers():
    for n in range(1, 7):
        prod = 1
        for i in range(1, n + 1):
            prod *= (1 << i) + 1
        assert generator_count(n) == prod


def test_generators_are_maximal_isotropic():
    for g in enumerate_generators(3):
        pts = generator_points(g)
        assert len(pts) == 7  # 2^3 - 1 nonzero vectors
        for a, b in itertools.combinations(pts, 2):
            assert commute(a, b)


def test_every_commuting_pair_everywhere():
    # sanity on one explicit family
    g = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("ZZI", "XXI", "IIX")]
    )
    labels = {p.label() for p in generator_points(g)}
    assert labels == {"ZZI", "XXI", "YYI", "IIX", "ZZX", "XXX", "YYX"}


def test_point_rejects_bits_outside_one_to_four_to_the_n():
    for bits in (0, 0b10000, 0b10001, -1):
        with pytest.raises(ValueError):
            PauliPoint(2, bits)


def test_generator_rejects_rows_wider_than_2n():
    for rows in ((0b10001, 0b0010), (0b0001, -1), (0, 0, 1 << 4)):
        with pytest.raises(ValueError, match="^basis rows must have at most 4 bits$"):
            Generator(2, rows)


def test_generator_equal_spans_are_equal():
    # ZZ, IZ and IZ, ZI span the same plane, in any order
    a, b, c = Generator(2, (3, 2)), Generator(2, (1, 2)), Generator(2, (2, 1))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a.rows == (1, 2) and repr(a) == "Generator(2, (1, 2))"
    for g in enumerate_generators(3):
        other = (g.rows[2], g.rows[0] ^ g.rows[1], g.rows[1] ^ g.rows[2])
        assert Generator(3, other) == g and hash(Generator(3, other)) == hash(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_rows_are_rref_and_table_is_their_wedge(n):
    for g in enumerate_generators(n):
        rows = g.rows
        assert len(rows) == n and rows == tuple(rref(rows))
        assert embed(g).table == g.table == bitwise_wedge(rows, 2 * n)


def test_generator_edge_inputs():
    # N + 1 independent rows: the rank is reported, above N
    with pytest.raises(NotMaximalError, match="^subspace has rank 3, expected 2$"):
        Generator(2, (1, 2, 4))
    with pytest.raises(NotMaximalError, match="^subspace has rank 6, expected 5$"):
        Generator(5, (1, 2, 4, 8, 16, 32))
    # zero and repeated rows are accepted and dropped
    assert Generator(2, (0, 1, 0, 2, 1, 3)) == Generator(2, (1, 2))
    # N = 1 has no pair of rows to check: every line is isotropic
    assert [Generator(1, (r,)).rows for r in (1, 2, 3)] == [(1,), (2,), (3,)]
    # an anticommuting, rank-deficient set names its first pair in
    # combinations order
    ops = [PauliPoint.from_label(s) for s in ("IXI", "XII", "IXI", "ZII")]
    with pytest.raises(CommutationError) as ei:
        generator_from_operators(ops)
    assert [p.label() for p in ei.value.pair] == ["XII", "ZII"]
    g = Generator(2, (1, 2))
    with pytest.raises(AttributeError):
        g.rows = (1, 2)


def rows_outcome(make, n, rows):
    try:
        return make(n, rows)
    except ValueError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_agrees_with_rref_constructor_on_random_rows(n):
    # random rows, or a Lagrangian basis padded with rows of its span, maybe
    # with one bit flipped; now and then a row too wide or negative
    rng = random.Random(100 + n)
    outcomes = set()
    for _ in range(600):
        if rng.randrange(3):
            rows = random_lagrangian_rows(rng, n)
            for _ in range(rng.randrange(3)):
                rows.append(rows[rng.randrange(n)] ^ rows[rng.randrange(n)])
            rng.shuffle(rows)
            if rng.randrange(2):
                rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(2 * n)
        else:
            rows = [rng.randrange(1 << 2 * n) for _ in range(rng.randrange(n + 3))]
        if rows and not rng.randrange(20):
            rows[rng.randrange(len(rows))] = rng.choice([-1, 1 << 2 * n, -(1 << n)])
        expected = rows_outcome(rref_generator_rows, n, rows)
        got = rows_outcome(lambda n, rows: Generator(n, rows).rows, n, rows)
        assert got == expected, rows
        outcomes.add(expected[0] if isinstance(expected[0], str) else "ok")
    assert outcomes == {"ok", "NotMaximalError", "ValueError"}


def test_generator_rank_deficient_basis_raises_not_maximal():
    for rows in ((0, 0), (1, 1), (3, 3, 0), (1,)):
        with pytest.raises(NotMaximalError):
            Generator(2, rows)


def test_non_commuting_rejected_with_pair():
    # XII and ZII also span only 2 of 3 dimensions: the pair is reported first
    for labels in (("XI", "ZI"), ("XII", "ZII")):
        ops = [PauliPoint.from_label(s) for s in labels]
        with pytest.raises(CommutationError) as ei:
            generator_from_operators(ops)
        assert [p.label() for p in ei.value.pair] == list(labels)
        assert str(ei.value) == f"operators {labels[0]} and {labels[1]} do not commute"


def test_first_anticommuting_pair_in_input_order_is_reported():
    # (XIIII, ZIIII) at positions 0, 3 comes before (IZIII, IXIII) at 1, 2;
    # with IIIIX the rank is full, without it deficient
    for labels in (("XIIII", "IZIII", "IXIII", "ZIIII", "IIIIX"),
                   ("XIIII", "IZIII", "IXIII", "ZIIII")):
        with pytest.raises(CommutationError) as ei:
            generator_from_operators([PauliPoint.from_label(s) for s in labels])
        assert [p.label() for p in ei.value.pair] == ["XIIII", "ZIIII"]


def random_lagrangian_rows(rng: random.Random, n: int) -> list[int]:
    """The Z basis moved by random symplectic transvections x -> x + <x, v> v."""
    rows = [1 << i for i in range(n)]
    for _ in range(4 * n):
        v = PauliPoint(n, rng.randrange(1, 1 << (2 * n)))
        rows = [r ^ v.bits if symplectic_product(PauliPoint(n, r), v) else r for r in rows]
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_isotropy_check_agrees_with_symplectic_product(n):
    rng = random.Random(n)
    outcomes = set()
    for _ in range(300):
        rows = random_lagrangian_rows(rng, n)
        if rng.randrange(2):  # one flipped bit, which may break isotropy or rank
            rows[rng.randrange(n)] ^= 1 << rng.randrange(2 * n)
        pts = [PauliPoint(n, r) for r in rows if r]
        isotropic = not any(symplectic_product(a, b) for a, b in itertools.combinations(pts, 2))
        if rank(rows) < n:
            expected = "NotMaximalError"
            with pytest.raises(NotMaximalError):
                Generator(n, rows)
        elif isotropic:
            expected = "ok"
            Generator(n, rows)
        else:
            expected = "basis is not totally isotropic"
            with pytest.raises(ValueError, match=expected):
                Generator(n, rows)
        outcomes.add(expected)
    assert len(outcomes) == 3


def test_non_maximal_rejected():
    ops = [PauliPoint.from_label(s) for s in ("XI", "XI")]
    with pytest.raises(NotMaximalError):
        generator_from_operators(ops)


def test_mixed_qubit_counts_rejected():
    ops = [PauliPoint.from_label("XI"), PauliPoint.from_label("XII")]
    with pytest.raises(ValueError):
        generator_from_operators(ops)


def test_generator_canonical_form_unique():
    # spanning sets of the same subspace give the same Generator
    a = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("ZZI", "XXI", "IIX")]
    )
    b = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("YYI", "XXI", "ZZX")]
    )
    assert a == b


def test_enumeration_covers_operator_families():
    # every maximal commuting family containing XI on 2 qubits appears
    gens = set(enumerate_generators(2))
    found = {g for g in gens if PauliPoint.from_label("XI") in generator_points(g)}
    assert len(found) == 3  # XI centralizer mod <XI> has 3 Lagrangian lines
