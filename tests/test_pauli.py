"""Tests for the binary symplectic Pauli encoding and the enumeration of
maximal commuting families."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli.pauli import (
    CommutationError,
    Generator,
    LabelError,
    NotMaximalError,
    PauliPoint,
    all_points,
    commute,
    enumerate_generators,
    generator_count,
    generator_from_operators,
    generator_points,
    quad_form,
    symplectic_product,
)


def points(n):
    return st.integers(1, (1 << (2 * n)) - 1).map(lambda b: PauliPoint.from_bits(n, b))


def test_label_roundtrip():
    for s in ("XI", "YZ", "IIX", "ZZZZ", "IXYZ"):
        assert PauliPoint.from_label(s).label() == s
    assert PauliPoint.from_label("+XI").label() == "XI"
    assert PauliPoint.from_label("-XI").label() == "XI"


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
    t = p.coords.to_tuple()
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
    if b.coords.bits == c.coords.bits:
        return
    bc = PauliPoint.from_bits(n, b.coords.bits ^ c.coords.bits)
    assert symplectic_product(a, bc) == (
        symplectic_product(a, b) ^ symplectic_product(a, c)
    )


def test_quad_form_is_y_parity():
    for n in (1, 2, 3, 4):
        for p in all_points(n):
            assert quad_form(p) == p.y_count() % 2


def test_quad_form_polarizes_to_symplectic_product():
    for a in all_points(2):
        for b in all_points(2):
            s = a.coords.bits ^ b.coords.bits
            qs = quad_form(PauliPoint.from_bits(2, s)) if s else 0
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


def test_non_commuting_rejected_with_pair():
    ops = [PauliPoint.from_label(s) for s in ("XI", "ZI")]
    with pytest.raises(CommutationError) as ei:
        generator_from_operators(ops)
    assert {p.label() for p in ei.value.pair} == {"XI", "ZI"}


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
