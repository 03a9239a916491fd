"""Tests for the defining quadratic forms of the projected image and the
reduced closure of the distinguished four-monomial quadric."""

import hashlib
import random
import re
from functools import lru_cache
from math import comb

import pytest

from lgrpauli import projection, quadrics
from lgrpauli.cli import EXIT_VERIFY, main
from lgrpauli.gf2 import rank
from lgrpauli.projection import ProjPoint, clifford_gates, local_gates
from lgrpauli.quadrics import (
    QuadForm,
    _act,
    _form,
    _slice_zeros,
    _span_closure,
    _upper,
    cayley_quadric,
    pairing_quadric,
    quadric_orbit,
    vanishes_on_image,
    vanishing_quadrics,
    variety_quadrics,
    verify_variety,
)
from gf2_oracles import rref
from projection_oracles import image
from quadric_oracles import (
    cayley_by_pluecker_triples,
    display_pairing,
    display_rows,
    from_monomials,
    kernel_vanishing_quadrics,
    min_weight_basis,
    monomials,
    on_slice,
    orbit_closure,
    spans,
    substitute,
    value_at,
    vanishing_basis,
    whole_space_zeros,
    zero_set,
)
from test_cli import fresh_stdout


def test_quadform_algebra():
    a = _form(2, (1, 2), (3, 4))
    b = _form(2, (3, 4), (1, 3))
    assert (a + b).sorted_monomials() == [(1, 2), (1, 3)]
    assert (a + a).bits == 0 and str(a + a) == "0"
    # squares reduce to the affine value: (a, a) behaves as x_a
    sq = _form(2, (2, 2))
    assert str(sq) == "x2"
    assert value_at(sq, ProjPoint.from_string(2, "0100").bits) == 1
    assert value_at(sq, ProjPoint.from_string(2, "1011").bits) == 0


def test_quadform_rejects_bits_outside_the_monomials():
    for bits in (-1, 1 << ((1 << 2) | 0), 1 << 16):  # a > b, index >= 2^(2N)
        with pytest.raises(ValueError):
            QuadForm(2, bits)
    for pair in ((0, 1), (1, 5)):
        with pytest.raises(ValueError):
            _form(2, pair)
    with pytest.raises(ValueError):
        pairing_quadric(6)
    with pytest.raises(ValueError):
        _form(2, (1, 2)) + _form(3, (1, 2))


def test_pairing_quadric_pairs_opposite_halves():
    q = pairing_quadric(3)
    assert q.sorted_monomials() == [(1, 5), (2, 6), (3, 7), (4, 8)]
    assert str(q) == "x1*x5 + x2*x6 + x3*x7 + x4*x8"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pairing_quadric_equals_the_display_pair_oracle(n):
    # sum_S x_S x_{S^c} over the subsets S without element 1, read off
    # their masks, is the display pairing of each x_k with x_{k + 2^(N-1)}
    assert pairing_quadric(n) == display_pairing(n)


def test_n3_variety_is_hyperbolic_quadric():
    rep = verify_variety(3)
    assert (rep.quadric_count, rep.zero_set_size, rep.image_size, rep.closed, rep.matches) == (1, 8, 8, True, True)
    assert whole_space_zeros(variety_quadrics(3), 3).bit_count() == len(image(3)) == 135


def test_n4_variety_cut_out_by_ten_quadrics():
    rep = verify_variety(4)
    assert (rep.quadric_count, rep.zero_set_size, rep.image_size, rep.closed, rep.matches) == (10, 64, 64, True, True)
    assert whole_space_zeros(variety_quadrics(4), 4).bit_count() == len(image(4)) == 2295


def test_n5_variety_is_certified_by_its_66_derived_forms():
    # 2^(N(N-1)/2) = 1024 graph points of zero-diagonal matrices on the slice
    rep = verify_variety(5)
    assert (rep.quadric_count, rep.zero_set_size, rep.image_size, rep.closed, rep.matches) == (
        66, 1024, 1024, True, True)


def test_n5_forms_keep_their_text_and_order():
    # the SHA-256 of the 66 forms as printed, one per line (2548 bytes):
    # their text reads the display numbering and their order sorts by it
    text = "".join(f"{q}\n" for q in variety_quadrics(5))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f17322671338aa7fd55a6c7c89caa24a83211be41dc0f3fc7a0ec0004a044bcc")


@pytest.mark.parametrize("n", [2, 5])
def test_variety_reads_the_image_columns_alone(monkeypatch, n):
    # the derived forms and the certificate come from ``_image_columns``;
    # no ProjPoint view of the image is built, and ``image`` is the oracle
    def no_image(n):
        raise AssertionError("the image's ProjPoints were built")

    expected = tuple(image_quadrics(n))
    monkeypatch.setattr(projection, "image", no_image)
    assert not hasattr(quadrics, "image")
    assert quadrics.variety_quadrics.__wrapped__(n) == variety_quadrics(n) == expected
    assert verify_variety(n).matches


def test_dropping_q1_fails_the_variety_check_through_the_gate_closure_alone(capsys, monkeypatch):
    # Q2..Q10 vanish on the image and have its 64 zeros on the slice, but
    # 2415 zeros in the whole space, not 2295: only the closure sees it
    quads = variety_quadrics(4)[1:]
    bits = [q.bits for q in quads]
    assert all(map(vanishes_on_image, quads))
    assert rank(bits + [_act(4, g, b) for g in clifford_gates(4) for b in bits]) > rank(bits)
    assert _slice_zeros(4, quads) == 64
    assert whole_space_zeros(quads, 4).bit_count() == 2415
    monkeypatch.setattr(quadrics, "variety_quadrics", lambda n: quads)
    rep = verify_variety(4)
    assert (rep.quadric_count, rep.zero_set_size, rep.image_size, rep.closed, rep.matches) == (9, 64, 64, False, False)
    assert main(["verify", "--n", "4", "--suite", "variety"]) == EXIT_VERIFY
    assert capsys.readouterr() == ("", (
        "[variety] quadric count 9: vanish on the image, span closed under the gates: FAIL\n"
        "[variety] slice: zeros 64 == image 64: PASS\n"
        "[variety] pairing quadric vanishes on the image: PASS\n"))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slice_zeros_match_the_whole_space_walk_on_the_slice(n):
    explicit = [variety_quadrics(n), (pairing_quadric(n),), (_form(n, (1, 2)),)]
    randoms = _random_forms(n, 12)
    for forms in explicit + [randoms[k:k + 1] for k in range(6)] + [randoms[6:9], randoms[9:]]:
        assert _slice_zeros(n, forms) == on_slice(n, whole_space_zeros(forms, n))


def test_n4_pairing_quadric_is_sum_of_last_two():
    quads = variety_quadrics(4)
    assert quads[8] + quads[9] == pairing_quadric(4)
    for p in image(4):
        assert value_at(pairing_quadric(4), p.bits) == 0


def test_all_n4_quadrics_vanish_on_image():
    quads = variety_quadrics(4)
    for p in image(4):
        for q in quads:
            assert value_at(q, p.bits) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_vanishing_quadrics_match_declared_generators(n):
    # the paper's forms are exactly the reduced basis derived from the
    # image (at N = 4 in another order), and every form vanishes on every
    # image point
    declared, derived = variety_quadrics(n), vanishing_quadrics(image(n))
    assert set(declared) == set(derived)
    for b in derived:
        assert all(value_at(b, p.bits) == 0 for p in image(n))


def test_cayley_quadric_n3_equals_defining_quadric():
    assert cayley_quadric(3) == pairing_quadric(3)


def test_cayley_quadric_n4_is_q8():
    quads = variety_quadrics(4)
    assert cayley_quadric(4) == quads[7]


@pytest.mark.parametrize("n", [3, 4])
def test_cayley_subset_form_equals_the_pluecker_triple_construction(n):
    # the paper writes the quadric as four products of Plucker coordinates
    # on index triples; cayley_quadric reads them off their subset masks
    assert cayley_quadric(n) == cayley_by_pluecker_triples(n)


@pytest.mark.parametrize("n", [2, 5])
def test_cayley_quadric_is_defined_at_n_3_and_4_only(n):
    with pytest.raises(ValueError, match=rf"^qubit count {n} is outside 3\.\.4$"):
        cayley_quadric(n)


def test_reduced_closure_is_q0_through_q8():
    quads = variety_quadrics(4)
    q0 = quads[8] + quads[9]
    orb = quadric_orbit(cayley_quadric(4))
    assert orb == {q0} | set(quads[:8])
    assert quads[8] not in orb  # Q9
    assert quads[9] not in orb  # Q10


def test_raw_closure_spans_same_space_and_misses_q9_q10():
    # the raw orbit, from the substitution oracle
    quads = variety_quadrics(4)
    raw = {from_monomials(4, monos) for monos in orbit_closure(cayley_quadric(4), 4)}
    assert set(quads[:8]) <= raw
    raw_basis = list(raw)
    assert spans(raw_basis, quads[8] + quads[9])  # Q0 in the span
    assert not spans(raw_basis, quads[8])  # Q9 not even in the span
    assert not spans(raw_basis, quads[9])  # Q10 not either


def test_quadric_orbit_n3_is_singleton():
    assert quadric_orbit(cayley_quadric(3)) == {pairing_quadric(3)}


@pytest.mark.parametrize("n", [3, 4])
def test_quadric_orbit_is_the_minimal_weight_basis_of_the_cayley_span(n):
    # the Cayley forms have pairwise disjoint supports, so the reduced
    # echelon basis is also the enumerated minimal-weight one
    q = cayley_quadric(n)
    assert quadric_orbit(q) == min_weight_basis(n, _span_closure(n, [q.bits], local_gates(n)))


def _is_reduced(forms) -> bool:
    """The highest monomials are distinct and no form holds another's."""
    forms = list(forms)
    tops = [1 << f.bits.bit_length() - 1 for f in forms]
    return len(set(tops)) == len(tops) and all(f.bits & sum(tops) == top for f, top in zip(forms, tops))


def test_quadric_orbit_of_the_zero_form_is_empty():
    assert quadric_orbit(QuadForm(4, 0)) == set()
    assert _span_closure(4, [0], local_gates(4)) == []


def test_quadric_orbit_rejects_a_form_on_another_qubit_count():
    # read at N = 4, the N = 3 Cayley quadric's bits are another form
    with pytest.raises(ValueError, match="qubit count mismatch"):
        quadric_orbit(cayley_quadric(3), 4)


# the Cayley quadric plus x1*x2: its span, of dimension 80, has 2^80
# elements; the Cayley span has 9
DIM80 = cayley_quadric(4) + _form(4, (1, 2))


def test_quadric_orbit_reduces_a_span_of_dimension_80():
    assert len(_span_closure(4, [DIM80.bits], local_gates(4))) == 80
    assert len(_span_closure(4, [cayley_quadric(4).bits], local_gates(4))) == 9
    orb = quadric_orbit(DIM80)
    assert len(orb) == 80 and _is_reduced(orb)


@pytest.mark.parametrize("q, n, orbit_size", [
    (cayley_quadric(3), 3, 1), (cayley_quadric(4), 4, 12), (DIM80, 4, 648)], ids=["cayley3", "cayley4", "dim80"])
def test_span_closure_spans_the_oracle_orbit(q, n, orbit_size):
    # the closure reduces as it goes and lists no orbit; its basis spans
    # what the oracle's whole orbit spans, and so does quadric_orbit's
    orbit = [from_monomials(n, monos).bits for monos in orbit_closure(q, n)]
    basis = _span_closure(n, [q.bits], local_gates(n))
    assert len(orbit) == orbit_size and basis[0] == q.bits
    assert len(rref(basis)) == len(basis) == len(rref(orbit)) == len(rref(basis + orbit))
    assert len(rref([f.bits for f in quadric_orbit(q)] + orbit)) == len(basis)


@lru_cache(maxsize=None)
def image_quadrics(n):
    return vanishing_quadrics(image(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vanishing_quadric_count_is_closed_form(n):
    # C(2^N + 1, 2) monomials, of rank C(2N + 1, N) on the image: 0, 1, 10, 66
    assert len(image_quadrics(n)) == comb((1 << n) + 1, 2) - comb(2 * n + 1, n)


def test_span_closures_of_the_n5_vanishing_quadrics():
    # each closure holds its seed and is mapped into itself by every local
    # gate; under the local group alone the 66 forms span 15 to 66 dimensions.
    # quadric_orbit reduces each closure; a 66-dimensional one is the whole
    # vanishing space, whose reduced basis vanishing_quadrics already is
    assert _is_reduced(image_quadrics(5))
    dims = set()
    for q in image_quadrics(5):
        basis = _span_closure(5, [q.bits], local_gates(5))
        moved = [_act(5, g, f) for f in basis for g in local_gates(5)]
        assert basis[0] == q.bits and rank(basis) == len(basis) == rank(basis + moved)
        orb = quadric_orbit(q)
        assert _is_reduced(orb) and len(orb) == len(basis) == rank([f.bits for f in orb] + basis)
        if len(basis) == 66:
            assert orb == set(image_quadrics(5))
        dims.add(len(basis))
    assert dims == {15, 51, 65, 66}


def _closed_in_one_step(n, bits):
    # the one-step test: each gate moves each form into the forms' span
    return rank(bits + [_act(n, g, b) for g in clifford_gates(n) for b in bits]) == rank(bits)


def _closure_cases():
    rng = random.Random(4)
    diag, upper = _upper(4)
    monos = [1 << k for k in range(1 << 8) if (diag | upper) >> k & 1]
    cases = [pytest.param(n, variety_quadrics(n), True, id=f"variety-n{n}") for n in (2, 3, 4, 5)]
    cases.append(pytest.param(4, variety_quadrics(4)[1:], False, id="Q2-Q10"))
    cases += [pytest.param(4, (q,), False, id=f"Q{k}") for k, q in enumerate(variety_quadrics(4), 1)]
    cases += [pytest.param(n, (pairing_quadric(n),), n > 2, id=f"pairing-n{n}")  # CZ_12 moves it at N = 2
              for n in (2, 3, 4, 5)]
    cases += [pytest.param(4, tuple(QuadForm(4, m) for m in rng.sample(monos, 2)), None, id=f"monomials-{k}")
              for k in range(8)]
    return cases


@pytest.mark.parametrize("n, quads, closed", _closure_cases())
def test_gate_closure_agrees_with_the_one_step_test(n, quads, closed):
    # a span is closed under the gates iff its closure adds no form; the
    # one-step rank test is the oracle, and it alone decides the random pairs (None)
    bits = [q.bits for q in quads]
    got = len(_span_closure(n, bits, clifford_gates(n))) == rank(bits)
    assert got == _closed_in_one_step(n, bits)
    assert closed is None or got == closed


def test_clifford_closures_of_the_n5_vanishing_quadrics():
    # under clifford_gates the 66 forms of variety_quadrics(5) span 55, 65
    # or 66 dimensions, each closure inside their 66-dimensional span
    quads = variety_quadrics(5)
    full = [q.bits for q in quads]
    dims = set()
    for q in quads:
        basis = _span_closure(5, [q.bits], clifford_gates(5))
        assert basis[0] == q.bits and rank(basis) == len(basis) and rank(full + basis) == 66
        dims.add(len(basis))
    assert dims == {55, 65, 66}


@pytest.mark.parametrize("make, arg, message", [
    (lambda n: QuadForm(n, 0), -1, "qubit count -1 is outside 1..5"),
    (lambda n: QuadForm(n, 1), 0, "qubit count 0 is outside 1..5"),
    (pairing_quadric, 0, "qubit count 0 is outside 1..5"),
    (pairing_quadric, 6, "qubit count 6 is outside 1..5"),
    (_form, -1, "qubit count -1 is outside 1..5"),
    (_form, 0, "qubit count 0 is outside 1..5"),
    (_form, 6, "qubit count 6 is outside 1..5"),
])
def test_forms_name_a_bad_qubit_count(make, arg, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(arg)


@pytest.mark.parametrize("n", [6, 7])
def test_pairing_quadric_refuses_n_above_5_before_building_a_monomial(monkeypatch, n):
    # the count grows steeply in N, so a larger one is not tried
    built = []

    def counted(*args):
        built.append(args)
        return monomial(*args)

    monomial = quadrics._monomial
    monkeypatch.setattr(quadrics, "_monomial", counted)
    with pytest.raises(ValueError, match=f"^qubit count {n} is outside 1..5$"):
        pairing_quadric(n)
    assert built == []


def _random_points(n, count, seed):
    rng = random.Random(seed)
    return [ProjPoint(n, rng.randrange(1, 1 << (1 << n))) for _ in range(count)]


@pytest.mark.parametrize("n, points", [(6, [ProjPoint(6, 1)]), (7, [ProjPoint(7, 1)]), (6, _random_points(6, 2200, 5))],
                         ids=["n6", "n7", "n6-2200"])
def test_vanishing_quadrics_refuses_n_above_5_before_building_a_monomial(monkeypatch, n, points):
    # the monomial masks and the elimination grow steeply in N; 2,200
    # random N = 6 points have no vanishing form, so only the N check
    # refuses them
    built = []

    def counted(*args):
        built.append(args)
        return upper(*args)

    upper = quadrics._upper
    monkeypatch.setattr(quadrics, "_upper", counted)
    with pytest.raises(ValueError, match=f"^qubit count {n} is outside 1..5$"):
        vanishing_quadrics(points)
    assert built == []


@pytest.mark.parametrize("pair", [(1, 2, 3), (), (3,)])
def test_form_names_a_pair_of_another_length(pair):
    with pytest.raises(ValueError, match=f"^{re.escape(f'expected a pair of variables, got {pair}')}$"):
        _form(2, (1, 2), pair)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sorted_monomials_read_back_through_the_display_numbering(n):
    # the display numbering read from ``display_masks`` against ``_form``'s,
    # on seeded random forms: distinct monomials, squares first, then ascending
    for q in _random_forms(n, 20):
        monos = q.sorted_monomials()
        assert len(set(monos)) == len(monos) == q.bits.bit_count()
        assert monos == sorted(monos, key=lambda m: (len(m), m))
        assert from_monomials(n, monos) == q


def _random_forms(n, count):
    rng = random.Random(n)
    diag, upper = _upper(n)
    return [QuadForm(n, rng.getrandbits(1 << (2 * n)) & (diag | upper)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gate_action_matches_substitution_oracle(n):
    # the local gates and the CZ gates of clifford_gates: _act takes any gate
    gates = dict.fromkeys(local_gates(n) + clifford_gates(n)[2 * n:])
    assert len(gates) == len(local_gates(n)) + n * (n - 1) // 2
    for q in _random_forms(n, 100):
        for g in gates:
            moved = QuadForm(n, _act(n, g, q.bits))
            assert monomials(moved) == substitute(monomials(q), display_rows(n, g))


def test_each_gate_is_lifted_once():
    # in a fresh interpreter: the 14 gates of clifford_gates(4) for the
    # variety check, then the 3 axis swaps of local_gates(4), each list built
    # afresh per call, and none lifted again by a second orbit
    out = fresh_stdout(
        "from lgrpauli import quadrics\n"
        "from lgrpauli.quadrics import cayley_quadric, quadric_orbit, verify_variety\n"
        "verify_variety(4)\n"
        "print(quadrics._lift.cache_info().currsize)\n"
        "for _ in range(2):\n"
        "    quadric_orbit(cayley_quadric(4))\n"
        "    print(quadrics._lift.cache_info().currsize)\n")
    assert out.split() == ["14", "17", "17"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_clifford_gates_preserve_the_pairing_quadric(n):
    # each gate of clifford_gates fixes sum_k x_k x_{k + 2^(N-1)}, save at
    # N = 2 CZ_12, which adds the square term x1 = x_{} (display_masks(2)[0])
    q = pairing_quadric(n)
    moved = [QuadForm(n, _act(n, g, q.bits)) for g in clifford_gates(n)]
    assert len(moved) == 2 * n + n * (n - 1) // 2
    expected = [q] * len(moved)
    if n == 2:
        expected[4] = q + _form(2, (1, 1))
    assert moved == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_set_matches_pointwise_scan(n):
    bits = whole_space_zeros(variety_quadrics(n), n)
    got = {p for p in range(bits.bit_length()) if bits >> p & 1}
    assert got == zero_set(variety_quadrics(n), n)
    assert got == {p.bits for p in image(n)}


def test_a_form_with_as_many_zeros_as_the_image_elsewhere_fails_the_variety_check(capsys, monkeypatch):
    # x1*x2 + x3*x4 + x5*x6 + x7*x8 has 135 zeros, as many as the N = 3
    # image, but not the image's points: it misses the image, and it has
    # 12 zeros on the slice where the image has 8
    q = _form(3, (1, 2), (3, 4), (5, 6), (7, 8))
    assert len(zero_set([q], 3)) == 135 and not vanishes_on_image(q)
    monkeypatch.setattr(quadrics, "variety_quadrics", lambda n: (q,))
    rep = verify_variety(3)
    assert (rep.quadric_count, rep.zero_set_size, rep.image_size, rep.closed, rep.matches) == (1, 12, 8, False, False)
    assert main(["verify", "--n", "3", "--suite", "variety"]) == EXIT_VERIFY
    assert capsys.readouterr() == ("", (
        "[variety] quadric count 1: vanish on the image, span closed under the gates: FAIL\n"
        "[variety] slice: zeros 12 == image 8: FAIL\n"))


@pytest.mark.parametrize("n", [3, 4])
def test_vanishes_on_image_matches_pointwise_evaluation(n):
    # the pairing quadric and the defining forms vanish there; a square
    # x_i^2 = x_i and random forms mostly do not
    forms = [pairing_quadric(n), *variety_quadrics(n), _form(n, (1, 1)), *_random_forms(n, 12)]
    got = [vanishes_on_image(q) for q in forms]
    assert got == [all(value_at(q, p.bits) == 0 for p in image(n)) for q in forms]
    assert got[:2] == [True, True] and got[-13] is False


def test_vanishes_on_image_takes_every_qubit_count_of_a_form():
    # it reads the image's columns, so N = 5 needs no whole-space column
    assert vanishes_on_image(pairing_quadric(5))
    assert not vanishes_on_image(QuadForm(5, 1)) and not vanishes_on_image(QuadForm(1, 1))


@pytest.mark.parametrize("n", [3, 4])
def test_vanishing_quadrics_span_the_rowwise_basis(n):
    got = vanishing_quadrics(image(n))
    want = [from_monomials(n, monos) for monos in vanishing_basis(image(n), n)]
    assert len(got) == len(want)
    assert all(spans(want, q) for q in got)
    assert all(spans(got, q) for q in want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vanishing_quadrics_equal_the_kernel_oracle_on_the_image(n):
    assert vanishing_quadrics(image(n)) == kernel_vanishing_quadrics(image(n))


@pytest.mark.parametrize("seed, count", [(1, 12), (2, 40)])
def test_vanishing_quadrics_equal_the_kernel_oracle_off_the_image(seed, count):
    # seeded random point sets at N = 3, each with points outside the image
    rng = random.Random(seed)
    points = [ProjPoint(3, rng.randrange(1, 1 << 8)) for _ in range(count)]
    assert not {p.bits for p in points} <= {p.bits for p in image(3)}
    got = vanishing_quadrics(points)
    assert got and got == kernel_vanishing_quadrics(points)


def test_quadric_helpers_reject_no_points_and_mixed_qubit_counts():
    with pytest.raises(ValueError, match="need at least one point"):
        vanishing_quadrics([])
    with pytest.raises(ValueError, match="qubit count mismatch"):
        vanishing_quadrics([ProjPoint(3, 5), ProjPoint(4, 0x8000)])
