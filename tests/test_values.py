"""The contract every value type keeps: immutable, equal and hashed by its
field tuple within one class, ordered by it only where declared, with a
``Name(field=value, ...)`` repr, and copied and pickled whole."""

import copy
import pickle
import re

import pytest

from lgrpauli.orbits import OrbitRecord, _orbit_data, orbit_partition, t_rank
from lgrpauli.pauli import Generator, PauliPoint, generator_count, generator_from_operators, symplectic_product
from lgrpauli.pluecker import (LinearConstraint, PlueckerRelation, PlueckerVec, lagrangian_constraints,
                               pluecker_relations, principal_keys)
from lgrpauli.projection import (ProjPoint, _image_bits, _lift_points, clifford_gates, display_masks,
                                 enumerate_generators, image, local_gates)
from lgrpauli.quadrics import (QuadForm, VarietyReport, _form, cayley_quadric, pairing_quadric, quadric_orbit,
                               vanishing_quadrics, variety_quadrics, verify_variety)

REP = ProjPoint(2, 1)
# each type: a builder of two equal values, its field names and values, a
# value with larger fields if the type is ordered (None if not), and the repr;
# the fields repeat across types (the constraint takes the relation's) so
# that each type but the two reports meets a twin of another type
CASES = {
    "PauliPoint": (lambda: PauliPoint(1, 2), ("n_qubits", "bits"), (1, 2), PauliPoint(1, 3),
                   "PauliPoint(n_qubits=1, bits=2)"),
    "Generator": (lambda: Generator(1, [1]), ("n_qubits", "table"), (1, 2), None, "Generator(1, (1,))"),
    "PlueckerVec": (lambda: PlueckerVec(1, 2), ("n_qubits", "table"), (1, 2), PlueckerVec(2, 8),
                    "PlueckerVec(n_qubits=1, table=2)"),
    "ProjPoint": (lambda: ProjPoint(1, 2), ("n_source", "bits"), (1, 2), ProjPoint(1, 3),
                  "ProjPoint(n_source=1, bits=2)"),
    "QuadForm": (lambda: QuadForm(1, 2), ("n_qubits", "bits"), (1, 2), None, "QuadForm(n_qubits=1, bits=2)"),
    "PlueckerRelation": (lambda: PlueckerRelation(2, ((3, 12), (5, 10), (6, 9))), ("n_qubits", "term_keys"),
                         (2, ((3, 12), (5, 10), (6, 9))), PlueckerRelation(2, ((3, 12), (6, 9))),
                         "PlueckerRelation(n_qubits=2, term_keys=((3, 12), (5, 10), (6, 9)))"),
    "LinearConstraint": (lambda: LinearConstraint(2, ((3, 12), (5, 10), (6, 9))), ("n_qubits", "term_keys"),
                         (2, ((3, 12), (5, 10), (6, 9))), LinearConstraint(2, ((5, 10),)),
                         "LinearConstraint(n_qubits=2, term_keys=((3, 12), (5, 10), (6, 9)))"),
    "VarietyReport": (lambda: VarietyReport(3, 1, 8, 8, True, True),
                      ("n_qubits", "quadric_count", "zero_set_size", "image_size", "closed", "matches"),
                      (3, 1, 8, 8, True, True), None,
                      "VarietyReport(n_qubits=3, quadric_count=1, zero_set_size=8, image_size=8, closed=True,"
                      " matches=True)"),
    "OrbitRecord": (lambda: OrbitRecord(2, 9, REP, True, 1, 0, "ZI", "O1"),
                    ("orbit_id", "size", "representative", "in_image", "t_rank", "e_rank", "observable",
                     "reference_label"),
                    (2, 9, REP, True, 1, 0, "ZI", "O1"), None,
                    "OrbitRecord(orbit_id=2, size=9, representative=ProjPoint(n_source=2, bits=1), in_image=True,"
                    " t_rank=1, e_rank=0, observable='ZI', reference_label='O1')"),
}


@pytest.mark.parametrize("name", CASES)
def test_value_types_are_frozen_field_tuples(name):
    make, names, fields, larger, text = CASES[name]
    v, w = make(), make()
    assert type(v).__name__ == name and tuple(getattr(v, f) for f in names) == fields
    assert type(v).__slots__ == names  # no slot but the fields
    for f in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(v, f, 0)
    with pytest.raises(AttributeError):
        delattr(v, names[0])
    assert tuple(getattr(v, f) for f in names) == fields
    # equal fields: equal values whose hash is the field tuple's, so sets iterate as before
    assert v is not w and v == w and not v != w and hash(v) == hash(w) == hash(fields)
    # the same fields in another type, or as a bare tuple, are another value
    twins = [c[0]() for other, c in CASES.items() if other != name and c[2] == fields]
    assert twins or name in ("VarietyReport", "OrbitRecord")
    for other in twins + [fields]:
        assert v != other and not v == other
    if larger is None:
        with pytest.raises(TypeError):
            v < w  # noqa: B015
    else:
        large = tuple(getattr(larger, f) for f in names)
        assert fields < large
        assert v < larger and v <= larger and v <= w and larger > v and larger >= v and not v > w
        assert sorted([larger, v, w]) == [v, w, larger]
        for other in twins:
            with pytest.raises(TypeError):
                v < other  # noqa: B015
    assert repr(v) == text
    for c in [copy.copy(v), copy.deepcopy(v)] + [pickle.loads(pickle.dumps(v, p))
                                                 for p in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(c) is type(v) and c == v and hash(c) == hash(v) and repr(c) == text


@pytest.mark.parametrize("count", [2.0, "2", None])
@pytest.mark.parametrize("make, what", [
    (lambda n: PauliPoint(n, 3), "qubit count"),
    (lambda n: Generator(n, [1, 8]), "qubit count"),
    (lambda n: PlueckerVec(n, 8), "qubit count"),
    (lambda n: ProjPoint(n, 3), "source qubit count"),
    (lambda n: ProjPoint.from_string(n, "0010"), "source qubit count"),
    (lambda n: QuadForm(n, 1), "qubit count"),
    (generator_count, "qubit count"),
    (display_masks, "qubit count"),
    (pairing_quadric, "qubit count"),
    (lambda n: _form(n, (1, 2)), "qubit count"),  # display_masks checks it; its cache keeps 2.0 from 2
])
def test_value_types_name_a_qubit_count_that_is_not_an_int(make, what, count):
    # each used to fail with a bare TypeError from a comparison or a shift
    with pytest.raises(ValueError, match=f"^{what} must be an int, got {re.escape(repr(count))}$"):
        make(count)


@pytest.mark.parametrize("bits", [3.0, 1.5, "3", None, True])
@pytest.mark.parametrize("make", [ProjPoint, QuadForm])
def test_points_and_forms_name_bits_that_are_not_an_int(make, bits):
    # each used to fail with a bare TypeError from a shift, a mask or a comparison
    with pytest.raises(ValueError, match=f"^bits must be an int, got {re.escape(repr(bits))}$"):
        make(2, bits)


@pytest.mark.parametrize("n", [6, 10])
@pytest.mark.parametrize("make", [lambda n: QuadForm(n, 1), lambda n: PlueckerVec(n, 1 << ((1 << n) - 1))],
                         ids=["QuadForm", "PlueckerVec"])
def test_form_and_pluecker_types_bound_the_qubit_count(make, n):
    # both used to build a 2^(2N)-bit mask first: 9.1 s and 5.5 s at N = 10
    with pytest.raises(ValueError, match=f"^qubit count {n} is outside 1..5$"):
        make(n)


def test_points_and_generator_counts_keep_their_wider_range():
    # an N = 5 observable is a 16-qubit point; ProjPoint and generator_count take N = 6
    assert PauliPoint(16, 1 << 31).n_qubits == 16
    assert ProjPoint(6, 1 << 63).n_source == 6
    assert generator_count(6) == 3 * 5 * 9 * 17 * 33 * 65


@pytest.mark.parametrize("func, n, message", [
    (clifford_gates, -1, "qubit count -1 is outside 1..5"),
    (clifford_gates, 0, "qubit count 0 is outside 1..5"),
    (clifford_gates, 6, "qubit count 6 is outside 1..5"),
    (local_gates, -1, "qubit count -1 is outside 1..5"),
    (local_gates, 0, "qubit count 0 is outside 1..5"),
    (local_gates, 6, "qubit count 6 is outside 1..5"),
    (display_masks, -1, "qubit count -1 is outside 1..5"),
    (display_masks, 0, "qubit count 0 is outside 1..5"),
    (display_masks, 6, "qubit count 6 is outside 1..5"),
    (principal_keys, -1, "qubit count -1 is outside 1..5"),
    (principal_keys, 0, "qubit count 0 is outside 1..5"),
    (principal_keys, 6, "qubit count 6 is outside 1..5"),
])
def test_gate_lists_and_coordinate_orders_name_a_bad_qubit_count(func, n, message):
    # the gate lists returned () for N = -1 and 0, display_masks and
    # principal_keys(-1) raised a bare "negative shift count", and
    # principal_keys(0) returned (0,); the display masks and principal keys
    # took any N >= 1, tabulating 2^N coordinates
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(n)


@pytest.mark.parametrize("n", [-1, 0, 6, 3.0])
@pytest.mark.parametrize("func, lo, hi", [
    (image, 1, 5), (enumerate_generators, 1, 5), (lagrangian_constraints, 1, 5), (clifford_gates, 1, 5),
    (pluecker_relations, 2, 5), (orbit_partition, 2, 4), (variety_quadrics, 2, 5), (verify_variety, 2, 5),
    (cayley_quadric, 3, 4),
], ids=lambda v: getattr(v, "__name__", None))
def test_functions_on_a_qubit_range_name_a_bad_qubit_count(func, lo, hi, n):
    # the messages named no N, a float N gave a bare TypeError, and
    # variety_quadrics(3.0) returned the N = 3 forms
    if isinstance(n, float):
        message = f"qubit count must be an int, got {n!r}"
    else:
        message = f"qubit count {n} is outside {lo}..{hi}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(n)


@pytest.mark.parametrize("n", [1, 5])
def test_tensor_rank_names_a_bad_qubit_count(n):
    with pytest.raises(ValueError, match=f"^qubit count {n} is outside 2..4$"):
        t_rank(ProjPoint(n, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: QuadForm(3, 1) + QuadForm(4, 1), "qubit count mismatch: 3 and 4"),
    (lambda: quadric_orbit(cayley_quadric(3), 4), "qubit count mismatch: 3 and 4"),
    (lambda: vanishing_quadrics([ProjPoint(3, 5), ProjPoint(4, 1)]), "qubit count mismatch: 3 and 4"),
    (lambda: symplectic_product(PauliPoint(1, 1), PauliPoint(2, 1)), "qubit count mismatch: 1 and 2"),
    (lambda: generator_from_operators([PauliPoint(2, 1), PauliPoint(3, 1)]), "qubit count mismatch: 2 and 3"),
], ids=["add", "quadric_orbit", "vanishing_quadrics", "symplectic_product",
        "generator_from_operators"])
def test_mixed_counts_are_named(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("other", [1, None, PauliPoint(2, 3)], ids=["int", "None", "PauliPoint"])
def test_a_form_adds_only_a_form(other):
    # a Pauli operator's bits are not monomials, so no form is read off them
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+"):
        QuadForm(2, 1) + other


UNBOUNDED, BOUNDED = "{name} {n} is below 1", "{name} {n} is outside {lo}..{hi}"


@pytest.mark.parametrize("n", [-1, 0, False, True])
@pytest.mark.parametrize("func, name, lo, hi", [
    (lambda n: PauliPoint(n, 1), "qubit count", 1, None),
    (lambda n: Generator(n, ()), "qubit count", 1, 5),
    (generator_count, "qubit count", 1, None),
    (display_masks, "qubit count", 1, 5),
    (principal_keys, "qubit count", 1, 5),
    (lambda n: ProjPoint(n, 1), "source qubit count", 1, None),
    (lambda n: ProjPoint.from_string(n, "1"), "source qubit count", 1, None),
    (lambda n: QuadForm(n, 0), "qubit count", 1, 5),
    (lambda n: PlueckerVec(n, 0), "qubit count", 1, 5),
    (clifford_gates, "qubit count", 1, 5),
    (local_gates, "qubit count", 1, 5),
    (image, "qubit count", 1, 5),
    (_image_bits, "qubit count", 1, 5),
    (lambda n: _lift_points(n, ()), "qubit count", 1, 5),
    (enumerate_generators, "qubit count", 1, 5),
    (lagrangian_constraints, "qubit count", 1, 5),
    (pluecker_relations, "qubit count", 2, 5),
    (orbit_partition, "qubit count", 2, 4),
    (_orbit_data, "qubit count", 2, 4),
    (variety_quadrics, "qubit count", 2, 5),
    (verify_variety, "qubit count", 2, 5),
    (cayley_quadric, "qubit count", 3, 4),
], ids=["PauliPoint", "Generator", "generator_count", "display_masks", "principal_keys", "ProjPoint",
        "ProjPoint.from_string", "QuadForm", "PlueckerVec", "clifford_gates", "local_gates", "image", "_image_bits",
        "_lift_points", "enumerate_generators", "lagrangian_constraints", "pluecker_relations", "orbit_partition",
        "_orbit_data", "variety_quadrics", "verify_variety", "cayley_quadric"])
def test_every_qubit_count_check_gives_one_of_two_wordings(func, name, lo, hi, n):
    # one rule: "below LO" where N has no upper bound, "outside LO..HI" where
    # it has; a bool is no qubit count (True passed as N = 1, and False was
    # worded as "below 1")
    if n.__class__ is bool:
        message = f"{name} must be an int, got {n!r}"
    else:
        message = (UNBOUNDED if hi is None else BOUNDED).format(name=name, n=n, lo=lo, hi=hi)
    with pytest.raises(ValueError) as info:
        func(n)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("name", ["PlueckerRelation", "LinearConstraint", "VarietyReport", "OrbitRecord"])
def test_records_take_their_fields_positionally(name):
    make, names, fields, _, _ = CASES[name]
    cls = type(make())
    assert cls(*fields) == make()
    message = f"^{name} takes its {len(fields)} fields positionally$"
    for args, named in [(fields[:-1], {}), (fields + fields[:1], {}), ((), {}), (fields, {names[0]: fields[0]}),
                        (fields[:-1], {names[-1]: fields[-1]}), ((), dict(zip(names, fields)))]:
        with pytest.raises(TypeError, match=message):
            cls(*args, **named)
