"""The contract every value type keeps: immutable, equal and hashed by its
field tuple within one class, ordered by it only where declared, with a
``Name(field=value, ...)`` repr, and copied and pickled whole."""

import copy
import pickle
import re

import pytest

from lgrpauli.orbits import OrbitRecord
from lgrpauli.pauli import Generator, PauliPoint
from lgrpauli.pluecker import LinearConstraint, PlueckerRelation, PlueckerVec
from lgrpauli.projection import ProjPoint
from lgrpauli.quadrics import QuadForm, VarietyReport

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
    "VarietyReport": (lambda: VarietyReport(3, 1, 135, 135, True),
                      ("n_qubits", "quadric_count", "zero_set_size", "image_size", "matches"),
                      (3, 1, 135, 135, True), None,
                      "VarietyReport(n_qubits=3, quadric_count=1, zero_set_size=135, image_size=135, matches=True)"),
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
])
def test_value_types_name_a_qubit_count_that_is_not_an_int(make, what, count):
    # each used to fail with a bare TypeError from a comparison or a shift
    with pytest.raises(ValueError, match=f"^{what} must be an int, got {re.escape(repr(count))}$"):
        make(count)
