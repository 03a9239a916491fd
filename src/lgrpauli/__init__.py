"""Bijection between maximal commuting sets of N-qubit Pauli operators and
Pauli observables on 2^(N-1) qubits, computed through exterior-algebra
coordinates of maximal isotropic subspaces and their principal minors.

Pipeline: a maximal pairwise-commuting set of Pauli operators spans a
maximal totally isotropic subspace over GF(2) (:class:`Generator`); its
top exterior power gives projective coordinates (:func:`embed`); keeping
only the principal coordinates (:func:`project`) is injective, and the
resulting bit pattern reads off as a single Pauli observable on half as
many tensor factors (:func:`to_observable`).  The inverse is :func:`lift`.
The image is cut out by explicit quadrics and is stratified into orbits of
the local symmetry group with tensor-rank and exclusive-rank invariants.
"""

from .gf2 import BinMat, BinVec, det, kernel, minor, rank, rref
from .pauli import (
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
from .pluecker import (
    LinearConstraint,
    PlueckerRelation,
    PlueckerVec,
    SubsetIndex,
    constraint_rank,
    embed,
    lagrangian_constraints,
    pluecker_relations,
)
from .projection import (
    ChartMatrix,
    NotInImageError,
    ProjPoint,
    chart_generator,
    chart_matrix,
    display_masks,
    image,
    lift,
    principal_index,
    project,
    to_observable,
)
from .quadrics import (
    QuadForm,
    cayley_quadric,
    hyperbolic_form,
    quadric_orbit,
    quadric_orbit_raw,
    spans,
    vanishing_quadrics,
    variety_quadrics,
    verify_variety,
)
from .orbits import (
    CLASS_TABLE,
    GroupElem,
    MixedOrbitError,
    OrbitRecord,
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
)

__version__ = "1.0.0"

__all__ = [
    "BinMat", "BinVec", "det", "kernel", "minor", "rank", "rref",
    "CommutationError", "Generator", "LabelError", "NotMaximalError",
    "PauliPoint", "all_points", "commute", "enumerate_generators",
    "generator_count", "generator_from_operators", "generator_points",
    "quad_form", "symplectic_product",
    "LinearConstraint", "PlueckerRelation", "PlueckerVec", "SubsetIndex",
    "constraint_rank", "embed", "lagrangian_constraints", "pluecker_relations",
    "ChartMatrix", "NotInImageError", "ProjPoint", "chart_generator",
    "chart_matrix", "display_masks", "image", "lift", "principal_index",
    "project", "to_observable",
    "QuadForm", "cayley_quadric", "hyperbolic_form", "quadric_orbit", "quadric_orbit_raw",
    "spans", "vanishing_quadrics", "variety_quadrics", "verify_variety",
    "CLASS_TABLE", "GroupElem", "MixedOrbitError", "OrbitRecord", "act",
    "classify_image", "e_rank", "emit_tables", "group_generators",
    "group_order", "orbit_members",
    "orbit_of_point", "orbit_partition", "t_rank",
]
