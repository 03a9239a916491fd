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

from .pauli import (
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
from .pluecker import (
    PlueckerVec,
    constraint_rank,
    embed,
    lagrangian_constraints,
    pluecker_relations,
)
from .projection import NotInImageError, ProjPoint, image, lift, project, to_observable
from .quadrics import (
    cayley_quadric,
    hyperbolic_form,
    quadric_orbit,
    spans,
    vanishing_quadrics,
    variety_quadrics,
    verify_variety,
)
from .orbits import (
    MixedOrbitError,
    classify_image,
    e_rank,
    emit_tables,
    orbit_of_point,
    orbit_partition,
    t_rank,
)

__version__ = "1.0.0"

__all__ = [
    "PauliPoint", "Generator", "PlueckerVec", "ProjPoint",
    "LabelError", "CommutationError", "NotMaximalError", "NotInImageError",
    "MixedOrbitError",
    "commute", "symplectic_product", "generator_from_operators",
    "enumerate_generators", "generator_count",
    "embed", "pluecker_relations", "lagrangian_constraints", "constraint_rank",
    "project", "to_observable", "lift", "image",
    "variety_quadrics", "verify_variety", "hyperbolic_form", "cayley_quadric",
    "quadric_orbit", "vanishing_quadrics", "spans",
    "orbit_partition", "classify_image", "orbit_of_point", "t_rank", "e_rank",
    "emit_tables",
]
