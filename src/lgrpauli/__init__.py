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

import importlib

# each public name -> the module defining it, imported on the name's first
# use (PEP 562), so importing the package or one module loads no other
_MODULE_OF = {
    **dict.fromkeys(("PauliPoint", "Generator", "LabelError", "CommutationError", "NotMaximalError",
                     "commute", "symplectic_product", "generator_from_operators"), "pauli"),
    "enumerate_generators": "projection",  # listed among the pauli names, so __all__ keeps its order
    "generator_count": "pauli",
    **dict.fromkeys(("PlueckerVec", "embed", "pluecker_relations", "lagrangian_constraints",
                     "constraint_rank"), "pluecker"),
    **dict.fromkeys(("ProjPoint", "NotInImageError", "project", "to_observable", "lift", "image"),
                    "projection"),
    **dict.fromkeys(("variety_quadrics", "verify_variety", "pairing_quadric", "cayley_quadric",
                     "quadric_orbit", "vanishing_quadrics"), "quadrics"),
    **dict.fromkeys(("MixedOrbitError", "orbit_partition", "classify_image", "orbit_of_point",
                     "t_rank", "e_rank", "emit_tables"), "orbits"),
}

__version__ = "1.0.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
