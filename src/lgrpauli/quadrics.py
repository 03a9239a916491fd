"""Quadratic forms on the principal-minor space, the explicit forms that
cut out the projected image, recovery of all vanishing quadrics from the
point set, and the Cayley-quadric orbit computation.

Variables are the display-order coordinates x_1..x_{2^N}.  Evaluation is
always at GF(2) points, where x^2 = x; square terms are therefore kept in
reduced form as singleton monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .gf2 import kernel, rank
from .pluecker import principal_keys
from .projection import ProjPoint, display_masks, image


@dataclass(frozen=True)
class QuadForm:
    """A quadratic form as a set of monomials over variables 1..n_vars.

    A monomial is a pair (i, j) with i < j, or a singleton (i,) standing
    for the square term x_i^2 (== x_i on GF(2) points).  Addition is
    symmetric difference of monomial sets.
    """

    n_vars: int
    monomials: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for mono in self.monomials:
            if len(mono) not in (1, 2) or (len(mono) == 2 and mono[0] >= mono[1]):
                raise ValueError(f"bad monomial {mono}")
            if not all(1 <= v <= self.n_vars for v in mono):
                raise ValueError(f"variable out of range in {mono}")

    @classmethod
    def from_pairs(cls, n_vars: int, pairs) -> "QuadForm":
        monos = set()
        for a, b in pairs:
            mono = (a,) if a == b else (min(a, b), max(a, b))
            monos ^= {mono}
        return cls(n_vars, frozenset(monos))

    def __add__(self, other: "QuadForm") -> "QuadForm":
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        return QuadForm(self.n_vars, self.monomials ^ other.monomials)

    def is_zero(self) -> bool:
        return not self.monomials

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        return sorted(self.monomials, key=lambda m: (len(m), m))

    def evaluate_display(self, x: int) -> int:
        """Evaluate at a display-packed point (variable k at bit k-1)."""
        out = 0
        for mono in self.monomials:
            v = 1
            for i in mono:
                v &= x >> (i - 1)
            out ^= v & 1
        return out

    def evaluate(self, p: ProjPoint) -> int:
        if 1 << p.n_source != self.n_vars:
            raise ValueError("point/form dimension mismatch")
        return self.evaluate_display(p.display_int)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for mono in self.sorted_monomials():
            if len(mono) == 1:
                parts.append(f"x{mono[0]}")
            else:
                parts.append(f"x{mono[0]}*x{mono[1]}")
        return " + ".join(parts)


def _form(n_vars: int, *pairs) -> QuadForm:
    return QuadForm.from_pairs(n_vars, pairs)


def hyperbolic_form(n_vars: int) -> QuadForm:
    """The standard pairing sum_k x_k x_{k + n/2}."""
    half = n_vars // 2
    return _form(n_vars, *[(k, k + half) for k in range(1, half + 1)])


@lru_cache(maxsize=None)
def variety_quadrics(n_qubits: int) -> tuple[QuadForm, ...]:
    """The explicit quadrics whose common zero set is the projected image:
    a single form for N=3, ten forms for N=4."""
    if n_qubits == 3:
        return (hyperbolic_form(8),)
    if n_qubits == 4:
        v = 16
        return (
            _form(v, (12, 13), (11, 14), (10, 15), (9, 16)),
            _form(v, (1, 13), (2, 14), (3, 15), (4, 16)),
            _form(v, (1, 11), (2, 12), (5, 15), (6, 16)),
            _form(v, (4, 5), (3, 6), (2, 7), (1, 8)),
            _form(v, (1, 10), (3, 12), (5, 14), (7, 16)),
            _form(v, (5, 9), (6, 10), (7, 11), (8, 12)),
            _form(v, (3, 9), (4, 10), (7, 13), (8, 14)),
            _form(v, (2, 9), (4, 11), (6, 13), (8, 15)),
            _form(v, (1, 9), (4, 12), (6, 14), (7, 15)),
            _form(v, (2, 10), (3, 11), (5, 13), (8, 16)),
        )
    raise ValueError("explicit quadrics are available for N in {3, 4}")


@dataclass(frozen=True)
class VarietyReport:
    n_qubits: int
    quadric_count: int
    zero_set_size: int
    image_size: int
    matches: bool


def verify_variety(n_qubits: int) -> VarietyReport:
    """Scan the whole projective space and compare the common zero set of
    the explicit quadrics with the projected image (for N=2 the image is
    the full space and there are no quadrics)."""
    if n_qubits not in (2, 3, 4):
        raise ValueError("verification supports N in {2, 3, 4}")
    img = {p.display_int for p in image(n_qubits)}
    size = 1 << (1 << n_qubits)
    if n_qubits == 2:
        zero_set_size = size - 1
        matches = img == set(range(1, size))
    else:
        quads = variety_quadrics(n_qubits)
        zero_set = set()
        for x in range(1, size):
            if all(q.evaluate_display(x) == 0 for q in quads):
                zero_set.add(x)
        zero_set_size = len(zero_set)
        matches = zero_set == img
    return VarietyReport(
        n_qubits,
        0 if n_qubits == 2 else len(variety_quadrics(n_qubits)),
        zero_set_size,
        len(img),
        matches,
    )


def _monomial_basis(n_vars: int) -> list[tuple[int, ...]]:
    singles = [(i,) for i in range(1, n_vars + 1)]
    pairs = [(i, j) for i, j in itertools.combinations(range(1, n_vars + 1), 2)]
    return singles + pairs


def vanishing_quadrics(points) -> list[QuadForm]:
    """A GF(2) basis of the quadratic forms (x^2 identified with x) that
    vanish at every given point."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    n_vars = 1 << points[0].n_source
    basis = _monomial_basis(n_vars)
    rows = []
    for p in points:
        x = p.display_int
        bits = 0
        for col, mono in enumerate(basis):
            v = 1
            for i in mono:
                v &= x >> (i - 1)
            if v & 1:
                bits |= 1 << col
        rows.append(bits)
    forms = []
    for krow in kernel(rows, len(basis)):
        monos = {basis[col] for col in range(len(basis)) if (krow >> col) & 1}
        forms.append(QuadForm(n_vars, frozenset(monos)))
    forms.sort(key=lambda q: q.sorted_monomials())
    return forms


def spans(basis_forms, q: QuadForm) -> bool:
    """Whether ``q`` lies in the GF(2) span of ``basis_forms``."""
    monos = sorted({m for f in basis_forms for m in f.monomials} | set(q.monomials))
    col = {m: i for i, m in enumerate(monos)}

    def row(f):
        return sum(1 << col[m] for m in f.monomials)

    rows = [row(f) for f in basis_forms]
    return rank(rows + [row(q)]) == rank(rows)


def cayley_quadric(n_qubits: int) -> QuadForm:
    """The GF(2) avatar of the 2x2x2 hyperdeterminant factor, written in the
    retained coordinates.

    Built from four products of Plucker coordinates on index triples
    {1,2,3} and their partners under k -> N+k, padded with the trailing
    indices N+4..2N.  For N=3 this is the single defining quadric; for N=4
    it is the eighth form of the explicit list.
    """
    n = n_qubits
    if n not in (3, 4):
        raise ValueError("the Cayley quadric is provided for N in {3, 4}")

    def bar(k):
        return n + k

    trail = [bar(k) for k in range(4, n + 1)]
    raw_pairs = [
        ({1, 2, 3}, {bar(1), bar(2), bar(3)}),
        ({1, 2, bar(3)}, {3, bar(1), bar(2)}),
        ({1, 3, bar(2)}, {2, bar(1), bar(3)}),
        ({1, bar(2), bar(3)}, {2, 3, bar(1)}),
    ]
    keys = principal_keys(n)
    var = {keys[m]: i + 1 for i, m in enumerate(display_masks(n))}

    def var_of(subset):
        return var[sum(1 << (j - 1) for j in subset | set(trail))]

    return _form(1 << n, *[(var_of(a), var_of(b)) for a, b in raw_pairs])


def _substitute(q: QuadForm, rows: list[int]) -> QuadForm:
    """Apply the linear substitution x_a -> sum_c rows[a]_c x_c (bit c-1)."""
    acc: set[tuple[int, ...]] = set()
    for mono in q.monomials:
        if len(mono) == 1:
            u = rows[mono[0]]
            c = u
            while c:
                i = (c & -c).bit_length()
                c &= c - 1
                acc ^= {(i,)}
        else:
            u, v = rows[mono[0]], rows[mono[1]]
            uu = u
            while uu:
                i = (uu & -uu).bit_length()
                uu &= uu - 1
                vv = v
                while vv:
                    j = (vv & -vv).bit_length()
                    vv &= vv - 1
                    acc ^= {(i,)} if i == j else {(min(i, j), max(i, j))}
    return QuadForm(q.n_vars, frozenset(acc))


def quadric_orbit_raw(q: QuadForm, n_qubits: int) -> set[QuadForm]:
    """Closure of ``q`` under the induced group action on quadratic forms.

    The group generators are involutions, so substituting their display-
    coordinate matrices and iterating to a fixed point yields the orbit.
    """
    from .orbits import _display_rows, local_gates

    gen_rows = [_display_rows(n_qubits, g) for g in local_gates(n_qubits)]
    seen = {q}
    frontier = [q]
    while frontier:
        nxt = []
        for f in frontier:
            for rows in gen_rows:
                g = _substitute(f, rows)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return seen


def quadric_orbit(q: QuadForm, n_qubits: int) -> set[QuadForm]:
    """Canonical reduced closure of ``q`` under the group action.

    The raw closure can contain forms that are GF(2) sums of simpler
    members of the same invariant subspace (e.g. an image g.f returned as
    f' + f'' + f''' with the same span).  This returns the unique
    minimal-weight canonical spanning set of the smallest group-stable
    linear space containing ``q``: enumerate that space, sort its nonzero
    elements by (monomial count, monomial list), and greedily keep each
    element that is independent of the ones already kept.
    """
    raw = quadric_orbit_raw(q, n_qubits)
    zero = QuadForm(q.n_vars, frozenset())
    span = {zero}
    for f in raw:
        if f not in span:
            span = span | {g + f for g in span}
    elems = sorted(
        (f for f in span if not f.is_zero()),
        key=lambda f: (len(f.monomials), f.sorted_monomials()),
    )
    chosen: list[QuadForm] = []
    cspan = {zero}
    for f in elems:
        if f not in cspan:
            chosen.append(f)
            cspan = cspan | {g + f for g in cspan}
    return set(chosen)
