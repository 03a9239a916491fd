"""Quadratic forms on the principal-minor space, the explicit forms that
cut out the projected image, recovery of all vanishing quadrics from the
point set, and the Cayley-quadric orbit computation.

A form is one packed int: the monomial x_a x_b, for subset masks a <= b,
sits at bit (a << N) | b, so both halves of the 2N-bit index are the
coordinates of ``ProjPoint.bits``.  The diagonal a == b is the square
term, equal to x_a at the GF(2) points where forms are evaluated.  The
display numbering x_1..x_{2^N} is used only to read and print forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2 import absent_masks, kernel, rank
from .orbits import local_gates
from .pluecker import principal_keys
from .projection import SWAP, Gate, ProjPoint, apply_gate, display_masks, gate, image


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[int, int]:
    """(diagonal, strictly upper) monomial masks: the bits (a << N) | b
    with a == b and with a < b."""
    diag = sum(1 << ((a << n) | a) for a in range(1 << n))
    upper = sum(1 << ((a << n) | b) for a in range(1 << n) for b in range(a + 1, 1 << n))
    return diag, upper


def _monomial(n: int, a: int, b: int) -> int:
    return 1 << ((min(a, b) << n) | max(a, b))


def _pairs(n: int, bits: int):
    """The (a, b) of every monomial x_a x_b in packed form ``bits``."""
    while bits:
        k = (bits & -bits).bit_length() - 1
        bits &= bits - 1
        yield k >> n, k & ((1 << n) - 1)


def _monomials_at(n: int, x: int) -> int:
    """The monomials that equal 1 at the point with packed coordinates x."""
    return sum((x & -(1 << a)) << (a << n) for a in range(1 << n) if x >> a & 1)


@dataclass(frozen=True)
class QuadForm:
    """A quadratic form on the 2^N principal minors, packed as above;
    addition is XOR."""

    n_qubits: int
    bits: int

    def __post_init__(self):
        diag, upper = _upper(self.n_qubits)
        if self.bits < 0 or self.bits & ~(diag | upper):
            raise ValueError("bits outside the monomials x_a x_b with a <= b")

    def __add__(self, other: "QuadForm") -> "QuadForm":
        if self.n_qubits != other.n_qubits:
            raise ValueError("variable count mismatch")
        return QuadForm(self.n_qubits, self.bits ^ other.bits)

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        """The monomials in display numbering, (i,) for the square of x_i and
        (i, j) with i < j otherwise: squares first, then ascending."""
        pos = {m: k + 1 for k, m in enumerate(display_masks(self.n_qubits))}
        monos = [tuple(sorted({pos[a], pos[b]})) for a, b in _pairs(self.n_qubits, self.bits)]
        return sorted(monos, key=lambda m: (len(m), m))

    def evaluate(self, p: ProjPoint) -> int:
        if p.n_source != self.n_qubits:
            raise ValueError("point/form dimension mismatch")
        return (self.bits & _monomials_at(self.n_qubits, p.bits)).bit_count() & 1

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        return " + ".join("*".join(f"x{i}" for i in m) for m in self.sorted_monomials())


def _form(n_vars: int, *pairs) -> QuadForm:
    """The sum of x_i x_j over display-numbered pairs (i, j); (i, i) is the
    square term."""
    n = n_vars.bit_length() - 1
    if n_vars != 1 << n:
        raise ValueError(f"the variable count {n_vars} is not a power of two")
    bits = 0
    for pair in pairs:
        if not all(1 <= v <= n_vars for v in pair):
            raise ValueError(f"variable out of range 1..{n_vars} in {pair}")
        bits ^= _monomial(n, *(display_masks(n)[v - 1] for v in pair))
    return QuadForm(n, bits)


def hyperbolic_form(n_vars: int) -> QuadForm:
    """The standard pairing sum_k x_k x_{k + n/2}."""
    half = n_vars // 2
    return _form(n_vars, *[(k, k + half) for k in range(1, half + 1)])


@lru_cache(maxsize=None)
def variety_quadrics(n_qubits: int) -> tuple[QuadForm, ...]:
    """The explicit quadrics whose common zero set is the projected image:
    none for N=2 (the image is the whole space), a single form for N=3,
    ten forms for N=4."""
    if n_qubits == 2:
        return ()
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
    raise ValueError("explicit quadrics are available for N in {2, 3, 4}")


@dataclass(frozen=True)
class VarietyReport:
    n_qubits: int
    quadric_count: int
    zero_set_size: int
    image_size: int
    matches: bool


def _zero_set(n: int) -> int:
    """The common zero set of ``variety_quadrics(n)`` in PG(2^N - 1, 2),
    bitsliced: bit p is set iff the point with packed coordinates p is a
    zero, and a column holds a form's value at every point."""
    full = (1 << (1 << (1 << n))) - 1
    cols = [full ^ m for m in absent_masks(1 << n)]
    zeros = full ^ 1  # the nonzero points
    for q in variety_quadrics(n):
        col = 0
        for a, b in _pairs(n, q.bits):
            col ^= cols[a] & cols[b]
        zeros &= ~col
    return zeros


def verify_variety(n_qubits: int) -> VarietyReport:
    """Compare the common zero set of the explicit quadrics with the
    projected image over the whole projective space."""
    n = n_qubits
    if n not in (2, 3, 4):
        raise ValueError("verification supports N in {2, 3, 4}")
    zeros = _zero_set(n)
    img = sum(1 << p.bits for p in image(n))
    return VarietyReport(n, len(variety_quadrics(n)), zeros.bit_count(), len(image(n)), zeros == img)


def vanishing_quadrics(points) -> list[QuadForm]:
    """A GF(2) basis of the quadratic forms (x^2 identified with x) that
    vanish at every given point."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    n = points[0].n_source
    diag, upper = _upper(n)
    rows = [_monomials_at(n, p.bits) for p in points]
    # a column (a << N) | b with a > b is no monomial: its unit vector is in
    # the kernel and is dropped
    forms = [QuadForm(n, k) for k in kernel(rows, 1 << (2 * n)) if k & (diag | upper)]
    forms.sort(key=lambda q: q.sorted_monomials())
    return forms


def spans(basis_forms, q: QuadForm) -> bool:
    """Whether ``q`` lies in the GF(2) span of ``basis_forms``."""
    rows = [f.bits for f in basis_forms]
    return rank(rows + [q.bits]) == rank(rows)


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
    mask = {key: m for m, key in enumerate(principal_keys(n))}

    def mask_of(subset):
        return mask[sum(1 << (j - 1) for j in subset | set(trail))]

    bits = 0
    for a, b in raw_pairs:
        bits ^= _monomial(n, mask_of(a), mask_of(b))
    return QuadForm(n, bits)


@lru_cache(maxsize=None)
def _form_gates(n: int) -> tuple[tuple[Gate, Gate], ...]:
    """Each local gate g as the pair of gates applying g^T to the low and to
    the high half of the monomial index: together they take the
    coefficient matrix B of Q to g^T B g, the matrix of Q(g x)."""
    rows = sum(1 << (a << n) for a in range(1 << n))
    row = (1 << (1 << n)) - 1

    def spread(mask):
        return sum(row << (a << n) for a in range(1 << n) if mask >> a & 1)

    out = []
    for shift, n00, n01, n10, n11 in local_gates(n):
        masks = (n00, n10, n01, n11)  # the transpose swaps n01 and n10
        out.append(((shift, *(m * rows for m in masks)), (shift << n, *map(spread, masks))))
    return tuple(out)


@lru_cache(maxsize=None)
def _transpose(n: int) -> tuple[Gate, ...]:
    """B -> B^T as the gates exchanging index bits k and N+k."""
    return tuple(gate(2 * n, 1 << k, 1 << (n + k), SWAP) for k in range(n))


def _act(n: int, g: tuple[Gate, Gate], bits: int) -> int:
    """The packed form of Q(g x), folded back to one bit per monomial."""
    c = apply_gate(g[1], apply_gate(g[0], bits))
    ct = c
    for t in _transpose(n):
        ct = apply_gate(t, ct)
    diag, upper = _upper(n)
    return (c ^ ct) & upper | c & diag


def quadric_orbit_raw(q: QuadForm, n_qubits: int) -> set[QuadForm]:
    """Closure of ``q`` under the local gates acting on quadratic forms;
    the gates are involutions, so the closure is the orbit."""
    gates = _form_gates(n_qubits)
    seen, frontier = {q.bits}, {q.bits}
    while frontier:
        frontier = {_act(n_qubits, g, f) for f in frontier for g in gates} - seen
        seen |= frontier
    return {QuadForm(n_qubits, b) for b in seen}


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
    span = {0}
    for f in quadric_orbit_raw(q, n_qubits):
        if f.bits not in span:
            span |= {g ^ f.bits for g in span}
    elems = sorted((QuadForm(n_qubits, b) for b in span if b),
                   key=lambda f: (f.bits.bit_count(), f.sorted_monomials()))
    chosen: list[QuadForm] = []
    for f in elems:
        if rank([c.bits for c in chosen] + [f.bits]) > len(chosen):
            chosen.append(f)
    return set(chosen)
