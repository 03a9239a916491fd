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

from functools import lru_cache, reduce
from itertools import chain
from operator import or_

from .gf2 import SWAP, Gate, apply_gate, column_masks, columns, gate, rank, reduce_row
from .pauli import _require_int, _require_qubits, _Value
from .projection import _image_bits, clifford_gates, display_masks, local_gates


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


class QuadForm(_Value):
    """A quadratic form on the 2^N principal minors, packed as above;
    addition is XOR."""

    __slots__ = ("n_qubits", "bits")

    def __init__(self, n_qubits: int, bits: int):
        _require_qubits(n_qubits)
        diag, upper = _upper(n_qubits)
        if bits.__class__ is not int or bits < 0 or bits & ~(diag | upper):
            _require_int("bits", bits)
            raise ValueError("bits outside the monomials x_a x_b with a <= b")
        _Value.__init__(self, n_qubits, bits)

    def __add__(self, other: "QuadForm") -> "QuadForm":
        if other.__class__ is not QuadForm:
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError(f"qubit count mismatch: {self.n_qubits} and {other.n_qubits}")
        return QuadForm(self.n_qubits, self.bits ^ other.bits)

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        """The monomials in display numbering, (i,) for the square of x_i and
        (i, j) with i < j otherwise: squares first, then ascending."""
        n = self.n_qubits
        pos = {m: k + 1 for k, m in enumerate(display_masks(n))}
        return sorted((tuple(sorted({pos[a], pos[b]})) for a, b in _pairs(n, self.bits)), key=lambda m: (len(m), m))

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        return " + ".join("*".join(f"x{i}" for i in m) for m in self.sorted_monomials())


def _form(n: int, *pairs) -> QuadForm:
    """The sum of x_i x_j over display-numbered pairs (i, j); (i, i) is the
    square term."""
    masks = display_masks(n)  # checks n
    bits = 0
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"expected a pair of variables, got {pair}")
        if not all(1 <= v <= len(masks) for v in pair):
            raise ValueError(f"variable out of range 1..{len(masks)} in {pair}")
        bits ^= _monomial(n, *(masks[v - 1] for v in pair))
    return QuadForm(n, bits)


def pairing_quadric(n_qubits: int) -> QuadForm:
    """The pairing quadric sum_S x_S x_{S^c}, one term per subset S without
    element 1: in display numbering, sum_k x_k x_{k + 2^(N-1)}."""
    _require_qubits(n_qubits)
    full = (1 << n_qubits) - 1
    return QuadForm(n_qubits, sum(_monomial(n_qubits, s, full ^ s) for s in range(0, full, 2)))


@lru_cache(maxsize=None)
def variety_quadrics(n_qubits: int) -> tuple[QuadForm, ...]:
    """The explicit quadrics whose common zero set is the projected image: the
    paper's one form at N=3 and ten at N=4, and those vanishing on the image's columns
    at N=2 (none: the image is the whole space) and N=5, where the paper has none."""
    _require_qubits(n_qubits, 2, 5)
    if n_qubits in (2, 5):
        return tuple(_vanishing(n_qubits, _image_columns(n_qubits)))
    if n_qubits == 3:
        return (pairing_quadric(3),)
    return (
        _form(4, (12, 13), (11, 14), (10, 15), (9, 16)),
        _form(4, (1, 13), (2, 14), (3, 15), (4, 16)),
        _form(4, (1, 11), (2, 12), (5, 15), (6, 16)),
        _form(4, (4, 5), (3, 6), (2, 7), (1, 8)),
        _form(4, (1, 10), (3, 12), (5, 14), (7, 16)),
        _form(4, (5, 9), (6, 10), (7, 11), (8, 12)),
        _form(4, (3, 9), (4, 10), (7, 13), (8, 14)),
        _form(4, (2, 9), (4, 11), (6, 13), (8, 15)),
        _form(4, (1, 9), (4, 12), (6, 14), (7, 15)),
        _form(4, (2, 10), (3, 11), (5, 13), (8, 16)),
    )


class VarietyReport(_Value):
    """Counts of zeros and image points on ``verify_variety``'s Σ; ``closed``: its (a) and gate closure (b)."""
    __slots__ = ("n_qubits", "quadric_count", "zero_set_size", "image_size", "closed", "matches")


def _values(q: QuadForm, cols: list[int] | tuple[int, ...]) -> int:
    """q on a point set given by its coordinate columns, bitsliced: bit k of
    column a is x_a at the set's point k, and bit k of the result is q there."""
    col = 0
    for a, b in _pairs(q.n_qubits, q.bits):
        col ^= cols[a] & cols[b]
    return col


def _slice_zeros(n: int, forms) -> int:
    """Count the common zeros of ``forms`` on Σ (``verify_variety``): up to 16 free
    coordinates bitsliced, each value of the rest a block left once empty."""
    free = [m for m in range(1 << n) if m & (m - 1)]  # the subsets of two or more
    sliced, looped = free[:16], free[16:]
    full = (1 << (1 << len(sliced))) - 1
    cols = [full] + [0] * ((1 << n) - 1)
    for m, col in zip(sliced, column_masks(len(sliced))):
        cols[m] = col
    count = 0
    for v in range(1 << len(looped)):
        for k, m in enumerate(looped):
            cols[m] = full if v >> k & 1 else 0
        zeros = full
        for q in forms:
            if not (zeros := zeros & ~_values(q, cols)):
                break
        count += zeros.bit_count()
    return count


@lru_cache(maxsize=None)
def _image_columns(n: int) -> tuple[int, ...]:
    """The coordinate columns of the projected image's points."""
    return tuple(columns(_image_bits(n), 1 << n))


def vanishes_on_image(q: QuadForm) -> bool:
    """Whether q is zero at every point of the projected image."""
    return not _values(q, _image_columns(q.n_qubits))


def verify_variety(n_qubits: int) -> VarietyReport:
    """Certify Z = I, Z the common zeros of ``variety_quadrics(n)`` and I the
    image, on Σ = {x_{} = 1, x_{i} = 0 for each i}: Z = I iff (a) the forms
    vanish on I, (b) their span is its own ``_span_closure`` under the gates
    of ``clifford_gates``, and (c) |Z ∩ Σ| = |I ∩ Σ|.  By (a) and (b), Z holds
    I and is stable under the gates.  H_T, for a T with x_T = 1, then S_i for
    each i with x_i = 1, moves any point of Z into Σ.  I ∩ Σ is the
    2^(N(N-1)/2) graph points of the zero-diagonal symmetric matrices, and the
    gates preserve I (the projection is equivariant).  So by (c), Z = I."""
    n = n_qubits
    quads = variety_quadrics(n)  # checks n
    bits = [q.bits for q in quads]
    closed = all(map(vanishes_on_image, quads)) and len(_span_closure(n, bits, clifford_gates(n))) == rank(bits)
    cols = _image_columns(n)
    axes = reduce(or_, (cols[1 << i] for i in range(n)))  # the image points with some x_{i} = 1
    zeros, size = _slice_zeros(n, quads), (cols[0] & ~axes).bit_count()
    return VarietyReport(n, len(quads), zeros, size, closed, closed and zeros == size)


def vanishing_quadrics(points) -> list[QuadForm]:
    """A GF(2) basis of the quadratic forms (x^2 identified with x) that
    vanish at every given point: each monomial's column of values at the
    points, tagged with the monomial's bit, is reduced in increasing
    monomial index, and one that reduces to zero leaves in its tags the
    kernel vector of that free column."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    n = points[0].n_source
    if other := next((p.n_source for p in points if p.n_source != n), None):
        raise ValueError(f"qubit count mismatch: {n} and {other}")
    _require_qubits(n)
    return _vanishing(n, columns([p.bits for p in points], 1 << n))


def _vanishing(n: int, cols: list[int] | tuple[int, ...]) -> list[QuadForm]:
    """``vanishing_quadrics`` on the coordinate columns (``_values``) of one or more points."""
    shift = 1 << (2 * n)
    pivots: dict[int, int] = {}
    forms = []
    for a, b in _pairs(n, sum(_upper(n))):
        r = reduce_row(pivots, (cols[a] & cols[b]) << shift | _monomial(n, a, b))
        if r >> shift:
            pivots[r.bit_length()] = r
        else:
            forms.append(QuadForm(n, r))
    forms.sort(key=lambda q: q.sorted_monomials())
    return forms


def cayley_quadric(n_qubits: int) -> QuadForm:
    """The GF(2) avatar of the 2x2x2 hyperdeterminant factor, written in the
    retained coordinates: the sum of x_{S | T} x_{({1,2,3} - S) | T} over the
    subsets S of {2,3}, for T = {4..N}.

    As the principal minor on a subset m is the Plucker coordinate on
    ({1..N} - m) | {N+i : i in m}, the terms are the paper's products of
    Plucker coordinates on the triples {1,2,3}, {1,2,N+3}, {1,3,N+2},
    {1,N+2,N+3} and their partners under k -> N+k, padded with the
    trailing indices N+4..2N.  For N=3 this is the single defining quadric;
    for N=4 it is the eighth form of the explicit list.
    """
    n = n_qubits
    _require_qubits(n, 3, 4)
    held = (1 << n) - 8  # the mask of T
    return QuadForm(n, sum(_monomial(n, s | held, 7 ^ s | held) for s in (0, 2, 4, 6)))


@lru_cache(maxsize=None)
def _lift(n: int, g: Gate) -> tuple[Gate, Gate]:
    """The point gate g as the pair of gates applying g^T to the low and to
    the high half of the monomial index: together they take the
    coefficient matrix B of Q to g^T B g, the matrix of Q(g x)."""
    rows = sum(1 << (a << n) for a in range(1 << n))
    row = (1 << (1 << n)) - 1
    shift, n00, n01, n10, n11 = g
    masks = (n00, n10, n01, n11)  # the transpose swaps n01 and n10
    spread = (sum(row << (a << n) for a in range(1 << n) if m >> a & 1) for m in masks)
    return (shift, *(m * rows for m in masks)), (shift << n, *spread)


@lru_cache(maxsize=None)
def _transpose(n: int) -> tuple[Gate, ...]:
    """B -> B^T as the gates exchanging index bits k and N+k."""
    return tuple(gate(2 * n, 1 << k, 1 << (n + k), SWAP) for k in range(n))


def _act(n: int, g: Gate, bits: int) -> int:
    """The packed form of Q(g x) for the point gate g, folded back to one
    bit per monomial."""
    low, high = _lift(n, g)
    c = apply_gate(high, apply_gate(low, bits))
    ct = reduce(lambda v, t: apply_gate(t, v), _transpose(n), c)
    diag, upper = _upper(n)
    return (c ^ ct) & upper | c & diag


def _span_closure(n: int, seeds, gates) -> list[int]:
    """A basis of the smallest space of forms that holds the packed forms
    ``seeds`` and is mapped into itself by each of the point gates ``gates``:
    what ``gf2.reduce_row`` leaves of each seed, then of each basis form
    acted on once by each gate, is a new basis form."""
    basis: list[int] = []
    pivots: dict[int, int] = {}
    for f in chain(seeds, (_act(n, g, b) for b in basis for g in gates)):  # basis grows while walked
        if r := reduce_row(pivots, f):
            pivots[r.bit_length()] = r
            basis.append(r)
    return basis


def quadric_orbit(q: QuadForm, n_qubits: int | None = None) -> set[QuadForm]:
    """Canonical reduced closure of ``q`` under the group action: the
    reduced echelon basis of the space of ``_span_closure`` (no form holds
    another's highest monomial), the convention of ``vanishing_quadrics``;
    each closure form, ascending, is cleared of the top bits of those kept.
    N is q's own; ``n_qubits``, if given, must equal it."""
    n = q.n_qubits
    if n_qubits is not None and n_qubits != n:
        raise ValueError(f"qubit count mismatch: {n} and {n_qubits}")
    kept: list[int] = []
    for f in sorted(_span_closure(n, [q.bits], local_gates(n))):  # distinct top bits
        for k in kept:
            if f >> (k.bit_length() - 1) & 1:
                f ^= k
        kept.append(f)
    return {QuadForm(n, f) for f in kept}
