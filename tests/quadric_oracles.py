"""Test-only oracles for the quadric layer: the algorithms that held forms
as sets of display-numbered monomials, kept to check the packed forms, and
the Cayley quadric built from Plucker index triples.

A monomial is (i,) for the square term x_i (== x_i at GF(2) points) or
(i, j) with i < j, over the display variables x_1..x_{2^N}; a display-
packed point has variable k at bit k-1.
"""

import itertools
from functools import lru_cache

from lgrpauli.gf2 import apply_gate, column_masks, independent, walk
from lgrpauli.pauli import _require_qubits
from lgrpauli.pluecker import principal_keys
from lgrpauli.projection import display_masks, local_gates
from lgrpauli.quadrics import QuadForm, _form, _monomial, _upper, _values
from gf2_oracles import kernel, rref


def monomials(q: QuadForm) -> frozenset:
    return frozenset(q.sorted_monomials())


def from_monomials(n: int, monos) -> QuadForm:
    return _form(n, *[(m[0], m[-1]) for m in monos])


def display_pairing(n: int) -> QuadForm:
    """The pairing quadric as the display pairs sum_k x_k x_{k + 2^(N-1)}."""
    half = 1 << n - 1
    return _form(n, *[(k, k + half) for k in range(1, half + 1)])


def display_rows(n: int, g) -> list[int]:
    """Row masks of a gate's matrix in display coordinates (1-based rows;
    row a holds the variables substituted for x_a)."""
    disp = display_masks(n)
    pos = {m: i + 1 for i, m in enumerate(disp)}
    rows = [0] * (len(disp) + 1)
    for c_idx, c_mask in enumerate(disp):
        col = apply_gate(g, 1 << c_mask)
        while col:
            a_mask = (col & -col).bit_length() - 1
            col &= col - 1
            rows[pos[a_mask]] |= 1 << c_idx
    return rows


def _variables(mask: int):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def substitute(monos: frozenset, rows: list[int]) -> frozenset:
    """Apply the linear substitution x_a -> sum_c rows[a]_c x_c (bit c-1)
    term by term, reducing x_i x_i to x_i."""
    acc = set()
    for mono in monos:
        u, v = rows[mono[0]], rows[mono[-1]]
        if len(mono) == 1:
            terms = [(i,) for i in _variables(u)]
        else:
            terms = [(i,) if i == j else (min(i, j), max(i, j))
                     for i in _variables(u) for j in _variables(v)]
        for t in terms:
            acc ^= {t}
    return frozenset(acc)


def orbit_closure(q: QuadForm, n: int) -> set[frozenset]:
    """Closure of q's monomial set under substitution by every local gate."""
    gen_rows = [display_rows(n, g) for g in local_gates(n)]
    seen = {monomials(q)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for f in frontier:
            for rows in gen_rows:
                g = substitute(f, rows)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return seen


def spans(basis_forms, q: QuadForm) -> bool:
    """Whether ``q`` lies in the GF(2) span of ``basis_forms``: adding it
    leaves the reduced row echelon form unchanged."""
    rows = [f.bits for f in basis_forms]
    return rref(rows) == rref([*rows, q.bits])


def min_weight_basis(n: int, rows) -> set[QuadForm]:
    """The canonical basis that the reduced echelon basis replaced: every
    nonzero element of the span of ``rows`` (2^dim of them), sorted by
    (monomial count, monomial list), each kept if independent of those
    kept before."""
    elems = sorted((QuadForm(n, b) for b in walk(0, [r.__xor__ for r in rows])[1:]),
                   key=lambda f: (f.bits.bit_count(), f.sorted_monomials()))
    return {elems[k] for k in independent(f.bits for f in elems)}


def evaluate_display(monos, x: int) -> int:
    out = 0
    for mono in monos:
        v = 1
        for i in mono:
            v &= x >> (i - 1)
        out ^= v & 1
    return out


def zero_set(forms, n: int) -> set[int]:
    """Scan every nonzero display-packed point of PG(2^N - 1, 2); return
    the zeros of all forms as packed coordinates (subset mask m at bit m)."""
    sets = [monomials(q) for q in forms]
    disp = display_masks(n)
    zeros = set()
    for x in range(1, 1 << (1 << n)):
        if all(evaluate_display(monos, x) == 0 for monos in sets):
            zeros.add(sum(1 << m for k, m in enumerate(disp) if x >> k & 1))
    return zeros


def whole_space_zeros(forms, n: int) -> int:
    """The walk that the slice check replaced: the common zeros of ``forms``
    in PG(2^N - 1, 2), N <= 4, bitsliced over the whole space: bit p
    stands for the point with packed coordinates p."""
    _require_qubits(n, 1, 4)
    full = (1 << (1 << (1 << n))) - 1
    cols = column_masks(1 << n)
    zeros = full - 1  # the nonzero points
    for q in forms:
        zeros &= ~_values(q, cols)
    return zeros


@lru_cache(maxsize=None)
def _slice_mask(n: int) -> int:
    """Bit p set for the points p of the slice x_{} = 1, x_{i} = 0 for each i."""
    axes = 1 | sum(1 << (1 << i) for i in range(n))
    return sum(1 << p for p in range(1 << (1 << n)) if p & axes == 1)


def on_slice(n: int, bits: int) -> int:
    """How many of the points in ``whole_space_zeros``-style ``bits`` lie on the slice."""
    return (bits & _slice_mask(n)).bit_count()


def vanishing_basis(points, n: int) -> list[frozenset]:
    """Row-wise kernel over the display monomials (squares, then pairs)."""
    n_vars = 1 << n
    basis = [(i,) for i in range(1, n_vars + 1)]
    basis += list(itertools.combinations(range(1, n_vars + 1), 2))
    disp = display_masks(n)
    rows = []
    for p in points:
        x = sum(1 << k for k, m in enumerate(disp) if p.bits >> m & 1)
        rows.append(sum(1 << col for col, mono in enumerate(basis)
                        if evaluate_display([mono], x)))
    return [frozenset(basis[c] for c in range(len(basis)) if k >> c & 1)
            for k in kernel(rows, len(basis))]


def _monomials_at(n: int, x: int) -> int:
    """The packed monomials that equal 1 at the point with packed
    coordinates x: x_a x_b for a <= b both in x."""
    return sum((x & -(1 << a)) << (a << n) for a in range(1 << n) if x >> a & 1)


def value_at(q: QuadForm, x: int) -> int:
    """q at the point with packed coordinates x, row-wise: the parity of the
    monomials of q that equal 1 there."""
    return (q.bits & _monomials_at(q.n_qubits, x)).bit_count() & 1


def kernel_vanishing_quadrics(points) -> list[QuadForm]:
    """The row-wise basis that the column path replaced: the kernel of one
    row per point over all 2^(2N) packed columns, the columns (a << N) | b
    with a > b (no monomial, so their unit vectors) dropped, sorted by
    monomial list."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    n = points[0].n_source
    diag, upper = _upper(n)
    rows = [_monomials_at(n, p.bits) for p in points]
    forms = [QuadForm(n, k) for k in kernel(rows, 1 << (2 * n)) if k & (diag | upper)]
    forms.sort(key=lambda q: q.sorted_monomials())
    return forms


def cayley_by_pluecker_triples(n_qubits: int) -> QuadForm:
    """The construction that the subset form replaced: four products of
    Plucker coordinates on index triples {1,2,3} and their partners under
    k -> N+k, padded with the trailing indices N+4..2N, each index mapped
    back to its subset mask through ``principal_keys``."""
    n = n_qubits
    _require_qubits(n, 3, 4)

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
