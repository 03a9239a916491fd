"""N-qubit Pauli operators in binary symplectic form, and the maximal
totally isotropic subspaces of GF(2)^{2N} they span.

An operator (modulo sign) is a length-2N vector (x_1..x_N, x_{N+1}..x_{2N})
with qubit i encoded as the pair (x_i, x_{N+i}):

    I = (0,0)   X = (0,1)   Y = (1,1)   Z = (1,0)

Two operators commute exactly when their symplectic product vanishes.
A maximal set of pairwise commuting operators is an N-dimensional totally
isotropic subspace; we keep those in canonical reduced-row-echelon form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .gf2 import BinMat, BinVec, _rref_ints

MAX_QUBITS = 5

LETTER_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
BITS_LETTER = {v: k for k, v in LETTER_BITS.items()}


class LabelError(ValueError):
    """Raised for malformed operator labels."""


class CommutationError(ValueError):
    """Raised when a pair of operators fails to commute."""

    def __init__(self, a: "PauliPoint", b: "PauliPoint"):
        self.pair = (a, b)
        super().__init__(f"operators {a.label()} and {b.label()} do not commute")


class NotMaximalError(ValueError):
    """Raised when a commuting set does not span an N-dimensional subspace."""


@dataclass(frozen=True, order=True)
class PauliPoint:
    """A nonzero N-qubit Pauli operator modulo sign."""

    n_qubits: int
    coords: BinVec

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.coords.n != 2 * self.n_qubits:
            raise ValueError("coordinate vector must have length 2N")
        if self.coords.is_zero():
            raise ValueError("the identity operator is excluded")

    @classmethod
    def from_label(cls, s: str) -> "PauliPoint":
        """Parse a label such as ``"IYZX"``; an optional leading sign is ignored."""
        if s and s[0] in "+-−":
            s = s[1:]
        if not s:
            raise LabelError("empty operator label")
        n = len(s)
        bits = 0
        for i, ch in enumerate(s):
            if ch not in LETTER_BITS:
                raise LabelError(f"bad character {ch!r} in label {s!r}")
            xi, xni = LETTER_BITS[ch]
            if xi:
                bits |= 1 << i
            if xni:
                bits |= 1 << (n + i)
        if bits == 0:
            raise LabelError("the all-identity label has no point")
        return cls(n, BinVec(2 * n, bits))

    @classmethod
    def from_bits(cls, n_qubits: int, bits: int) -> "PauliPoint":
        return cls(n_qubits, BinVec(2 * n_qubits, bits))

    def label(self) -> str:
        n = self.n_qubits
        b = self.coords.bits
        return "".join(
            BITS_LETTER[((b >> i) & 1, (b >> (n + i)) & 1)] for i in range(n)
        )

    def y_count(self) -> int:
        return sum(1 for ch in self.label() if ch == "Y")


def _symplectic_int(a: int, b: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((a & (b >> n)).bit_count() + ((a >> n) & b & mask).bit_count()) & 1


def symplectic_product(a: PauliPoint, b: PauliPoint) -> int:
    """The alternating form sum_i (x_i y_{N+i} + x_{N+i} y_i); 0 iff a, b commute."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    return _symplectic_int(a.coords.bits, b.coords.bits, a.n_qubits)


def quad_form(p: PauliPoint) -> int:
    """The quadratic form sum_i x_i x_{N+i}; 0 iff the operator is symmetric,
    i.e. its label carries an even number of Y's."""
    n = p.n_qubits
    b = p.coords.bits
    return (b & (b >> n)).bit_count() & 1


def commute(a: PauliPoint, b: PauliPoint) -> bool:
    return symplectic_product(a, b) == 0


def all_points(n_qubits: int) -> list[PauliPoint]:
    """All 4^N - 1 nonzero points, in coordinate order."""
    return [PauliPoint.from_bits(n_qubits, b) for b in range(1, 1 << (2 * n_qubits))]


@dataclass(frozen=True, order=True)
class Generator:
    """A maximal totally isotropic subspace, held as its canonical RREF basis.

    Two generators are equal iff their row spaces are equal iff their
    canonical matrices are equal.
    """

    n_qubits: int
    basis: BinMat

    def __post_init__(self):
        n = self.n_qubits
        if self.basis.cols != 2 * n or self.basis.nrows != n:
            raise ValueError("basis must be N x 2N")
        rows = self.basis.rows
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if _symplectic_int(a, b, n):
                    raise ValueError("basis is not totally isotropic")

    @classmethod
    def from_basis(cls, mat: BinMat, n_qubits: int | None = None) -> "Generator":
        """Canonicalize an arbitrary basis matrix (must have full rank N)."""
        if n_qubits is None:
            if mat.cols % 2:
                raise ValueError("ambient dimension must be even")
            n_qubits = mat.cols // 2
        rows = _rref_ints(mat.rows)
        if len(rows) != n_qubits:
            raise NotMaximalError(
                f"subspace has rank {len(rows)}, expected {n_qubits}"
            )
        return cls(n_qubits, BinMat(2 * n_qubits, tuple(rows)))

    def points(self) -> list[PauliPoint]:
        return generator_points(self)


def generator_from_operators(ops: list[PauliPoint]) -> Generator:
    """Canonical generator spanned by a maximal pairwise-commuting set."""
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n_qubits
    for p in ops:
        if p.n_qubits != n:
            raise ValueError("mixed qubit counts")
    for a, b in itertools.combinations(ops, 2):
        if symplectic_product(a, b):
            raise CommutationError(a, b)
    mat = BinMat(2 * n, tuple(p.coords.bits for p in ops))
    return Generator.from_basis(mat, n)


def generator_points(g: Generator) -> list[PauliPoint]:
    """All 2^N - 1 nonzero points of the row space, sorted by coordinates."""
    span = {0}
    for r in g.basis.rows:
        span |= {v ^ r for v in span}
    span.discard(0)
    return [PauliPoint.from_bits(g.n_qubits, b) for b in sorted(span)]


@lru_cache(maxsize=None)
def enumerate_generators(n_qubits: int) -> tuple[Generator, ...]:
    """All generators of W(2N-1,2), sorted by canonical basis matrix: the
    lifts of the projected image, which is one Clifford orbit.

    The count is (2+1)(2^2+1)...(2^N+1).
    """
    from .projection import lift_table

    return tuple(sorted(lift_table(n_qubits).values(), key=lambda g: g.basis.rows))


def generator_count(n_qubits: int) -> int:
    """The closed-form count of generators, prod_{i=1..N} (2^i + 1)."""
    out = 1
    for i in range(1, n_qubits + 1):
        out *= (1 << i) + 1
    return out
