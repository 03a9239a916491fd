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

from .gf2 import rref

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
    """A nonzero N-qubit Pauli operator modulo sign: bit i-1 of ``bits`` is
    x_i and bit N+i-1 is x_{N+i}."""

    n_qubits: int
    bits: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if not 0 < self.bits < 1 << (2 * self.n_qubits):
            raise ValueError(f"bits must be in 1..4^N-1 for N={self.n_qubits}, got {self.bits}")

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
        return cls(n, bits)

    def label(self) -> str:
        n = self.n_qubits
        b = self.bits
        return "".join(
            BITS_LETTER[((b >> i) & 1, (b >> (n + i)) & 1)] for i in range(n)
        )


def _symplectic_int(a: int, b: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((a & (b >> n)).bit_count() + ((a >> n) & b & mask).bit_count()) & 1


def symplectic_product(a: PauliPoint, b: PauliPoint) -> int:
    """The alternating form sum_i (x_i y_{N+i} + x_{N+i} y_i); 0 iff a, b commute."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    return _symplectic_int(a.bits, b.bits, a.n_qubits)


def commute(a: PauliPoint, b: PauliPoint) -> bool:
    return symplectic_product(a, b) == 0


@dataclass(frozen=True, order=True)
class Generator:
    """A maximal totally isotropic subspace, held as its canonical RREF basis:
    N packed rows of 2N bits.  The constructor takes any spanning rows and
    reduces them, so two generators are equal iff their row spaces are.
    """

    n_qubits: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.n_qubits
        if any(r >> (2 * n) for r in self.rows):
            raise ValueError(f"basis rows must have at most {2 * n} bits")
        rows = tuple(rref(self.rows))
        if len(rows) != n:
            raise NotMaximalError(f"subspace has rank {len(rows)}, expected {n}")
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if _symplectic_int(a, b, n):
                    raise ValueError("basis is not totally isotropic")
        object.__setattr__(self, "rows", rows)


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
    return Generator(n, [p.bits for p in ops])


@lru_cache(maxsize=None)
def enumerate_generators(n_qubits: int) -> tuple[Generator, ...]:
    """All generators of W(2N-1,2), sorted by canonical basis matrix: the
    lifts of the projected image, which is one Clifford orbit.

    The count is (2+1)(2^2+1)...(2^N+1).
    """
    from .projection import lift_table

    return tuple(sorted(lift_table(n_qubits).values(), key=lambda g: g.rows))


def generator_count(n_qubits: int) -> int:
    """The closed-form count of generators, prod_{i=1..N} (2^i + 1)."""
    out = 1
    for i in range(1, n_qubits + 1):
        out *= (1 << i) + 1
    return out
