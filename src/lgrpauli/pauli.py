"""N-qubit Pauli operators in binary symplectic form, and the maximal
totally isotropic subspaces of GF(2)^{2N} they span.

An operator (modulo sign) is a length-2N vector (x_1..x_N, x_{N+1}..x_{2N})
with qubit i encoded as the pair (x_i, x_{N+i}):

    I = (0,0)   X = (0,1)   Y = (1,1)   Z = (1,0)

Two operators commute exactly when their symplectic product vanishes.
A maximal set of pairwise commuting operators is an N-dimensional totally
isotropic subspace; we keep each as its Plucker vector, the wedge of any basis,
which is canonical and reads back as the reduced-row-echelon basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .gf2 import absent_masks, packed_rref, wedge

MAX_QUBITS = 5

LETTER_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
BITS_LETTER = {v: k for k, v in LETTER_BITS.items()}
# four-qubit labels indexed by (z << 4) | x, qubit k by z bit k = x_k and x bit k = x_{N+k}
_LABEL_CHUNKS = tuple("".join(BITS_LETTER[(c >> 4 + k & 1, c >> k & 1)] for k in range(4))
                      for c in range(256))


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
        n, b = self.n_qubits, self.bits
        x = b >> n
        return "".join(_LABEL_CHUNKS[(b >> i & 15) << 4 | x >> i & 15]
                       for i in range(0, n, 4))[:n]


def symplectic_product(a: PauliPoint, b: PauliPoint) -> int:
    """The alternating form sum_i (x_i y_{N+i} + x_{N+i} y_i); 0 iff a, b commute."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    n, x, y = a.n_qubits, a.bits, b.bits
    return ((x & (y >> n)).bit_count() + ((x >> n) & y & ((1 << n) - 1)).bit_count()) & 1


def commute(a: PauliPoint, b: PauliPoint) -> bool:
    return symplectic_product(a, b) == 0


@lru_cache(maxsize=None)
def omega_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Contraction with omega = sum_i e_i ^ e_{N+i}: each pair p_i = {i, N+i}
    as a key, with the mask M_i of the keys containing it.  For a wedge w,
    XOR_i (w & M_i) >> p_i is the contraction, and a rank-N wedge is
    totally isotropic iff it vanishes."""
    absent = absent_masks(2 * n)
    full = (1 << (1 << 2 * n)) - 1
    return tuple(((1 << i) | (1 << n + i), full ^ (absent[i] | absent[n + i])) for i in range(n))


@dataclass(frozen=True, init=False)
class Generator:
    """A maximal totally isotropic subspace, held as its Plucker vector:
    bit m of ``table`` is the minor on the columns of subset mask m.  The
    constructor takes any spanning rows of at most 2N bits; the vector
    depends only on their span, so two generators are equal iff their row
    spaces are, and ``rows`` reads the canonical RREF basis back from it.
    """

    n_qubits: int
    table: int

    def __init__(self, n_qubits: int, rows: Iterable[int]):
        n = n_qubits
        table, rank = wedge(rows, 2 * n)  # ValueError for a row wider than 2N bits
        if rank != n:
            raise NotMaximalError(f"subspace has rank {rank}, expected {n}")
        s = 0
        for p, m in omega_masks(n):
            s ^= (table & m) >> p
        if s:
            raise ValueError("basis is not totally isotropic")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "table", table)

    @property
    def rows(self) -> tuple[int, ...]:
        """The canonical RREF basis: N packed rows of 2N bits."""
        n, packed = self.n_qubits, packed_rref(self.table, 2 * self.n_qubits)
        return tuple([packed >> 2 * n * i & (1 << 2 * n) - 1 for i in reversed(range(n))])

    def __repr__(self) -> str:
        return f"Generator({self.n_qubits}, {self.rows})"


def generator_from_operators(ops: list[PauliPoint]) -> Generator:
    """Canonical generator spanned by a maximal pairwise-commuting set.  The
    span is isotropic iff the operators commute, so only a rejected set is
    searched for its first anticommuting pair (reported before its rank)."""
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n_qubits
    for p in ops:
        if p.n_qubits != n:
            raise ValueError("mixed qubit counts")
    try:
        return Generator(n, [p.bits for p in ops])
    except ValueError:
        for a, b in itertools.combinations(ops, 2):
            if symplectic_product(a, b):
                raise CommutationError(a, b) from None
        raise


@lru_cache(maxsize=None)
def enumerate_generators(n_qubits: int) -> tuple[Generator, ...]:
    """All generators of W(2N-1,2), sorted by canonical basis matrix: the
    lifts of the projected image, which is one Clifford orbit.

    The count is (2+1)(2^2+1)...(2^N+1).
    """
    from .projection import lift_table

    # packed rows order as the row tuples do, and take less memory
    return tuple(sorted(lift_table(n_qubits).values(), key=lambda g: packed_rref(g.table, 2 * n_qubits)))


def generator_count(n_qubits: int) -> int:
    """The closed-form count of generators, prod_{i=1..N} (2^i + 1)."""
    out = 1
    for i in range(1, n_qubits + 1):
        out *= (1 << i) + 1
    return out
