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
from functools import lru_cache
from operator import attrgetter, eq, ge, gt, le, lt
from typing import Iterable

from .gf2 import column_masks, packed_rref, wedge

MAX_QUBITS = 5
SHOWN_LETTERS = 40  # of a label in a message

LETTER_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
BITS_LETTER = {v: k for k, v in LETTER_BITS.items()}
# four-qubit labels indexed by (z << 4) | x, qubit k by z bit k = x_k and x bit k = x_{N+k}
_LABEL_CHUNKS = tuple("".join(BITS_LETTER[(c >> 4 + k & 1, c >> k & 1)] for k in range(4))
                      for c in range(256))
# translate tables from a label's bytes to the digits x_i and x_{N+i}, 2 off "IXYZ"
_LOW_DIGITS, _HIGH_DIGITS = (bytes(48 + LETTER_BITS.get(chr(c), (2, 2))[k] for c in range(256)) for k in (0, 1))


def _compare(op):
    """The comparison ``op`` of two values of one class by their fields."""
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._key(self), self._key(other))
        return NotImplemented
    return compare


class _Value:
    """An immutable value whose ``__slots__`` are its fields: equal and
    hashed as their tuple within one class, ordered by it if declared with
    ``order=True``, shown as ``Name(field=value, ...)``, and copied and
    pickled through its constructor.  Assignment raises AttributeError, so a
    constructor writes its slots through ``_setters``, one per slot in order;
    the default constructor takes the fields positionally and writes them."""

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False):
        cls._key = attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[s].__set__ for s in cls.__slots__)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_compare, (lt, le, gt, ge))

    # Generator unpacks ``_setters`` instead of calling this: every warm
    # ``map`` and lift miss builds one.  It tests the qubit count inline and
    # calls ``_require_qubits`` only to word a failure.
    def __init__(self, *fields, **named):
        if named or len(fields) != len(self._setters):
            raise TypeError(f"{type(self).__qualname__} takes its {len(self._setters)} fields positionally")
        for set_slot, value in zip(self._setters, fields):
            set_slot(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __hash__(self) -> int:
        return hash(self._key(self))

    __eq__ = _compare(eq)


def _require_int(name: str, value) -> None:
    """Raise a ValueError naming ``value`` unless it is an int (a bool is not)."""
    if value.__class__ is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _require_qubits(n, lo: int = 1, hi: int | None = MAX_QUBITS, name: str = "qubit count") -> None:
    """Raise a ValueError naming ``n`` unless it is an int (not a bool)
    qubit count in lo..hi, or at least lo if ``hi`` is None."""
    _require_int(name, n)
    if n < lo or hi is not None and n > hi:
        raise ValueError(f"{name} {n} is below {lo}" if hi is None else f"{name} {n} is outside {lo}..{hi}")


def _shown(label: str, show=str) -> str:
    """``label`` as a message shows it, through ``show``: whole up to
    SHOWN_LETTERS letters, else its first SHOWN_LETTERS, "…" and its length."""
    if len(label) <= SHOWN_LETTERS:
        return show(label)
    return f"{show(label[:SHOWN_LETTERS])}… ({len(label)} letters)"


class LabelError(ValueError):
    """Raised for malformed operator labels."""


class CommutationError(ValueError):
    """Raised when a pair of operators fails to commute."""

    def __init__(self, a: "PauliPoint", b: "PauliPoint"):
        self.pair = (a, b)
        super().__init__(f"operators {a.label()} and {b.label()} do not commute")

    def __reduce__(self):
        return type(self), self.pair


class NotMaximalError(ValueError):
    """Raised when a commuting set does not span an N-dimensional subspace."""


class PauliPoint(_Value, order=True):
    """A nonzero N-qubit Pauli operator modulo sign: bit i-1 of ``bits`` is
    x_i and bit N+i-1 is x_{N+i}."""

    __slots__ = ("n_qubits", "bits")

    def __init__(self, n_qubits: int, bits: int):
        _require_qubits(n_qubits, 1, None)
        if not (bits.__class__ is int and 0 < bits and not bits >> 2 * n_qubits):  # builds no 2^(2N) bound
            _require_int("bits", bits)
            raise ValueError(f"bits must be in 1..4^N-1 for N={n_qubits}, got {bits}")
        _Value.__init__(self, n_qubits, bits)

    @classmethod
    def from_label(cls, s: str) -> "PauliPoint":
        """Parse a label such as ``"IYZX"``; an optional leading sign is ignored.

        Each accepted label of at most ``MAX_QUBITS`` letters after its sign
        is parsed once: its point is kept in ``_parsed``, keyed by the label
        as given, and every later call returns that same immutable object.
        The memo is bounded by that domain, 4 sign forms x 1,359 labels
        (5,436 points, about 0.8 MB); longer labels and rejected ones are
        parsed on every call and never stored.
        """
        try:
            if p := _parsed.get(s):
                return p
        except TypeError:  # unhashable: rejected below
            pass
        if not isinstance(s, str):
            raise LabelError(f"label must be a str, got {type(s).__name__}")
        label = s
        if s and s[0] in "+-−":
            s = s[1:]
        if not s:
            raise LabelError("empty operator label")
        n = len(s)
        try:  # the reversed label spells x_{2N}..x_{N+1}, then x_N..x_1
            r = s.encode()[::-1]
            bits = int(r.translate(_HIGH_DIGITS) + r.translate(_LOW_DIGITS), 2)
        except ValueError:  # a byte off "IXYZ" reads as the digit 2; a lone surrogate fails to encode
            bad = next(ch for ch in s if ch not in LETTER_BITS)
            raise LabelError(f"bad character {bad!r} in label {_shown(s, repr)}") from None
        if bits == 0:
            raise LabelError("the all-identity label has no point")
        p = cls(n, bits)
        if n <= MAX_QUBITS:
            _parsed[label] = p
        return p

    def label(self) -> str:
        n, b = self.n_qubits, self.bits
        x = b >> n
        out = ""
        for i in range(0, n, 4):  # a loop, not a comprehension and its frame
            out += _LABEL_CHUNKS[(b >> i & 15) << 4 | x >> i & 15]
        return out[:n]


# label as given -> its point, for labels of at most MAX_QUBITS letters; filled by from_label
_parsed: dict[str, PauliPoint] = {}


def symplectic_product(a: PauliPoint, b: PauliPoint) -> int:
    """The alternating form sum_i (x_i y_{N+i} + x_{N+i} y_i); 0 iff a, b commute."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} and {b.n_qubits}")
    n, x, y = a.n_qubits, a.bits, b.bits
    return ((x & (y >> n)).bit_count() + ((x >> n) & y & ((1 << n) - 1)).bit_count()) & 1


def commute(a: PauliPoint, b: PauliPoint) -> bool:
    return symplectic_product(a, b) == 0


@lru_cache(maxsize=None)
def omega_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Each pair p_i = {i, N+i} as a key, with the mask M_i of the keys containing it."""
    cols = column_masks(2 * n)
    return tuple(((1 << i) | (1 << n + i), cols[i] & cols[n + i]) for i in range(n))


def omega_contraction(n: int, table: int) -> int:
    """Contraction with omega = sum_i e_i ^ e_{N+i}, XOR_i (table & M_i) >> p_i
    over ``omega_masks``; a rank-N wedge is totally isotropic iff it vanishes."""
    s = 0
    for p, m in omega_masks(n):
        s ^= (table & m) >> p
    return s


class Generator(_Value):
    """A maximal totally isotropic subspace, held as its Plucker vector:
    bit m of ``table`` is the minor on the columns of subset mask m.  The
    constructor takes any spanning rows of at most 2N bits; the vector
    depends only on their span, so two generators are equal iff their row
    spaces are, and ``rows`` reads the canonical RREF basis back from it.
    Refused, in order: the qubit count; a row's type or width; the first
    anticommuting pair of distinct rows (``CommutationError``) whenever the
    span is not isotropic, at any rank; a rank below N (``NotMaximalError``).
    """

    __slots__ = ("n_qubits", "table")

    def __init__(self, n_qubits: int, rows: Iterable[int]):
        n = n_qubits
        if n.__class__ is not int or not 0 < n <= MAX_QUBITS:
            _require_qubits(n)
        if rows.__class__ is not list:  # a refused set is read again for its pair
            rows = list(rows)
        table, rank = wedge(rows, 2 * n)  # ValueError for a row not an int or wider than 2N bits
        if omega_contraction(n, table):  # a span that is not isotropic has an anticommuting pair
            pairs = itertools.combinations([PauliPoint(n, r) for r in dict.fromkeys(rows) if r], 2)
            raise CommutationError(*next((a, b) for a, b in pairs if symplectic_product(a, b)))
        if rank < n:
            raise NotMaximalError(f"subspace has rank {rank}, expected {n}")
        set_n, set_table = self._setters
        set_n(self, n)
        set_table(self, table)

    def __reduce__(self):
        return type(self), (self.n_qubits, self.rows)

    @property
    def rows(self) -> tuple[int, ...]:
        """The canonical RREF basis: N packed rows of 2N bits."""
        n, packed = self.n_qubits, packed_rref(self.table, 2 * self.n_qubits)
        return tuple([packed >> 2 * n * i & (1 << 2 * n) - 1 for i in reversed(range(n))])

    def __repr__(self) -> str:
        return f"Generator({self.n_qubits}, {self.rows})"


def generator_from_operators(ops: list[PauliPoint]) -> Generator:
    """Canonical generator spanned by a maximal pairwise-commuting set, refused as
    ``Generator`` refuses its rows: its first anticommuting pair, then its rank."""
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n_qubits
    rows = []
    for p in ops:  # a loop, not a comprehension and its frame
        if p.n_qubits != n:
            raise ValueError(f"qubit count mismatch: {n} and {p.n_qubits}")
        rows.append(p.bits)
    return Generator(n, rows)


def generator_count(n_qubits: int) -> int:
    """The closed-form count of generators, prod_{i=1..N} (2^i + 1)."""
    _require_qubits(n_qubits, 1, None)
    out = 1
    for i in range(1, n_qubits + 1):
        out *= (1 << i) + 1
    return out
