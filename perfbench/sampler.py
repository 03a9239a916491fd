"""Seeded benchmark inputs, built without calling the library.

Operators and points use the library's documented encodings: an N-qubit
operator is a 2N-bit integer whose qubit i is the pair (bit i, bit N+i),
with I=(0,0), X=(0,1), Y=(1,1), Z=(1,0); a projected point packs the
principal minor on subset-mask m at bit m.  The expected results are
computed here with an independent GF(2) determinant, so the benchmark can
check the library's outputs rather than trust them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_LETTER = {(0, 0): "I", (0, 1): "X", (1, 1): "Y", (1, 0): "Z"}

VALID = "valid"
NONCOMMUTING = "noncommuting"
NONMAXIMAL = "nonmaximal"
OFF_IMAGE = "off_image"
INVALID_KINDS = (NONCOMMUTING, NONMAXIMAL, OFF_IMAGE)


def symplectic(a: int, b: int, n: int) -> int:
    """1 when the operators a and b anticommute, else 0."""
    mask = (1 << n) - 1
    return ((a & (b >> n)).bit_count() + ((a >> n) & b & mask).bit_count()) & 1


def span(rows) -> frozenset[int]:
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return frozenset(out)


def sample_lagrangian(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniformly random ordered basis of a uniformly random maximal
    isotropic subspace of GF(2)^{2N}.

    Greedy extension: each next vector is drawn uniformly from the
    operators that commute with the chosen ones and lie outside their
    span.  That set has 2^{2N-k} - 2^k members after k steps whatever was
    chosen, so every ordered basis of every subspace is equally likely.
    """
    rows: list[int] = []
    spanned = {0}
    top = 1 << (2 * n)
    while len(rows) < n:
        v = rng.randrange(1, top)
        if v in spanned or any(symplectic(v, r, n) for r in rows):
            continue
        rows.append(v)
        spanned |= {s ^ v for s in spanned}
    return tuple(rows)


def label(n: int, v: int) -> str:
    return "".join(_LETTER[((v >> i) & 1, (v >> (n + i)) & 1)] for i in range(n))


def from_label(s: str) -> int:
    n = len(s)
    bits = {v: k for k, v in _LETTER.items()}
    out = 0
    for i, ch in enumerate(s):
        lo, hi = bits[ch]
        out |= (lo << i) | (hi << (n + i))
    return out


def _det(rows: list[int]) -> int:
    """Determinant over GF(2) of a square matrix given as packed rows."""
    rows = list(rows)
    for i in range(len(rows)):
        bit = 1 << i
        for k in range(i, len(rows)):
            if rows[k] & bit:
                break
        else:
            return 0
        pivot = rows[k]
        rows[k] = rows[i]
        for k in range(i + 1, len(rows)):
            if rows[k] & bit:
                rows[k] ^= pivot
    return 1


def on_chart(n: int, rows) -> bool:
    """Whether the empty-set minor, the determinant of the X half, is 1."""
    return bool(_det([r & ((1 << n) - 1) for r in rows]))


def principal_point(n: int, rows) -> int:
    """Principal-minor coordinates of the subspace spanned by ``rows``: the
    minor on subset I takes column j from the X half for j outside I and
    from the Z half for j in I."""
    full = (1 << n) - 1
    bits = 0
    for m in range(1 << n):
        if _det([(r & full & ~m) | ((r >> n) & m) for r in rows]):
            bits |= 1 << m
    return bits


def display_masks(n: int) -> list[int]:
    """Subset masks in display order: the subsets without element 1,
    ascending with element 1 most significant, then their complements."""
    first = []
    for d in range(1 << (n - 1)):
        m = 0
        for j in range(2, n + 1):
            if (d >> (n - j)) & 1:
                m |= 1 << (j - 1)
        first.append(m)
    full = (1 << n) - 1
    return first + [full ^ m for m in first]


def display_string(n: int, bits: int) -> str:
    return "".join(str((bits >> m) & 1) for m in display_masks(n))


def observable(n: int, bits: int) -> str:
    """The display coordinates read as a Pauli label on 2^(N-1) qubits."""
    d = display_string(n, bits)
    half = len(d) // 2
    return "".join(_LETTER[(int(d[k]), int(d[k + half]))] for k in range(half))


def transport(n: int, bits: int, t: int) -> int:
    """Coordinates permuted by x_S -> x_{S xor t}: the Hadamard swap of the
    qubits in t, which maps the image onto itself."""
    out = 0
    for m in range(1 << n):
        if (bits >> m) & 1:
            out |= 1 << (m ^ t)
    return out


@dataclass(frozen=True)
class Item:
    """One stream input.  ``labels`` feed ``map``; ``point`` feeds ``lift``
    for off-image items; ``bits`` and ``obs`` are the expected results of a
    valid item."""

    kind: str
    labels: tuple[str, ...] = ()
    point: int = 0
    bits: int = 0
    obs: str = ""


def _noncommuting(rng: random.Random, n: int, rows) -> tuple[int, ...]:
    k = rng.randrange(n)
    others = [r for i, r in enumerate(rows) if i != k]
    top = 1 << (2 * n)
    while True:
        v = rng.randrange(1, top)
        if any(symplectic(v, r, n) for r in others):
            return tuple(others[:k]) + (v,) + tuple(others[k:])


def _nonmaximal(rng: random.Random, n: int, rows) -> tuple[int, ...]:
    i, j, k = rng.sample(range(n), 3)
    out = list(rows)
    out[k] = rows[i] ^ rows[j]
    return tuple(out)


def _off_image(rng: random.Random, n: int) -> int:
    """A point outside the image.  A chart point (empty-set coordinate 1)
    is fixed by its singleton and pair coordinates, so flipping one
    coordinate on three or more elements leaves the image; a transport
    that clears the empty-set coordinate then gives an off-chart one."""
    _, bits = sample_point(rng, n, chart=True)
    big = [m for m in range(1 << n) if m.bit_count() >= 3]
    bits ^= 1 << rng.choice(big)
    if rng.random() < 0.5:
        return bits
    zeros = [t for t in range(1, 1 << n) if not (bits >> t) & 1]
    return transport(n, bits, rng.choice(zeros))


def make_items(seed: int, n: int, count: int, invalid_share: float) -> list[Item]:
    """``count`` stream inputs; each is invalid with ``invalid_share``
    probability, split evenly over the three invalid kinds."""
    if n < 3:
        raise ValueError("invalid inputs need N >= 3")
    rng = random.Random(seed)
    items = []
    while len(items) < count:
        if rng.random() < invalid_share:
            kind = rng.choice(INVALID_KINDS)
            if kind == OFF_IMAGE:
                items.append(Item(kind, point=_off_image(rng, n)))
                continue
            rows = sample_lagrangian(rng, n)
            bad = _noncommuting(rng, n, rows) if kind == NONCOMMUTING else _nonmaximal(rng, n, rows)
            items.append(Item(kind, labels=tuple(label(n, r) for r in bad)))
            continue
        rows, bits = sample_point(rng, n)
        items.append(Item(VALID, labels=tuple(label(n, r) for r in rows),
                          bits=bits, obs=observable(n, bits)))
    return items


def sample_point(rng: random.Random, n: int, chart: bool | None = None):
    """A random image point with its spanning basis; ``chart`` picks the
    empty-set coordinate (None: either)."""
    while True:
        rows = sample_lagrangian(rng, n)
        if chart is None or on_chart(n, rows) == chart:
            return rows, principal_point(n, rows)
