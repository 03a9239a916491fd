"""Point and index enumerations and label statistics for the tests: each is
computed from a point's bits or label alone, independently of the code
under test."""

import itertools

from lgrpauli.pauli import _LABEL_CHUNKS, BITS_LETTER, LETTER_BITS, Generator, LabelError, PauliPoint
from lgrpauli.pluecker import principal_keys


def subset_keys(n_ambient: int, k: int) -> tuple[int, ...]:
    """Integer keys of all k-subsets of {1..n_ambient}, ascending."""
    return tuple(sorted(sum(1 << (j - 1) for j in c)
                        for c in itertools.combinations(range(1, n_ambient + 1), k)))


def all_points(n_qubits: int) -> list[PauliPoint]:
    """All 4^N - 1 nonzero points, in coordinate order."""
    return [PauliPoint(n_qubits, b) for b in range(1, 1 << (2 * n_qubits))]


def generator_points(g: Generator) -> list[PauliPoint]:
    """All 2^N - 1 nonzero points of the row space, sorted by coordinates."""
    span = {0}
    for r in g.rows:
        span |= {v ^ r for v in span}
    span.discard(0)
    return [PauliPoint(g.n_qubits, b) for b in sorted(span)]


def y_count(p: PauliPoint) -> int:
    return p.label().count("Y")


def quad_form(p: PauliPoint) -> int:
    """The quadratic form sum_i x_i x_{N+i}; 0 iff the operator is symmetric,
    i.e. its label carries an even number of Y's."""
    b = p.bits
    return (b & (b >> p.n_qubits)).bit_count() & 1


def label_oracle(p: PauliPoint) -> str:
    """The label letter by letter, each from the qubit's bit pair."""
    n, b = p.n_qubits, p.bits
    return "".join(BITS_LETTER[((b >> i) & 1, (b >> (n + i)) & 1)] for i in range(n))


def label_chunk_oracle(p: PauliPoint) -> str:
    """The label four letters at a time, joined from a comprehension."""
    n, b = p.n_qubits, p.bits
    x = b >> n
    return "".join([_LABEL_CHUNKS[(b >> i & 15) << 4 | x >> i & 15] for i in range(0, n, 4)])[:n]


def from_label_oracle(s: str) -> PauliPoint | str:
    """``PauliPoint.from_label`` letter by letter, one shift per bit, or the
    message of the ``LabelError`` it raises."""
    if s and s[0] in "+-\u2212":
        s = s[1:]
    if not s:
        return "empty operator label"
    n, bits = len(s), 0
    for i, ch in enumerate(s):
        if ch not in LETTER_BITS:
            return f"bad character {ch!r} in label {s!r}"
        xi, xni = LETTER_BITS[ch]
        bits |= xi << i | xni << (n + i)
    if bits == 0:
        return "the all-identity label has no point"
    return PauliPoint(n, bits)


def from_label_outcome(s: str) -> PauliPoint | str:
    try:
        return PauliPoint.from_label(s)
    except LabelError as e:
        return str(e)


def principal_bits(n: int, table: int) -> int:
    """The principal coordinates of an N-qubit Plucker table, one key at a
    time: bit m is the coordinate at the key of subset m."""
    return sum((table >> key & 1) << m for m, key in enumerate(principal_keys(n)))
