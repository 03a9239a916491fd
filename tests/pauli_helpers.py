"""Point and index enumerations and label statistics for the tests: each is
computed from a point's bits or label alone, independently of the code
under test.  Also the field GF(2^N) at N = 2..5, for the Desarguesian
spread."""

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


# the modulus of GF(2^N) by N: bit k is the coefficient of x^k
FIELD_MODULI = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def field_product(n: int, a: int, b: int) -> int:
    """a * b in GF(2^N), each element in the polynomial basis 1, x, .., x^(N-1)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= FIELD_MODULI[n]
    return out


def field_trace(n: int, a: int) -> int:
    """Tr(a) = a + a^2 + a^4 + .. + a^(2^(N-1)), which is 0 or 1."""
    t = 0
    for _ in range(n):
        t ^= a
        a = field_product(n, a, a)
    return t


def desarguesian_spread(n: int) -> list[Generator]:
    """The 2^N + 1 generators <(t, 0)> and <(a t, t)>, one per a in GF(2^N),
    of GF(2^N)^2 with the form Tr(x y' + x' y).  A pair (x, y) is the point
    whose Z half (bit i - 1, x_i) is x in the polynomial basis and whose X
    half (bit N + i - 1) is y in the trace-dual basis, coordinate j being
    Tr(y x^j); the form is then the symplectic product."""
    def point(x: int, y: int) -> int:
        return x | sum(field_trace(n, field_product(n, y, 1 << j)) << j for j in range(n)) << n

    units = [1 << k for k in range(n)]
    return [Generator(n, [point(t, 0) for t in units])] + [
        Generator(n, [point(field_product(n, a, t), t) for t in units]) for a in range(1 << n)]
