"""Tests for the principal-coordinate projection, display ordering, the
observable map, and the chart-based inverse."""

import itertools
import operator
import random
import re
import tracemalloc
from collections import defaultdict
from functools import lru_cache, reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli import pauli, pluecker, projection
from lgrpauli.gf2 import LOWER, SWAP, apply_gate, apply_tables, byte_tables, gate, grades, rank
from lgrpauli.pauli import (
    BITS_LETTER,
    Generator,
    PauliPoint,
    _require_qubits,
    commute,
    generator_count,
    generator_from_operators,
    omega_masks,
)
from lgrpauli.pluecker import (
    PlueckerVec,
    embed,
    lagrangian_constraints,
    principal_keys,
)
from lgrpauli.projection import (
    NotInImageError,
    ProjPoint,
    _image_bits,
    _lift_points,
    _principal_bits,
    clifford_gates,
    display_masks,
    enumerate_generators,
    lift,
    project,
    to_observable,
)
from gf2_oracles import rref
from orbit_oracles import minor, to_chart
from pauli_helpers import desarguesian_spread, generator_points, principal_bits, subset_keys, y_count
from pluecker_oracles import SubsetIndex, constraint_value
from projection_oracles import (_chart_cell, chart_points, graph_rows_by_cell, hadamard, image,
                                principal_bits_by_slice)
from test_cli import fresh_stdout


@lru_cache(maxsize=None)
def sweep_generators(n: int) -> tuple[Generator, ...]:
    """Oracle: every maximal isotropic subspace, sorted by canonical basis.

    Every such subspace has a nonzero principal Plucker coordinate, hence
    is the image under a coordinate swap e_i <-> e_{N+i} (i in T) of the
    graph {e_i + sum_j a_ij e_{N+j}} of a symmetric matrix A.  Sweeping all
    2^N swap sets T and all symmetric A reaches every subspace; duplicates
    collapse on the canonical form.
    """
    pair_positions = [(i, j) for i in range(n) for j in range(i, n)]
    seen = set()
    for t_mask in range(1 << n):
        for code in range(1 << len(pair_positions)):
            a = [0] * n
            for k, (i, j) in enumerate(pair_positions):
                if (code >> k) & 1:
                    a[i] |= 1 << j
                    a[j] |= 1 << i
            raw = []
            for i in range(n):
                r = (1 << i) | (a[i] << n)
                for s in range(n):
                    if (t_mask >> s) & 1 and ((r >> s) ^ (r >> (n + s))) & 1:
                        r ^= (1 << s) | (1 << (n + s))
                raw.append(r)
            seen.add(tuple(rref(raw)))
    return tuple(Generator(n, rows) for rows in sorted(seen))


def clifford_orbit(n: int) -> set[int]:
    """Oracle: the image as the orbit of the point x_{} = 1 under the
    Clifford gates H, S and CZ, by breadth-first search."""
    gates = clifford_gates(n)
    seen, frontier = {1}, {1}
    while frontier:
        frontier = {apply_gate(g, v) for v in frontier for g in gates} - seen
        seen |= frontier
    return seen


def chart_matrix(p: ProjPoint) -> tuple[int, ...]:
    """Oracle: the rows of the symmetric matrix A whose graph is the
    subspace of a chart point, read from its minors: a_ii from the singleton
    minors, a_ij = D_i D_j + D_ij."""
    n = p.n_source
    assert p.bits & 1, "not a chart point"
    rows = [0] * n
    for i in range(n):
        di = (p.bits >> (1 << i)) & 1
        if di:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            dj = (p.bits >> (1 << j)) & 1
            dij = (p.bits >> ((1 << i) | (1 << j))) & 1
            if (di & dj) ^ dij:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def lift_per_entry(n: int) -> dict[int, tuple[int, int, Generator]]:
    """Oracle: every lift built entry by entry, from the chart hits H_T q
    in point order: T, the chart code of q, and the graph
    rows e_i + sum_j a_ij e_{N+j} of A, decoded from the code (bit k flips
    entry k, a_ii first, then a_ij for i < j), the columns i <-> N+i swapped
    for i in T, ``Generator(n, rows)`` and ``project(embed(g))`` checked
    against the hit, keyed by its bits."""
    entries = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
    points, hits = chart_points(n), []
    for t in range(1 << n):
        below = sum(1 << (s ^ t) for s in range(t))
        hits += [(apply_tables(hadamard(n, t), q), t, code)
                 for code, q in enumerate(points) if not q & below]
    table = {}
    for bits, t, code in sorted(hits):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(entries):
            if code >> k & 1:
                rows[i] ^= 1 << n + j
                if i != j:
                    rows[j] ^= 1 << n + i
        for i in range(n):
            if t >> i & 1:
                rows = [swap_columns(r, i, n + i) for r in rows]
        g = Generator(n, rows)
        p = project(embed(g))
        assert p.bits == bits
        table[p.bits] = (t, code, g)
    return table


def swap_lift(p: ProjPoint) -> Generator:
    """The graph of the chart matrix of H_T p, columns i <-> N+i swapped for i in T."""
    n = p.n_source
    t, q = to_chart(p)
    rows = [(1 << i) | (a << n) for i, a in enumerate(chart_matrix(q))]
    for i in range(n):
        if t >> i & 1:
            rows = [swap_columns(r, i, n + i) for r in rows]
    return Generator(n, rows)


@lru_cache(maxsize=None)
def constraint_messages(n: int) -> dict:
    return {c: f"input violates isotropy constraint {c}" for c in lagrangian_constraints(n)}


def project_oracle(n: int, table: int) -> ProjPoint | str:
    """Building a vector on ``table`` and projecting it, as a per-constraint
    check: the message of the first constraint, in order, whose terms sum
    to 1 (``constraint_value``, term by term), else the principal
    coordinates, or the message for all of them vanishing."""
    for c, msg in constraint_messages(n).items():
        if constraint_value(c, table):
            return msg
    bits = principal_bits(n, table)
    return ProjPoint(n, bits) if bits else "all principal coordinates vanish: input not Lagrangian"


def project_outcome(n: int, table: int) -> ProjPoint | str:
    try:
        return project(PlueckerVec(n, table))
    except ValueError as e:
        return str(e)


@lru_cache(maxsize=None)
def display_masks_by_elements(n: int) -> tuple[int, ...]:
    """Oracle: ``display_masks`` element by element: entry d < 2^(N-1) holds
    element j >= 2 iff bit N-j of d is set, and entry 2^(N-1) + d is its
    complement."""
    half = 1 << (n - 1)
    first = []
    for d in range(half):
        m = 0
        for j in range(2, n + 1):
            if (d >> (n - j)) & 1:
                m |= 1 << (j - 1)
        first.append(m)
    full = (1 << n) - 1
    return tuple(first + [full ^ m for m in first])


def display_bits_by_masks(p: ProjPoint) -> tuple[int, ...]:
    """Oracle: the display coordinates read one subset mask at a time."""
    return tuple((p.bits >> m) & 1 for m in display_masks_by_elements(p.n_source))


def observable_oracle(p: ProjPoint) -> PauliPoint:
    """``to_observable`` through letters: display coordinates k and k + 2^(N-1)
    are the bit pair of qubit k, and the label is parsed back."""
    db = display_bits_by_masks(p)
    m = len(db) // 2
    return PauliPoint.from_label("".join(BITS_LETTER[(db[k], db[k + m])] for k in range(m)))


def swap_columns(r: int, a: int, b: int) -> int:
    d = ((r >> a) ^ (r >> b)) & 1
    return r ^ (d << a) ^ (d << b)


def add_column(r: int, src: int, dst: int) -> int:
    return r ^ (((r >> src) & 1) << dst)


def clifford_cases(n: int):
    """The gates of ``clifford_gates`` in order, each with its symplectic
    action on one basis row: H_i swaps columns i and N+i; S_i adds column i
    to N+i (A += E_ii); CZ_ij adds column j to N+i and column i to N+j
    (A += E_ij + E_ji)."""
    cases = [(gate(n, 0, 1 << i, SWAP), lambda r, i=i: swap_columns(r, i, n + i))
             for i in range(n)]
    cases += [(gate(n, 0, 1 << i, LOWER), lambda r, i=i: add_column(r, i, n + i))
              for i in range(n)]
    cases += [(gate(n, 0, (1 << i) | (1 << j), LOWER),
               lambda r, i=i, j=j: add_column(add_column(r, j, n + i), i, n + j))
              for i, j in itertools.combinations(range(n), 2)]
    return cases


def transposition_cases(n: int):
    """The gate exchanging axes k and k+1, with its action on a basis row:
    swap qubit columns k <-> k+1 and N+k <-> N+k+1."""
    return [(gate(n, 1 << k, 2 << k, SWAP),
             lambda r, k=k: swap_columns(swap_columns(r, k, k + 1), n + k, n + k + 1))
            for k in range(n - 1)]


def proj(ops):
    labels = [PauliPoint.from_label(s) for s in ops]
    return project(embed(generator_from_operators(labels)))


def test_principal_index_pairs_complementary_columns():
    # subset I of {1..N} -> columns ({1..N} minus I) union {N+i : i in I}
    def members(i_mask):
        return SubsetIndex.from_key(6, principal_keys(3)[i_mask]).members

    assert members(0b010) == (1, 3, 5)
    assert members(0b000) == (1, 2, 3)
    assert members(0b111) == (4, 5, 6)


def test_display_order_first_half_excludes_element_one():
    for n in (2, 3, 4):
        masks = display_masks(n)
        half = 1 << (n - 1)
        assert len(masks) == 2 * half
        assert all(not (m & 1) for m in masks[:half])
        assert all(m & 1 for m in masks[half:])
        # complements line up across halves
        full = (1 << n) - 1
        assert [full ^ m for m in masks[:half]] == list(masks[half:])


def test_display_order_n3_explicit():
    # positions 1..8 as subset masks over {1,2,3} (bit i-1 = element i)
    assert display_masks(3) == (0b000, 0b100, 0b010, 0b110,
                                0b111, 0b011, 0b101, 0b001)


def test_display_masks_match_the_element_oracle():
    assert [display_masks(n) for n in range(1, 6)] == [display_masks_by_elements(n) for n in range(1, 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_display_forms_match_the_per_mask_oracle_and_parse_back(n):
    # every nonzero point at N <= 3, the image at N = 4 and 5, and seeded
    # random points; at N = 5 the bit string, which the other forms are
    # built from, is checked on the whole image and every form on a seeded
    # sample of it (all forms on all 75,735 points would take about 4 s)
    rng = random.Random(60 + n)
    size = 1 << n
    points = [ProjPoint(n, bits) for bits in range(1, 1 << size)] if n <= 3 else list(image(n))
    masks = display_masks_by_elements(n)
    assert [p.bit_string() for p in points] == ["".join("01"[p.bits >> m & 1] for m in masks) for p in points]
    if n == 5:
        points = rng.sample(points, 2000)
    for p in points + [ProjPoint(n, rng.randrange(1, 1 << size)) for _ in range(300)]:
        db = display_bits_by_masks(p)
        s = "".join(map(str, db))
        assert p.bit_string() == s
        assert p.display_str() == "[" + ":".join(s) + "]"
        assert p.hex_string() == format(int(s, 2), f"0{(size + 3) // 4}x")
        for form in (s, p.display_str(), "0x" + p.hex_string()):
            assert ProjPoint.from_string(n, form) == p


@pytest.mark.parametrize("parse, arg, message", [
    (ProjPoint.from_string, (3, "0102"), "expected 8 binary digits or hex"),
    (ProjPoint.from_string, (3, "1111111"), "expected 8 binary digits or hex"),
    (ProjPoint.from_string, (3, "0x1ff"), "expected 8 binary digits or hex"),
    (ProjPoint.from_string, (3, "0x"), "expected 8 binary digits or hex"),
    (ProjPoint.from_string, (2, " 0b10 "), "expected 4 binary digits or hex"),
    (ProjPoint.from_string, (2, "0x\u0661"), "expected 4 binary digits or hex"),
    (ProjPoint.from_string, (3, "[0:1]"), "expected 8 coordinates, each 0 or 1"),
    (ProjPoint.from_string, (3, "[0:1:0:0:0:0:0:2]"), "expected 8 coordinates, each 0 or 1"),
    (ProjPoint.from_string, (3, "00000000"), "point must be nonzero and within 2^N coordinates"),
    (ProjPoint.from_string, (3, "0x0"), "point must be nonzero and within 2^N coordinates"),
    (ProjPoint.from_string, (0, "1"), "source qubit count 0 is below 1"),
    (ProjPoint.from_string, (-1, "1"), "source qubit count -1 is below 1"),
    (ProjPoint.from_string, (3, 5), "point must be a str, got int"),
    (ProjPoint.from_string, (3, b"0010"), "point must be a str, got bytes"),
    (ProjPoint, (3, 1 << 8), "point must be nonzero and within 2^N coordinates"),
    (ProjPoint, (3, -1), "point must be nonzero and within 2^N coordinates"),
    (ProjPoint, (6, 1 << 64), "point must be nonzero and within 2^N coordinates"),
])
def test_malformed_points_keep_their_messages(parse, arg, message):
    with pytest.raises(ValueError) as ei:
        parse(*arg)
    assert str(ei.value) == message


@pytest.mark.parametrize("n", [1, 3, 6])
def test_a_point_takes_every_coordinate_up_to_the_last(n):
    top = (1 << (1 << n)) - 1
    assert ProjPoint(n, top).bits == top
    if n <= 5:
        assert ProjPoint.from_string(n, "1" * (1 << n)) == ProjPoint(n, top)
    else:  # a point takes any N, its display forms N in 1..5
        with pytest.raises(ValueError, match=f"^qubit count {n} is outside 1..5$"):
            ProjPoint.from_string(n, "1" * (1 << n))


def test_point_width_check_builds_no_2_to_the_n_bit_int():
    # the width is read from bits.bit_length(), shifted down by N: a shift
    # by 1 << N builds a 2^N-bit count, and took the peak to 2.5 MiB at
    # N = 10^7; a larger N is not tried, and the edges and messages stay
    tracemalloc.start()
    try:
        p = ProjPoint(10**7, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.bits == 1 and peak < 512 << 10
    for n in (1, 2, 5):
        assert ProjPoint(n, 1 << (1 << n) - 1).bits == 1 << (1 << n) - 1
        with pytest.raises(ValueError, match=r"^point must be nonzero and within 2\^N coordinates$"):
            ProjPoint(n, 1 << (1 << n))


def from_string_by_inverse_table(n: int, text) -> ProjPoint:
    """Oracle: ``ProjPoint.from_string`` reading its display bits through
    byte tables of the inverse display order, display bit j to the subset
    mask ``display_masks(n)[j]``, after the checks of each form."""
    _require_qubits(n, 1, None, "source qubit count")
    if not isinstance(text, str):
        raise ValueError(f"point must be a str, got {type(text).__name__}")
    text, size = text.strip(), 1 << n
    if text.startswith("[") and text.endswith("]"):
        parts = [part.strip() for part in text[1:-1].split(":")]
        if len(parts) != size or set(parts) - {"0", "1"}:
            raise ValueError(f"expected {size} coordinates, each 0 or 1")
        bitstr = "".join(parts)
    elif re.fullmatch(r"0[xX][0-9a-fA-F]+", text):
        bitstr = format(int(text, 16), f"0{size}b")
    else:
        bitstr = text
    if len(bitstr) != size or set(bitstr) - {"0", "1"}:
        raise ValueError(f"expected {size} binary digits or hex")
    return ProjPoint(n, apply_tables(byte_tables([1 << m for m in display_masks(n)]), int(bitstr[::-1], 2)))


def parsed(parse, n, text):
    """The point ``parse`` reads, or the type and message of its ValueError."""
    try:
        return parse(n, text)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_from_string_matches_the_inverse_table_oracle(n):
    # every display string at N <= 3 (the zero string included), seeded
    # ones at N = 4 and 5, each as bits, colon form and hex, spaced and
    # cased; then a malformed text for each message
    size = 1 << n
    rng = random.Random(1300 + n)
    values = range(1 << size) if n <= 3 else [0, (1 << size) - 1, *(rng.getrandbits(size) for _ in range(300))]
    texts = []
    for v in values:
        s = format(v, f"0{size}b")
        texts += [s, "[" + ":".join(s) + "]", f"0x{v:x}", f" 0X{v:0{size // 4}X}\n", "[ " + " : ".join(s) + " ]"]
    s = texts[-5]
    texts += ["", "  ", s[:-1], s + "0", s[:-1] + "2", s.replace("1", "l"), "0b" + s, "[" + s + "]", "[0:1]",
              "[" + ":".join(s[:-1] + "2") + "]", "[:" + ":".join(s) + "]", "0x", f"0x{1 << size:x}", "0x\u0661",
              "x1", "0x1g", "\u0661" * size, 5, b"01", None, ["0"] * size]
    for text in texts:
        assert parsed(ProjPoint.from_string, n, text) == parsed(from_string_by_inverse_table, n, text), text
    for bad_n in (0, -1, True, 3.0, "3"):
        assert parsed(ProjPoint.from_string, bad_n, "1") == parsed(from_string_by_inverse_table, bad_n, "1")


@pytest.mark.parametrize("n", [6, 7])
def test_the_display_path_refuses_n_above_5_before_building_a_table(n, monkeypatch):
    # the display masks and principal keys, the display forms of a point
    # and its observable, and the parser raise before any table over the
    # 2^N coordinates is built; the point itself takes any N
    def no_tables(images):
        raise AssertionError(f"byte tables built over {len(images)} coordinates")

    monkeypatch.setattr(projection, "byte_tables", no_tables)
    p = ProjPoint(n, 1)
    assert p.bits == 1
    for call in (lambda: display_masks(n), lambda: principal_keys(n), p.bit_string, p.display_str, p.hex_string,
                 lambda: to_observable(p), lambda: ProjPoint.from_string(n, "1" * (1 << n)),
                 lambda: ProjPoint.from_string(n, "0x1"), lambda: ProjPoint.from_string(n, "[1:0]")):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == f"qubit count {n} is outside 1..5"


def test_point_serialization_roundtrip():
    p = proj(["ZZI", "XXI", "IIX"])
    assert p.display_str() == "[0:0:0:1:0:0:1:0]"
    assert p.bit_string() == "00010010"
    assert ProjPoint.from_string(3, p.bit_string()) == p
    assert ProjPoint.from_string(3, p.display_str()) == p
    assert ProjPoint.from_string(3, "0x" + p.hex_string()) == p


# the documented point forms: display bits, colon form, ASCII hex
POINT_FORM = re.compile(r"[01]+|\[\s*[01]\s*(:\s*[01]\s*)*\]|0[xX][0-9a-fA-F]+")
point_texts = st.one_of(
    st.text(),
    st.text(alphabet="01:[] \t0xX_abcdefABCDEF9\u0661\uff10"),
    st.from_regex(r"\s*0[xX][0-9a-f_\u0661\uff10]{1,4}\s*", fullmatch=True),
    st.lists(st.sampled_from(["0", "1", " 1", "0 ", "2", ""]), min_size=1, max_size=17)
    .map(lambda parts: "[" + ":".join(parts) + "]"),
)


@given(st.integers(1, 4), point_texts)
def test_from_string_fuzz(n, text):
    try:
        p = ProjPoint.from_string(n, text)
    except ValueError:
        return
    assert POINT_FORM.fullmatch(text.strip())
    assert p.n_source == n
    for form in (p.bit_string(), p.display_str(), "0x" + p.hex_string()):
        assert ProjPoint.from_string(n, form) == p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_project_names_the_first_violated_constraint(n):
    # sparse tables on the N-subset keys, or on keys of any size: the vector
    # refuses a key off the N-subsets, naming the lowest, and the table
    # without those keys is built, which names the first constraint it
    # violates, and projected
    rng = random.Random(n)
    pools = (subset_keys(2 * n, n), range(1 << (2 * n)))
    masks = {c: sum(1 << k for k in c.term_keys) for c in lagrangian_constraints(n)}
    rejected = vanished = refused = 0
    for _ in range(2000):
        bits = rng.sample(pools[rng.randrange(2)], rng.randrange(1, 6))
        off = [k for k in bits if k.bit_count() != n]
        if off:
            with pytest.raises(ValueError, match=f"^Plucker key {min(off)} is not a {n}-subset of 1..{2 * n}$"):
                PlueckerVec(n, sum(1 << k for k in bits))
            refused += 1
        table = sum(1 << k for k in bits if k not in off)
        expected = project_oracle(n, table)
        assert project_outcome(n, table) == expected
        assert all((table & m).bit_count() & 1 == constraint_value(c, table) for c, m in masks.items())
        rejected += isinstance(expected, str) and "isotropy" in expected
        vanished += isinstance(expected, str) and "vanish" in expected
    assert 0 < rejected < 2000 and vanished > 0 and refused > 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contraction_matches_constraint_oracle_on_single_bit_flips(n):
    keys = subset_keys(2 * n, n)
    for g in enumerate_generators(n):
        t = embed(g).table
        for k in keys:
            assert project_outcome(n, t ^ 1 << k) == project_oracle(n, t ^ 1 << k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_constraint_keys_are_every_bit_the_contraction_can_set(n):
    # ``PlueckerVec`` rejects a table whose contraction is nonzero, naming the
    # constraint of a set bit: the keys K must be exactly the bits that the
    # contraction of a table on the N-subset keys can set, and those are the
    # (N-2)-subset keys (none at N = 1); each constraint's K is the meet of
    # two of its terms K | p_i
    reach = 0
    for pair, m in omega_masks(n):
        reach |= (grades(2 * n)[n] & m) >> pair
    keys = sum(1 << (c.term_keys[0] & c.term_keys[1]) for c in lagrangian_constraints(n))
    assert keys == reach == sum(1 << k for k in range(1 << 2 * n) if k.bit_count() == n - 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_to_observable_matches_letter_oracle(n):
    rng = random.Random(n)
    size = 1 << n
    others = [ProjPoint(n, rng.randrange(1, 1 << size)) for _ in range(300)]
    for p in image(n) + tuple(others):
        assert to_observable(p) == observable_oracle(p)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_warm_map_builds_what_the_checking_constructors_build(n):
    # embed, project and to_observable write their values' slots without
    # the constructors; each value is the constructor's in type, fields and
    # hash.  The observable's reference is PauliPoint of apply_tables.
    image_bits = _image_bits(n)
    points = image_bits if n < 5 else random.Random(36).sample(image_bits, 2000)
    for bits, g in zip(points, _lift_points(n, points)):
        v = embed(g)
        p = project(v)
        o = to_observable(p)
        observable = PauliPoint(1 << n - 1, apply_tables(projection._display_order(n), bits))
        for built, checked in ((v, PlueckerVec(n, g.table)), (p, ProjPoint(n, bits)), (o, observable)):
            assert type(built) is type(checked) and repr(built) == repr(checked)
            assert built == checked and hash(built) == hash(checked)
        assert project(PlueckerVec(n, g.table)) == p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_warm_map_and_lift_make_no_qubit_count_call(monkeypatch, n):
    # a warm map builds one Generator, which tests N inline and calls
    # _require_qubits only to word a failure; a warm lift reads its memo;
    # embed, project and to_observable write their values' slots, so
    # _Value.__init__ never runs
    points = random.Random(n).sample(_image_bits(n), 12)
    families = [[PauliPoint(n, r).label() for r in lift(ProjPoint(n, bits)).rows] for bits in points]

    def map_and_lift(labels):
        p = project(embed(generator_from_operators([PauliPoint.from_label(s) for s in labels])))
        return to_observable(p).label(), lift(p)

    warm = [map_and_lift(labels) for labels in families]
    calls, inits = [], []

    def counted(*args):
        calls.append(args)
        return require_qubits(*args)

    def counted_init(self, *fields):
        inits.append(type(self))
        value_init(self, *fields)

    require_qubits, value_init = pauli._require_qubits, pauli._Value.__init__
    for module in (pauli, pluecker, projection):
        monkeypatch.setattr(module, "_require_qubits", counted)
    monkeypatch.setattr(pauli._Value, "__init__", counted_init)
    assert [map_and_lift(labels) for labels in families] == warm
    assert calls == [] and inits == []
    ProjPoint.from_string(n, "1" * (1 << n))  # the counters see the calls that remain
    assert calls == [(n, 1, None, "source qubit count")] * 2  # from_string's, then the constructor's
    assert inits == [ProjPoint]
    PauliPoint(n, 1)
    assert inits == [ProjPoint, PauliPoint]


def test_worked_examples():
    assert proj(["XI", "IX"]).display_str() == "[0:0:1:0]"
    assert to_observable(proj(["XI", "IX"])).label() == "XI"
    assert to_observable(proj(["ZX", "XZ"])).label() == "YI"
    assert to_observable(proj(["ZZI", "XXI", "IIX"])).label() == "IIXZ"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_injective(n):
    gens = enumerate_generators(n)
    assert len({project(embed(g)) for g in gens}) == len(gens)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_table_matches_sweep_oracle(n):
    oracle = {project(embed(g)): g for g in sweep_generators(n)}
    assert {bits: lift(ProjPoint(n, bits)) for bits in _image_bits(n)} == {p.bits: g for p, g in oracle.items()}
    assert image(n) == tuple(sorted(oracle))
    assert enumerate_generators(n) == sweep_generators(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_clifford_gates_equivariant(n):
    # project(embed(C.G)) == C.project(embed(G)) for every generator gate C
    # and axis transposition C, and every subspace G, with C.G the
    # symplectic action on the basis
    cases = clifford_cases(n)
    assert clifford_gates(n) == tuple(g for g, _ in cases)
    assert len(cases) == n + n + n * (n - 1) // 2
    for g in sweep_generators(n):
        p = project(embed(g))
        for gt, on_row in cases + transposition_cases(n):
            moved = Generator(n, [on_row(r) for r in g.rows])
            assert project(embed(moved)).bits == apply_gate(gt, p.bits)


def test_gate_rejects_overlapping_or_unordered_masks():
    for frm, to in ((1, 1), (0b011, 0b110), (2, 1), (0, 0)):
        with pytest.raises(ValueError):
            gate(3, frm, to, SWAP)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_table_matches_clifford_orbit_oracle(n):
    assert set(_image_bits(n)) == clifford_orbit(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_points_are_the_principal_minors_of_each_code(n):
    # bit k of a code holds a_ii for k < N, then a_ij for i < j
    entries = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
    subsets = [[i + 1 for i in range(n) if m >> i & 1] for m in range(1 << n)]
    points = chart_points(n)
    assert len(points) == 1 << len(entries)
    for code, bits in enumerate(points):
        a = [0] * n
        for k, (i, j) in enumerate(entries):
            if code >> k & 1:
                a[i] |= 1 << j
                a[j] |= 1 << i
        assert bits == sum(minor(a, n, s, s) << m for m, s in enumerate(subsets))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_table_matches_per_entry_oracle(n):
    # the image points in order, T as each point's lowest subset, the code
    # of its chart point H_T p, and the generator lifted from each point
    oracle = lift_per_entry(n)
    assert list(_image_bits(n)) == list(oracle)
    codes = {q: code for code, q in enumerate(chart_points(n))}
    for bits, (t, code, _) in oracle.items():
        assert bits & -bits == 1 << t and codes[apply_tables(hadamard(n, t), bits)] == code
    assert [lift(ProjPoint(n, bits)) for bits in _image_bits(n)] == [g for *_, g in oracle.values()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chart_cells_match_the_lowest_subset_filter(n):
    # the chart points q for which H_T q is lowest at x_T, those vanishing on
    # {S ^ T : S < T}, are the codes of T's cell: 2^(N(N+1)/2 - sum_{k in T} (k+1))
    # of them, prod (2^i + 1) over all T
    points, total = chart_points(n), 0
    for t in range(1 << n):
        below = sum(1 << (s ^ t) for s in range(t))
        cell = _chart_cell(n, t)
        assert sorted(cell) == [code for code, q in enumerate(points) if not q & below]
        assert len(cell) == 1 << n * (n + 1) // 2 - sum(k + 1 for k in range(n) if t >> k & 1)
        total += len(cell)
    assert total == generator_count(n)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << (1 << 2 * n)) - 1) | st.integers(0, (1 << (1 << 2 * n + 1)) - 1))))
def test_principal_folds_match_the_string_slice(case):
    # tables of up to 2^(2N) bits, and wider ones, as a hand-built vector
    # may carry bits above its keys
    n, table = case
    assert _principal_bits(n, table) == principal_bits_by_slice(n, table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_principal_folds_match_the_string_slice_on_generators_and_seeded_tables(n):
    # every generator's table at N <= 4; 2,000 seeded tables at N = 5
    if n <= 4:
        tables = [g.table for g in enumerate_generators(n)]
    else:
        rng = random.Random(23)
        tables = [rng.getrandbits(1 << 2 * n) for _ in range(2000)]
    assert [_principal_bits(n, t) for t in tables] == [principal_bits_by_slice(n, t) for t in tables]


def test_pluecker_vec_rejects_a_negative_table():
    # its bits would read as two's complement; embed's vectors are never negative
    with pytest.raises(ValueError, match="Plucker table must be nonnegative, got -5"):
        PlueckerVec(2, -5)
    # the sign is named before the keys and the constraints: -p13 would break p13 + p24 = 0
    with pytest.raises(ValueError, match="^Plucker table must be nonnegative, got -32$"):
        PlueckerVec(2, -(1 << 0b0101))
    assert project(PlueckerVec(2, 1 << 0b0011)) == ProjPoint(2, 1)  # x_{} = p12


def test_pluecker_vec_rejects_a_key_off_the_n_subsets():
    # key 40 lies above the 16 keys of N = 2; project used to read past it
    g = enumerate_generators(2)[3]
    with pytest.raises(ValueError, match="^Plucker key 40 is not a 2-subset of 1..4$"):
        PlueckerVec(2, g.table | 1 << 40)
    # the key is named before the constraints: p13 alone breaks p13 + p24 = 0
    with pytest.raises(ValueError, match="^Plucker key 40 is not a 2-subset of 1..4$"):
        PlueckerVec(2, 1 << 0b0101 | 1 << 40)


def test_every_pluecker_vec_is_checked_for_isotropy():
    # embed writes a checked generator's vector, which compares and hashes as
    # the same vector built by hand; a hand-built one is checked by its
    # constructor, before project is reached
    g = enumerate_generators(3)[7]
    v = embed(g)
    assert v == PlueckerVec(3, g.table) and hash(v) == hash(PlueckerVec(3, g.table))
    assert project(v) == project(PlueckerVec(3, g.table))
    bad = v.table ^ 1 << 0b001011  # p124 holds the pair {1, 4}, so its flip breaks an isotropy sum
    expected = project_oracle(3, bad)
    assert "isotropy" in expected
    assert project_outcome(3, bad) == expected
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        PlueckerVec(3, bad)


def fresh_lift_caches(monkeypatch):
    """Empty caches of the lift memo and the per-N readout, for this test only."""
    monkeypatch.setattr(projection, "_lifted", {n: {} for n in projection._lifted})
    monkeypatch.setattr(projection, "_readout", lru_cache(maxsize=None)(projection._readout.__wrapped__))


def test_lift_table_checks_each_round_trip(monkeypatch):
    # with H_1 skipped on the way to the chart, every candidate with 1 in T
    # is read off q with q_{} = 0, so a_11 = q_{1} = 1 while its point's
    # chart has x_{1} = q_{} = 0: it disagrees with its point, which is then
    # refused; the first in point order is x_{1} (T = {1}, A = 0), lifted
    # alone or by enumerating
    fresh_lift_caches(monkeypatch)
    skip = (1, 0, 0, 0, 0)  # a gate that changes no pair
    monkeypatch.setattr(projection, "clifford_gates", lambda n: (skip,) + clifford_gates(n)[1:])
    error = re.escape("[0:0:0:0:0:0:0:1] is not in the image")
    assert lift(ProjPoint(3, 1)).table == 1 << 0b000111  # T = {}, A = 0: e_1 ^ e_2 ^ e_3
    with pytest.raises(NotInImageError, match=error):
        lift(ProjPoint(3, 1 << 0b001))
    assert len(projection._lifted[3]) == 1
    with pytest.raises(NotInImageError, match=error):
        enumerate_generators.__wrapped__(3)
    assert len(projection._lifted[3]) == 1 and projection._readout.cache_info().currsize == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lift_reads_the_rows_of_the_per_cell_readout_oracle(n, monkeypatch):
    # for every T, seeded points of T's cell and seeded points lowest at x_T
    # outside the image (none at N <= 2, where the image is the whole
    # space): each is read to the oracle's rows, then lifted to their
    # generator or refused exactly when the oracle's rows project elsewhere
    fresh_lift_caches(monkeypatch)
    read = []
    monkeypatch.setattr(projection, "Generator", lambda n, rows: read.append(rows) or Generator(n, rows))
    rng = random.Random(320 + n)
    size = 1 << n
    cells = defaultdict(list)
    for bits in _image_bits(n):
        cells[bits & -bits].append(bits)
    refused = 0
    for t in range(size):
        low = 1 << t
        inside = rng.sample(cells[low], min(len(cells[low]), 8))
        draws = {rng.getrandbits(size - t - 1) << t + 1 | low for _ in range(40)}
        outside = sorted(draws - set(cells[low]))[:8]
        for bits in inside + outside:
            read.clear()
            p = ProjPoint(n, bits)
            rows = graph_rows_by_cell(n, bits)
            g = Generator(n, rows)
            try:
                got = lift(p)
            except NotInImageError as e:
                assert str(e) == f"{p.display_str()} is not in the image"
                assert bits in outside and _principal_bits(n, g.table) != bits
                refused += 1
            else:
                assert bits in inside and got == g and _principal_bits(n, g.table) == bits
            assert read == [rows]
    assert projection._readout.cache_info().currsize == 1
    assert (refused > 0) == (n >= 3)


def test_lift_keeps_one_readout_per_n_and_shares_the_wedge_terms():
    # in a fresh process, the first point of each of the 32 cells at N = 5
    # (x_T itself, A = 0) is lifted through one readout, in under 100 KB of
    # traced memory, and every row the wedges memoized holds the shift 2^j
    # of each of its columns
    code = """if True:
        import tracemalloc
        from lgrpauli import gf2, projection
        from lgrpauli.projection import ProjPoint, lift
        tracemalloc.start()
        for t in range(32):
            lift(ProjPoint(5, 1 << t))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        shared = [shifts == tuple(1 << j for j in range(w) if r >> j & 1)
                  for w, memo in gf2._row_memo.items() for r, (_, shifts) in memo.items()]
        print(projection._readout.cache_info().currsize, peak, len(shared), all(shared))
    """
    out = fresh_stdout(code).split()
    readouts, peak, rows, shared = int(out[0]), int(out[1]), int(out[2]), out[3]
    assert readouts == 1
    assert peak < 100 * 1024, f"lifting one point per cell peaked at {peak} bytes"
    assert rows > 0 and shared == "True"


def test_lift_builds_each_generator_once_on_its_first_lift(monkeypatch):
    fresh_lift_caches(monkeypatch)
    built = []
    monkeypatch.setattr(projection, "Generator", lambda n, rows: built.append(g := Generator(n, rows)) or g)
    p = image(5)[12345]
    g = lift(p)
    assert built == [g] and list(projection._lifted[5]) == [p.bits]  # no eager build
    assert lift(p) is g and lift(ProjPoint(5, p.bits)) is g and len(built) == 1
    assert project(embed(g)) == p
    # the enumeration builds the rest through the same memo, and shares its objects
    gens = enumerate_generators.__wrapped__(4)
    assert len(built) == 1 + len(gens) == 1 + len(image(4))
    assert {id(g) for g in gens} == {id(lift(q)) for q in image(4)}


def test_lift_outside_the_image_or_the_range_caches_nothing():
    bad = ProjPoint.from_string(3, "10001000")
    lift(image(3)[0])
    size = len(projection._lifted[3])
    with pytest.raises(NotInImageError, match=re.escape("[1:0:0:0:1:0:0:0] is not in the image")):
        lift(bad)
    assert len(projection._lifted[3]) == size
    caches = {n: len(m) for n, m in projection._lifted.items()}, projection._readout.cache_info().currsize
    with pytest.raises(ValueError, match="^qubit count 6 is outside 1..5$") as info:
        lift(ProjPoint(6, 1))
    assert type(info.value) is ValueError
    assert ({n: len(m) for n, m in projection._lifted.items()}, projection._readout.cache_info().currsize) == caches


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lift_rejects_exactly_the_points_outside_the_image(n):
    # every nonzero point at N <= 3 against the Clifford orbit of x_{} = 1;
    # at N = 4 and 5, 5,000 seeded points against the image bits: image
    # points, image points with one coordinate flipped, and uniform ones
    size = 1 << n
    if n <= 3:
        points, inside = range(1, 1 << size), clifford_orbit(n)
    else:
        rng = random.Random(110 + n)
        img = _image_bits(n)
        points = [rng.choice(img) for _ in range(2000)]
        points += [rng.choice(img) ^ 1 << rng.randrange(size) for _ in range(2000)]
        points += [rng.randrange(1, 1 << size) for _ in range(1000)]
        inside = set(img)
    points = [bits for bits in points if bits]
    rejected = 0
    for bits in points:
        p = ProjPoint(n, bits)
        try:
            g = lift(p)
        except NotInImageError as e:
            assert bits not in inside and str(e) == f"{p.display_str()} is not in the image"
            rejected += 1
        else:
            assert bits in inside and project(embed(g)) == p
    assert (rejected > 0) == (n >= 3)  # at N <= 2 the image is the whole space


def test_lift_builds_no_image(monkeypatch):
    def no_image(n):
        raise AssertionError("lift built the image")

    monkeypatch.setattr(projection, "_image_bits", no_image)
    fresh_lift_caches(monkeypatch)
    p = ProjPoint.from_string(5, "0x6167d7a7")
    assert project(embed(lift(p))) == p
    with pytest.raises(NotInImageError):
        lift(ProjPoint(5, 1 | 1 << 31))


def recorded_walks(monkeypatch) -> list[tuple[int, list[int]]]:
    """Each ``walk`` that ``projection`` runs from now on in this test, as
    its start and its entries."""
    walks, walk = [], projection.walk

    def recording(start, steps):
        walks.append((start, walk(start, steps)))
        return walks[-1][1]

    monkeypatch.setattr(projection, "walk", recording)
    return walks


def test_lift_runs_no_walk(monkeypatch):
    # a chart and an off-chart image point, and a point outside the image,
    # each read off its own coordinates on its first lift
    fresh_lift_caches(monkeypatch)
    walks = recorded_walks(monkeypatch)
    for text in ("0xa2d33ede", "0x6167d7a7"):
        p = ProjPoint.from_string(5, text)
        assert project(embed(lift(p))) == p
    with pytest.raises(NotInImageError):
        lift(ProjPoint(5, 1 | 1 << 31))  # x_{} = x_{12345} = 1 only: A = 0, yet det A = 1
    assert walks == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_image_cells_are_the_chart_cells_moved_by_hadamards(n, monkeypatch):
    # T's walk starts at x_T and its entry c is H_T q for the chart point q
    # of code c of T's oracle cell, 2^(N(N+1)/2 - sum_{k in T} (k+1)) of
    # them, all lowest at x_T
    walks = recorded_walks(monkeypatch)
    _image_bits.__wrapped__(n)
    points = chart_points(n)
    assert [start for start, _ in walks] == [1 << t for t in range(1 << n)]
    for t, (_, entries) in enumerate(walks):
        h = hadamard(n, t)
        assert entries == [apply_tables(h, points[code]) for code in _chart_cell(n, t)]
        assert len(entries) == 1 << n * (n + 1) // 2 - sum(k + 1 for k in range(n) if t >> k & 1)
        assert all(bits & -bits == 1 << t for bits in entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hadamard_tables_match_the_gate_product(n):
    # H_T against the gates H_i for i in T applied in turn, on the unit
    # vectors and seeded random points
    rng = random.Random(70 + n)
    hadamards = clifford_gates(n)[:n]
    for t in range(1 << n):
        for bits in [*(1 << m for m in range(1 << n)), *(rng.getrandbits(1 << n) for _ in range(20))]:
            want = bits
            for i, h in enumerate(hadamards):
                if t >> i & 1:
                    want = apply_gate(h, want)
            assert apply_tables(hadamard(n, t), bits) == want


def test_to_chart_reaches_the_chart_by_hadamards():
    chart = set(chart_points(4))
    for p in image(4):
        t, q = to_chart(p)
        assert (p.bits >> t) & 1 and not p.bits & ((1 << t) - 1)
        assert q.bits & 1 and q.bits in chart


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_round_trip(n):
    for p in image(n):
        g = lift(p)
        assert project(embed(g)) == p


def test_chart_matrix_reconstruction():
    # chart points: the lifted rows are the graph rows e_i + sum_j a_ij e_{N+j}
    # of the matrix that the minors give, symmetric, whose principal minors
    # reproduce the coordinates (the exclusive-minor oracle reads A from them)
    for n in (2, 3, 4):
        for p in image(n):
            if not p.bits & 1:
                continue
            rows = lift(p).rows
            assert [r & (1 << n) - 1 for r in rows] == [1 << i for i in range(n)]
            a = tuple(r >> n for r in rows)
            assert a == chart_matrix(p)
            assert len(a) == n
            assert all((a[i] >> j) & 1 == (a[j] >> i) & 1 for i in range(n) for j in range(n))
            for m in range(1 << n):
                subset = [i + 1 for i in range(n) if (m >> i) & 1]
                assert minor(a, n, subset, subset) == (p.bits >> m) & 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_lift_agrees_with_lift(n):
    for p in image(n):
        assert swap_lift(p) == lift(p)


def test_lift_rejects_non_image_points():
    # a point failing the variety test for N=3
    bad = ProjPoint.from_string(3, "10001000")
    with pytest.raises(NotInImageError):
        lift(bad)


def test_observable_even_y_count_on_image():
    for n in (3, 4):
        for p in image(n):
            assert y_count(to_observable(p)) % 2 == 0


def _gaussian_binomial(n: int, d: int) -> int:
    """[n choose d]_2: the number of d-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(d):
        num *= (1 << n - i) - 1
        den *= (1 << i + 1) - 1
    return num // den


@pytest.mark.parametrize("n", [2, 3, 4])
def test_observables_commute_iff_their_generators_meet(n):
    # L0 and L' meet iff rank(L0 u L') < 2N iff their 2N x 2N determinant
    # vanishes, which by Laplace expansion over GF(2) is the sum over the
    # N-subsets S of p_S(L') p_{S^c}(L0); key S^c is 2^(2N) - 1 - S, so the
    # sum is the parity of L'.table AND L0.table with its bits reversed.
    # Every L0 at N = 2, 3; the first and the middle one at N = 4.
    gens = enumerate_generators(n)
    rows = [g.rows for g in gens]
    vecs = [embed(g) for g in gens]
    obs = [to_observable(project(v)) for v in vecs]
    width = 1 << 2 * n
    tally = {2: [1, 6, 8], 3: [1, 14, 56, 64], 4: [1, 30, 280, 960, 1024]}[n]
    for i in range(len(gens)) if n < 4 else (0, len(gens) // 2):
        reversed0 = int(format(vecs[i].table, f"0{width}b")[::-1], 2)
        by_distance = [0] * (n + 1)
        for r, v, o in zip(rows, vecs, obs):
            d = rank(rows[i] + r) - n  # the distance N - dim(L0 & L')
            assert commute(obs[i], o) == (d < n)
            assert (v.table & reversed0).bit_count() % 2 == (d == n)
            by_distance[d] += 1
        assert by_distance == [2 ** (d * (d + 1) // 2) * _gaussian_binomial(n, d) for d in range(n + 1)] == tally


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_coordinate_is_one_iff_the_generator_misses_its_product_basis(n):
    # x_m(L) = 1 iff L meets <Z_i (i in m), X_i (i not in m)> only in 0, that
    # is iff the two span all 2N dimensions; Z_i is bit i - 1 and X_i bit N + i - 1
    bases = [tuple(1 << i if m >> i & 1 else 1 << n + i for i in range(n)) for m in range(1 << n)]
    for g in enumerate_generators(n):
        bits = project(embed(g)).bits
        assert [bits >> m & 1 for m in range(1 << n)] == [rank(g.rows + u) == 2 * n for u in bases]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_desarguesian_spread_maps_to_anticommuting_observables(n):
    # its 2^N + 1 generators partition the non-identity Paulis, and their
    # observables on 2^(N-1) qubits anticommute pairwise: 2^N + 1 is the
    # most that pairwise anticommuting Paulis on 2^(N-1) qubits can number
    spread = desarguesian_spread(n)
    assert len(spread) == (1 << n) + 1
    assert sorted(p.bits for g in spread for p in generator_points(g)) == list(range(1, 1 << 2 * n))
    points = [project(embed(g)) for g in spread]
    observables = [to_observable(p) for p in points]
    assert not any(commute(a, b) for a, b in itertools.combinations(observables, 2))
    assert reduce(operator.xor, (p.bits for p in points)) == 0
    assert reduce(operator.xor, (o.bits for o in observables)) == 0
    assert rank(p.bits for p in points) == 1 << n


def test_image_sizes():
    assert len(image(2)) == 15
    assert len(image(3)) == 135
    assert len(image(4)) == 2295
