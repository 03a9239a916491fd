"""Tests for the binary symplectic Pauli encoding and the enumeration of
maximal commuting families."""

import copy
import hashlib
import itertools
import pickle
import random
import re
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgrpauli import gf2, pauli
from lgrpauli.pauli import (
    CommutationError,
    Generator,
    LabelError,
    NotMaximalError,
    PauliPoint,
    commute,
    generator_count,
    generator_from_operators,
    symplectic_product,
)
from lgrpauli.cli import main
from lgrpauli.gf2 import rank
from lgrpauli.pluecker import embed
from lgrpauli.projection import enumerate_generators
from gf2_oracles import rref
from pauli_helpers import (all_points, from_label_oracle, from_label_outcome, generator_points, label_chunk_oracle,
                           label_oracle, quad_form, y_count)
from pluecker_oracles import bitwise_wedge, rref_generator_rows
from test_cli import fresh_stdout


def points(n):
    return st.integers(1, (1 << (2 * n)) - 1).map(lambda b: PauliPoint(n, b))


def test_label_roundtrip():
    for s in ("XI", "YZ", "IIX", "ZZZZ", "IXYZ"):
        assert PauliPoint.from_label(s).label() == s
    assert PauliPoint.from_label("+XI").label() == "XI"
    assert PauliPoint.from_label("-XI").label() == "XI"


def test_label_matches_letter_loop_oracle():
    # four-qubit chunks, so lengths that are not multiples of 4 are included;
    # the chunk oracle joins the same chunks from a comprehension
    rng = random.Random(20)
    for n in range(1, 41):
        top = 1 << (2 * n)
        extremes = [1, top - 1, top >> 1, 1 << (n - 1), 1 << n]
        for bits in extremes + [rng.randrange(1, top) for _ in range(50)]:
            p = PauliPoint(n, bits)
            assert p.label() == label_oracle(p) == label_chunk_oracle(p)
            assert PauliPoint.from_label(p.label()) == p


def test_a_100000_qubit_label_matches_the_chunk_oracle():
    p = PauliPoint(100_000, random.Random(36).getrandbits(200_000) | 1 << 199_999)
    label = p.label()
    assert len(label) == 100_000 and label == label_chunk_oracle(p)
    assert PauliPoint.from_label(label) == p


def test_from_label_matches_letter_loop_oracle(monkeypatch):
    # every label of length 1-5 over IXYZ (the all-identity ones included),
    # the short ones signed, and seeded labels with bad characters: ASCII,
    # whitespace, digits, signs inside a label and non-ASCII ones such as
    # the minus sign U+2212; parsed from an empty memo, then from the
    # memo the first pass filled
    monkeypatch.setattr(pauli, "_parsed", {})
    labels = ["".join(t) for k in range(1, 6) for t in itertools.product("IXYZ", repeat=k)]
    labels += [sign + s for sign in ("+", "-", "\u2212") for s in labels[:84]]
    labels += ["", "+", "-", "\u2212", "--X", "+\u2212X", "X\u2212Y", "0b1", "1", "_X", " X", "X "]
    rng = random.Random(21)
    bad = " \txi_01+-\u2212\u00e9\u4e00\ud800"
    for _ in range(3000):
        s = [rng.choice("IXYZ") for _ in range(rng.randrange(7))]
        for _ in range(rng.randrange(1, 3)):
            s.insert(rng.randrange(len(s) + 1), rng.choice(bad))
        labels.append("".join(s))
    expected = [from_label_oracle(s) for s in labels]
    outcomes = [from_label_outcome(s) for s in labels]
    assert outcomes == expected
    assert [from_label_outcome("".join(list(s))) for s in labels] == expected
    assert sum(isinstance(o, str) and o.startswith("bad character") for o in outcomes) > 2500
    # the memo holds exactly the accepted labels of at most 5 letters after
    # the sign, each parsed to its point; no rejected label is stored
    memo = pauli._parsed
    short = {s for s, o in zip(labels, expected) if isinstance(o, PauliPoint) and o.n_qubits <= 5}
    assert set(memo) == short
    assert all(len(s) - (s[0] in "+-\u2212") <= 5 and from_label_oracle(s) == p for s, p in memo.items())
    assert len(memo) <= 4 * 1359


def test_from_label_returns_one_object_per_short_label(monkeypatch):
    # labels of up to 5 letters are parsed once; a 6-letter label and a
    # 16-letter observable label are parsed on every call and not stored
    monkeypatch.setattr(pauli, "_parsed", {})
    short = ("X", "-XY", "\u2212IZ", "+YYZZX")
    points = [PauliPoint.from_label(s) for s in short]
    assert all(PauliPoint.from_label("".join(list(s))) is p for s, p in zip(short, points))
    assert pauli._parsed == dict(zip(short, points))
    obs = PauliPoint(16, 0x8000_0001).label()
    for s in ("XYZIXY", obs, "-" + obs):
        p = PauliPoint.from_label(s)
        assert p == from_label_oracle(s) and p.label() == s.lstrip("-")
        assert s not in pauli._parsed
    assert len(pauli._parsed) == 4


def test_from_label_memo_fills_lazily():
    # in a fresh process importing the CLI parses no label, and one parse
    # stores that label alone
    code = ("from lgrpauli import cli, pauli; print(len(pauli._parsed)); "
            "pauli.PauliPoint.from_label('XZ'); print(pauli._parsed)")
    assert fresh_stdout(code) == "0\n{'XZ': PauliPoint(n_qubits=2, bits=6)}\n"


@pytest.mark.parametrize("s", [None, 5, b"XY", b"", ["X"]])
def test_from_label_rejects_and_never_stores_a_non_string(monkeypatch, s):
    # the message names the input's type, hashable or not (a list fails the
    # memo lookup); None and an empty bytes string are no empty label
    monkeypatch.setattr(pauli, "_parsed", {})
    for _ in range(2):
        with pytest.raises(LabelError, match=f"^label must be a str, got {type(s).__name__}$"):
            PauliPoint.from_label(s)
    assert pauli._parsed == {}


@pytest.mark.parametrize("bits", [1.5, 3.0, "3", None, True])
def test_pauli_point_rejects_bits_that_are_not_an_int(bits):
    # a float in range used to construct and fail later in label()
    with pytest.raises(ValueError, match=f"^bits must be an int, got {re.escape(repr(bits))}$"):
        PauliPoint(2, bits)


def test_bad_labels():
    for s in ("", "AB", "X I", "x"):
        with pytest.raises(LabelError):
            PauliPoint.from_label(s)


@given(st.one_of(st.text(), st.text(alphabet="IXYZ+-\u2212xi ")))
def test_from_label_fuzz(s):
    try:
        p = PauliPoint.from_label(s)
    except LabelError:
        return
    assert (s[1:] if s[:1] in ("+", "-", "\u2212") else s) == p.label()
    assert PauliPoint.from_label(p.label()) == p


def test_letter_bit_convention():
    p = PauliPoint.from_label("XYZ")
    # qubit i letters: X=(0,1), Y=(1,1), Z=(1,0) as (x_i, x_{N+i})
    t = [(p.bits >> j) & 1 for j in range(6)]
    assert (t[0], t[3]) == (0, 1)
    assert (t[1], t[4]) == (1, 1)
    assert (t[2], t[5]) == (1, 0)


def test_commutation_matches_letterwise_rule():
    # two Pauli operators commute iff they differ on an even number of
    # qubits where both act non-trivially with different letters
    for a in all_points(2):
        for b in all_points(2):
            la, lb = a.label(), b.label()
            anti = sum(
                1
                for x, y in zip(la, lb)
                if x != "I" and y != "I" and x != y
            )
            assert commute(a, b) == (anti % 2 == 0)


@given(points(3), points(3))
def test_symplectic_product_symmetric_alternating(a, b):
    assert symplectic_product(a, b) == symplectic_product(b, a)
    assert symplectic_product(a, a) == 0


@given(points(3), points(3), points(3))
def test_symplectic_product_bilinear(a, b, c):
    n = a.n_qubits
    if b.bits == c.bits:
        return
    bc = PauliPoint(n, b.bits ^ c.bits)
    assert symplectic_product(a, bc) == (
        symplectic_product(a, b) ^ symplectic_product(a, c)
    )


def test_quad_form_is_y_parity():
    for n in (1, 2, 3, 4):
        for p in all_points(n):
            assert quad_form(p) == y_count(p) % 2


def test_quad_form_polarizes_to_symplectic_product():
    for a in all_points(2):
        for b in all_points(2):
            s = a.bits ^ b.bits
            qs = quad_form(PauliPoint(2, s)) if s else 0
            assert qs == (quad_form(a) ^ quad_form(b) ^ symplectic_product(a, b))


@pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
def test_generator_counts_small(n, count):
    gens = enumerate_generators(n)
    assert len(gens) == count == generator_count(n)
    assert len(set(gens)) == count


@pytest.mark.parametrize("n, digest", [
    (4, "a97846eda689ad44b0b62e6dda15b1455b271af4e487c894abda4b76d93b8a09"),
    (5, "fcb9c3011ba2eba7be1f0de45601c805b4b41cefd6b8b6c6bbd6c4d1f885ed7f"),
])
def test_generator_lists_keep_their_digest(n, digest):
    # the SHA-256 of the tables in order, each as 2^(2N)/8 little-endian
    # bytes: no oracle rebuilds the whole list at N = 5
    h = hashlib.sha256()
    for g in enumerate_generators(n):
        h.update(g.table.to_bytes((1 << 2 * n) // 8, "little"))
    assert h.hexdigest() == digest


@pytest.mark.parametrize("command, digest", [
    ("generators", "f920a66fa5667a828962d09d25201922fdc80f0f69a36582e6b538d4a87f3619"),
    ("relations", "60ad1b9985f4be645253a25abee9b6a9c28258b0a233b4c93c7e89e19713ac86"),
    ("constraints", "68092863e992a656416f3855f1e5e16a020b5fd6562e47e2d0e91a301ff67fea"),
    ("generators --format json", "cfe465b25df6ca45488726b7e772cc38dfd8468d541336aeda803c9579a15aaa"),
])
def test_n5_listings_keep_their_digest(capsys, command, digest):
    # the SHA-256 of the stdout of `<command> --n 5`: no golden file holds
    # the N = 5 listings
    assert main([*command.split(), "--n", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [0, 6])
def test_enumeration_outside_one_to_five_rejected(n):
    with pytest.raises(ValueError):
        enumerate_generators(n)


def test_count_formula_is_product_of_shifted_powers():
    for n in range(1, 7):
        prod = 1
        for i in range(1, n + 1):
            prod *= (1 << i) + 1
        assert generator_count(n) == prod


@pytest.mark.parametrize("n", [0, -1])
def test_count_rejects_fewer_than_one_qubit(n):
    with pytest.raises(ValueError, match=f"^qubit count {n} is below 1$"):
        generator_count(n)


def test_generators_are_maximal_isotropic():
    for g in enumerate_generators(3):
        pts = generator_points(g)
        assert len(pts) == 7  # 2^3 - 1 nonzero vectors
        for a, b in itertools.combinations(pts, 2):
            assert commute(a, b)


def test_every_commuting_pair_everywhere():
    # sanity on one explicit family
    g = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("ZZI", "XXI", "IIX")]
    )
    labels = {p.label() for p in generator_points(g)}
    assert labels == {"ZZI", "XXI", "YYI", "IIX", "ZZX", "XXX", "YYX"}


def test_point_rejects_bits_outside_one_to_four_to_the_n():
    for bits in (0, 0b10000, 0b10001, -1):
        with pytest.raises(ValueError):
            PauliPoint(2, bits)


def test_point_range_check_builds_no_4_to_the_n_bound():
    # the bits are shifted down by 2N, not compared with 1 << 2N, which at
    # N = 10^7 is a 2.5 MiB int; the edges and messages stay as they were
    tracemalloc.start()
    try:
        p = PauliPoint(10**7, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.bits == 1 and peak < 512 << 10
    assert PauliPoint(2, 0b1111).bits == 0b1111
    for bits in (0, 0b10000, -1, 1 << 70):
        with pytest.raises(ValueError, match=f"^bits must be in 1..4\\^N-1 for N=2, got {bits}$"):
            PauliPoint(2, bits)


def test_generator_rejects_rows_wider_than_2n():
    for rows in ((0b10001, 0b0010), (0b0001, -1), (0, 0, 1 << 4)):
        with pytest.raises(ValueError, match="^basis rows must have at most 4 bits$"):
            Generator(2, rows)


@pytest.mark.parametrize("warm", [False, True])
def test_generator_rejects_rows_that_are_not_ints(monkeypatch, warm):
    # True and 1.0 equal 1, so once row 1 is in the wedge's memo they would
    # find its entry; from an empty memo 1.0 would fail inside the shift
    monkeypatch.setattr(gf2, "_row_memo", defaultdict(dict))
    if warm:
        Generator(2, (1, 2))
    for rows in ([True, 2], [1.0, 2.0], [1, False], [1, 2.0], [1, "2"], [None, 2]):
        bad = next(r for r in rows if r.__class__ is not int)
        with pytest.raises(ValueError, match=f"^basis rows must be ints, got {re.escape(repr(bad))}$") as ei:
            Generator(2, rows)
        assert type(ei.value) is ValueError
    assert all(r.__class__ is int for r in gf2._row_memo[4])  # no refused row is stored


def test_generator_equal_spans_are_equal():
    # ZZ, IZ and IZ, ZI span the same plane, in any order
    a, b, c = Generator(2, (3, 2)), Generator(2, (1, 2)), Generator(2, (2, 1))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a.rows == (1, 2) and repr(a) == "Generator(2, (1, 2))"
    for g in enumerate_generators(3):
        other = (g.rows[2], g.rows[0] ^ g.rows[1], g.rows[1] ^ g.rows[2])
        assert Generator(3, other) == g and hash(Generator(3, other)) == hash(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_rows_are_rref_and_table_is_their_wedge(n):
    for g in enumerate_generators(n):
        rows = g.rows
        assert len(rows) == n and rows == tuple(rref(rows))
        assert embed(g).table == g.table == bitwise_wedge(rows, 2 * n)


def test_generator_edge_inputs():
    # N + 1 independent rows span no isotropic space: the first pair is named
    for n, rows, pair in ((2, (1, 2, 4), ["ZI", "XI"]), (5, (1, 2, 4, 8, 16, 32), ["ZIIII", "XIIII"])):
        with pytest.raises(CommutationError) as ei:
            Generator(n, rows)
        assert [p.label() for p in ei.value.pair] == pair
    # zero and repeated rows are accepted and dropped
    assert Generator(2, (0, 1, 0, 2, 1, 3)) == Generator(2, (1, 2))
    # N = 1 has no pair of rows to check: every line is isotropic
    assert [Generator(1, (r,)).rows for r in (1, 2, 3)] == [(1,), (2,), (3,)]
    # an anticommuting, rank-deficient set names its first pair in
    # combinations order
    ops = [PauliPoint.from_label(s) for s in ("IXI", "XII", "IXI", "ZII")]
    with pytest.raises(CommutationError) as ei:
        generator_from_operators(ops)
    assert [p.label() for p in ei.value.pair] == ["XII", "ZII"]
    g = Generator(2, (1, 2))
    with pytest.raises(AttributeError):
        g.rows = (1, 2)


@pytest.mark.parametrize("n, rows", [(0, ()), (0, (1,)), (-1, ()), (-1, (1,))])
def test_generator_rejects_fewer_than_one_qubit(n, rows):
    # the bounded wording, as for N = 6, before any row is read
    with pytest.raises(ValueError, match=f"^qubit count {n} is outside 1..5$") as ei:
        Generator(n, rows)
    assert type(ei.value) is ValueError


def test_generator_rejects_more_than_max_qubits():
    # N = 6 would embed as a PlueckerVec its own constructor rejects; an
    # anticommuting set is refused for its qubit count too, before any pair is searched
    labels = [("I" * k + "X").ljust(6, "I") for k in range(6)]
    for make in (lambda: Generator(6, [1 << 6 + k for k in range(6)]),
                 lambda: generator_from_operators([PauliPoint.from_label(s) for s in labels]),
                 lambda: generator_from_operators([PauliPoint.from_label(s) for s in ("XIIIII", "ZIIIII")])):
        with pytest.raises(ValueError, match="^qubit count 6 is outside 1..5$") as ei:
            make()
        assert type(ei.value) is ValueError


def rows_outcome(make, n, rows):
    try:
        return make(n, rows)
    except ValueError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_agrees_with_rref_constructor_on_random_rows(n):
    # random rows, or a Lagrangian basis padded with rows of its span, maybe
    # with one bit flipped; now and then a row too wide or negative
    rng = random.Random(100 + n)
    outcomes = set()
    for _ in range(600):
        if rng.randrange(3):
            rows = random_lagrangian_rows(rng, n)
            for _ in range(rng.randrange(3)):
                rows.append(rows[rng.randrange(n)] ^ rows[rng.randrange(n)])
            rng.shuffle(rows)
            if rng.randrange(2):
                rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(2 * n)
        else:
            rows = [rng.randrange(1 << 2 * n) for _ in range(rng.randrange(n + 3))]
        if rows and not rng.randrange(20):
            rows[rng.randrange(len(rows))] = rng.choice([-1, 1 << 2 * n, -(1 << n)])
        expected = rows_outcome(rref_generator_rows, n, rows)
        got = rows_outcome(lambda n, rows: Generator(n, rows).rows, n, rows)
        assert got == expected, rows
        outcomes.add(expected[0] if isinstance(expected[0], str) else "ok")
    assert outcomes == {"ok", "CommutationError", "NotMaximalError", "ValueError"}


def test_generator_rank_deficient_basis_raises_not_maximal():
    for rows in ((0, 0), (1, 1), (3, 3, 0), (1,)):
        with pytest.raises(NotMaximalError):
            Generator(2, rows)


def test_non_commuting_rejected_with_pair():
    # XII and ZII also span only 2 of 3 dimensions: the pair is reported first
    for labels in (("XI", "ZI"), ("XII", "ZII")):
        ops = [PauliPoint.from_label(s) for s in labels]
        with pytest.raises(CommutationError) as ei:
            generator_from_operators(ops)
        assert [p.label() for p in ei.value.pair] == list(labels)
        assert str(ei.value) == f"operators {labels[0]} and {labels[1]} do not commute"


def test_a_commutation_error_survives_copy_and_pickle():
    # BaseException rebuilds a copy from args, which hold the message alone
    with pytest.raises(CommutationError) as ei:
        generator_from_operators([PauliPoint.from_label(s) for s in ("XI", "ZI")])
    e = ei.value
    for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert (type(clone), clone.pair, str(clone)) == (CommutationError, e.pair, str(e))


def test_first_anticommuting_pair_in_input_order_is_reported():
    # (XIIII, ZIIII) at positions 0, 3 comes before (IZIII, IXIII) at 1, 2;
    # with IIIIX the rank is full, without it deficient
    for labels in (("XIIII", "IZIII", "IXIII", "ZIIII", "IIIIX"),
                   ("XIIII", "IZIII", "IXIII", "ZIIII")):
        with pytest.raises(CommutationError) as ei:
            generator_from_operators([PauliPoint.from_label(s) for s in labels])
        assert [p.label() for p in ei.value.pair] == ["XIIII", "ZIIII"]


def counted_products(monkeypatch) -> list:
    """Patch ``symplectic_product`` in ``pauli`` to record each of its calls."""
    calls = []
    monkeypatch.setattr(pauli, "symplectic_product", lambda a, b: calls.append((a, b)) or symplectic_product(a, b))
    return calls


def test_an_isotropic_rejected_set_searches_no_pair(monkeypatch):
    # 200 commuting operators of rank 2: the wedge's omega contraction is 0,
    # so no pair can anticommute and none of the 19,900 pairs is tried
    calls = counted_products(monkeypatch)
    with pytest.raises(NotMaximalError, match="^subspace has rank 2, expected 5$"):
        generator_from_operators([PauliPoint.from_label(s) for s in ["ZIIII", "IZIII"] * 100])
    assert calls == []


def test_a_late_anticommuting_pair_is_found_among_distinct_operators(monkeypatch):
    # 200 copies of ZIIII count once: three distinct operators, three pairs at most
    calls = counted_products(monkeypatch)
    with pytest.raises(CommutationError) as ei:
        generator_from_operators([PauliPoint.from_label(s) for s in ["ZIIII"] * 200 + ["IXIII", "IZIII"]])
    assert [p.label() for p in ei.value.pair] == ["IXIII", "IZIII"]
    assert len(calls) <= 3


def test_a_one_shot_iterator_of_rows_is_refused_with_its_pair():
    # the rows are listed once, so the pair search reads what the wedge read
    with pytest.raises(CommutationError) as ei:
        Generator(2, iter([1, 2, 0, 4]))
    assert [p.label() for p in ei.value.pair] == ["ZI", "XI"]
    assert Generator(2, (r for r in (1, 2))) == Generator(2, [1, 2])


def test_a_refused_family_is_wedged_once(monkeypatch):
    # Generator refuses the rows itself: no second wedge to find the pair
    calls = []
    monkeypatch.setattr(pauli, "wedge", lambda rows, n_cols: calls.append(rows) or gf2.wedge(rows, n_cols))
    with pytest.raises(CommutationError) as ei:
        generator_from_operators([PauliPoint.from_label(s) for s in ("IZI", "XII", "ZII")])
    assert [p.label() for p in ei.value.pair] == ["XII", "ZII"]
    assert len(calls) == 1


def first_anticommuting_pair(ops):
    """Oracle: the first anticommuting pair of ``ops`` in combinations order,
    every pair of the list tried, repeats included; None if they commute."""
    for a, b in itertools.combinations(ops, 2):
        if symplectic_product(a, b):
            return a, b
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_reported_pair_is_the_first_of_the_whole_list(n):
    # lists drawn with repeats from a Lagrangian basis, its sums and now and
    # then a random operator: the pair reported is the oracle's, and a list
    # without one is refused for its rank or accepted
    rng = random.Random(300 + n)
    kinds = set()
    for _ in range(1000):
        pool = random_lagrangian_rows(rng, n)
        pool += [a ^ b for a, b in itertools.combinations(pool, 2)]
        pool += [rng.randrange(1, 1 << 2 * n) for _ in range(rng.randrange(3))]
        ops = [PauliPoint(n, r) for r in rng.choices([r for r in pool if r], k=rng.randrange(1, 2 * n + 4))]
        expected = first_anticommuting_pair(ops)
        try:
            generator_from_operators(ops)
            kind = "accepted"
        except CommutationError as e:
            assert e.pair == expected, ops
            kind = "pair"
        except NotMaximalError:
            kind = "rank"
        assert kind == "pair" or expected is None, ops
        kinds.add(kind)
    assert kinds == {"accepted", "rank", "pair"}


def random_lagrangian_rows(rng: random.Random, n: int) -> list[int]:
    """The Z basis moved by random symplectic transvections x -> x + <x, v> v."""
    rows = [1 << i for i in range(n)]
    for _ in range(4 * n):
        v = PauliPoint(n, rng.randrange(1, 1 << (2 * n)))
        rows = [r ^ v.bits if symplectic_product(PauliPoint(n, r), v) else r for r in rows]
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_isotropy_check_agrees_with_symplectic_product(n):
    rng = random.Random(n)
    outcomes = set()
    for _ in range(300):
        rows = random_lagrangian_rows(rng, n)
        if rng.randrange(2):  # one flipped bit, which may break isotropy or rank
            rows[rng.randrange(n)] ^= 1 << rng.randrange(2 * n)
        pair = first_anticommuting_pair([PauliPoint(n, r) for r in rows if r])
        if pair:  # at any rank
            expected = "pair"
            with pytest.raises(CommutationError) as ei:
                Generator(n, rows)
            assert ei.value.pair == pair
        elif rank(rows) < n:
            expected = "NotMaximalError"
            with pytest.raises(NotMaximalError):
                Generator(n, rows)
        else:
            expected = "ok"
            Generator(n, rows)
        outcomes.add(expected)
    assert len(outcomes) == 3


def test_non_maximal_rejected():
    ops = [PauliPoint.from_label(s) for s in ("XI", "XI")]
    with pytest.raises(NotMaximalError):
        generator_from_operators(ops)


def test_no_operators_rejected():
    with pytest.raises(ValueError, match="^need at least one operator$"):
        generator_from_operators([])


def test_mixed_qubit_counts_rejected():
    ops = [PauliPoint.from_label("XI"), PauliPoint.from_label("XII")]
    with pytest.raises(ValueError):
        generator_from_operators(ops)


def test_generator_canonical_form_unique():
    # spanning sets of the same subspace give the same Generator
    a = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("ZZI", "XXI", "IIX")]
    )
    b = generator_from_operators(
        [PauliPoint.from_label(s) for s in ("YYI", "XXI", "ZZX")]
    )
    assert a == b


def test_enumeration_covers_operator_families():
    # every maximal commuting family containing XI on 2 qubits appears
    gens = set(enumerate_generators(2))
    found = {g for g in gens if PauliPoint.from_label("XI") in generator_points(g)}
    assert len(found) == 3  # XI centralizer mod <XI> has 3 Lagrangian lines
