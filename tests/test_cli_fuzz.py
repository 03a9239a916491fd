"""A seeded fuzz of the command line, run in process: about 300 argument
vectors over every command, with N in and out of range, malformed
``--n``, ``--ops``, ``--point``, ``--suite`` and ``--format`` values, and
an unwritable ``--out``.  No vector may end in exit 1 or a traceback, and
each nonzero exit but argparse's prints exactly one line on stderr."""

import random
from collections import Counter

from lgrpauli import cli
from lgrpauli.cli import EXIT_INTERNAL, main

SEED, VECTORS = 45, 300
# the N = 5 commands that take most of a second each run at N <= 4 only
SLOW_AT_5 = {"generators", "relations", "verify"}

BAD_N = ["", "x", "3.0", "0x3", "1e3", "-", "٣٣", "99999999999999999999"]
BAD_OPS = ["", " ", ",", "ZZI,,XXI,IIX", "ABC,DEF,GHI", "ZZZZZZZZZZ" * 5, "+-ZZI", "Z I,IZ"]
BAD_POINTS = ["", "0x", "0x_1", "[0:2]", "[]", "zz", "0b10", "1" * 65, "0x" + "f" * 20]
BAD_SUITES = ["", "nope", "Variety"]
BAD_FORMATS = ["", "xml", "JSON"]


def ops_value(rng: random.Random, n: int) -> str:
    """N single-qubit operators on distinct positions, a maximal commuting
    set; or one that anticommutes, or one short or repeated."""
    ops = ["I" * k + rng.choice("XYZ") + "I" * (n - k - 1) for k in range(n)]
    kind = rng.randrange(4)
    if kind == 1:  # another letter on the first position anticommutes with the first operator
        ops.append("XYZ"["XYZ".index(ops[0][0]) - 1] + ops[0][1:])
    elif kind == 2:
        ops = ops[:-1] + [ops[0]] * rng.randrange(2)
    return ",".join(ops)


def point_value(rng: random.Random, n: int) -> str:
    """Random coordinates, on the image or off it, in one of the three forms."""
    size = 1 << n
    bits = rng.randrange(1, 1 << size)
    return rng.choice([format(bits, f"0{size}b"), hex(bits), "[" + ":".join(format(bits, f"0{size}b")) + "]"])


def vector(rng: random.Random, unwritable: str) -> list[str]:
    """One argument vector: a command at an N in its range, its own flags,
    and at most one fault."""
    command = rng.choice(list(cli._COMMANDS))
    _fn, (lo, hi), flags = cli._COMMANDS[command]
    n = rng.randint(lo, min(hi, 4) if command in SLOW_AT_5 else hi)
    fault = rng.choice([None] * 6 + ["range", "n", "no n", "format", "out", "foreign", *flags])
    argv = [command]
    if fault == "range":
        argv += ["--n", str(rng.choice([lo - 1, hi + 1, -1, 6, 1000]))]
    elif fault != "no n":
        argv += ["--n", rng.choice(BAD_N) if fault == "n" else str(n)]
    if "ops" in flags:
        argv.append("--ops=" + (rng.choice(BAD_OPS) if fault == "ops" else ops_value(rng, n)))
    if "point" in flags:
        argv.append("--point=" + (rng.choice(BAD_POINTS) if fault == "point" else point_value(rng, n)))
    if fault == "suite" or "suite" in flags and rng.random() < 0.5:
        argv.append("--suite=" + rng.choice(BAD_SUITES if fault == "suite" else sorted(cli._SUITES)))
    if fault == "format" or rng.random() < 0.5:
        argv.append("--format=" + rng.choice(BAD_FORMATS if fault == "format" else ["text", "csv", "json"]))
    if fault == "out":
        argv += ["--out", unwritable]
    if fault == "foreign":  # a flag of another command
        argv += ["--point", "0x1"] if "ops" in flags else ["--ops", "ZZ,XX"]
    return argv


def test_seeded_cli_fuzz_ends_in_a_documented_exit_with_one_line(capsys, tmp_path):
    rng = random.Random(SEED)
    unwritable = str(tmp_path / "missing" / "out.txt")
    codes = Counter()
    for _ in range(VECTORS):
        argv = vector(rng, unwritable)
        try:
            code, by_argparse = main(argv), False
        except SystemExit as e:
            code, by_argparse = e.code, True
        out, err = capsys.readouterr()
        assert code != EXIT_INTERNAL and "Traceback" not in out + err, argv
        if code and not by_argparse:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        codes[code, by_argparse] += 1
    # the vectors reach every exit the command line documents but 1, and
    # both argparse's exit 2 and the commands' own
    assert {code for code, _ in codes} == {0, 2, 3, 4, 5} and codes[2, True] and codes[2, False], codes
