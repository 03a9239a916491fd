"""Command-line interface: every pipeline stage as a deterministic,
scriptable report in text, CSV, or JSON.

Exit codes: 0 success, 1 internal error (naming the command and the
exception type), 2 parse error or unwritable output, 3
non-commuting input, 4 non-maximal input, 5 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .pauli import (
    CommutationError,
    LabelError,
    NotMaximalError,
    PauliPoint,
    _shown,
    generator_count,
    generator_from_operators,
)
from .pluecker import (
    _key_label,
    constraint_rank,
    embed,
    lagrangian_constraints,
    pluecker_relations,
    principal_keys,
)
from .projection import (NotInImageError, ProjPoint, _image_bits, _lift_points, enumerate_generators, lift, project,
                         to_observable)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_NONCOMMUTING = 3
EXIT_NONMAXIMAL = 4
EXIT_VERIFY = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _point(n: int, text: str) -> ProjPoint:
    """The projected point of the generator spanned by the operators of
    ``--ops``; exit 2 on a malformed field or qubit count, then 3 or 4 when
    they do not commute or span fewer than N dimensions."""
    if not text.strip():
        raise CliError(EXIT_PARSE, "no operators given")
    ops, fields = [], text.split(",")
    for k, field in enumerate(fields, 1):
        if not (label := field.strip()):
            raise CliError(EXIT_PARSE, f"bad operator label: field {k} of --ops is empty")
        try:
            ops.append(PauliPoint.from_label(label))
        except LabelError as e:
            raise CliError(EXIT_PARSE, f"bad operator label: {e}") from e
    for op, field in zip(ops, fields):
        if op.n_qubits != n:  # worded from the field, sign dropped: op.label() is quadratic in N
            label = field.strip().lstrip("+-−")
            raise CliError(EXIT_PARSE, f"operator {_shown(label)} has {op.n_qubits} qubits, expected {n}")
    try:
        return project(embed(generator_from_operators(ops)))
    except CommutationError as e:
        raise CliError(EXIT_NONCOMMUTING,
                       f"operators do not commute: {e.pair[0].label()}, {e.pair[1].label()}") from e
    except NotMaximalError as e:
        raise CliError(EXIT_NONMAXIMAL, str(e)) from e


def _parse_point(n: int, text: str) -> ProjPoint:
    try:
        return ProjPoint.from_string(n, text)
    except ValueError as e:
        raise CliError(EXIT_PARSE, f"bad point: {e}") from e


def _cell(v):
    """A list cell as its items joined by ";"; any other value as it is."""
    return ";".join(map(str, v)) if isinstance(v, (list, tuple)) else v


def _emit(rows: list[dict], fmt: str, title: str | None = None) -> str:
    """Serialize one or more uniform dict rows; all values are primitives or
    lists of primitives."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows({k: _cell(v) for k, v in r.items()} for r in rows)
        return buf.getvalue()
    lines = [title] if title else []
    lines += ["  ".join(f"{k}={_cell(v)}" for k, v in r.items()) for r in rows]
    return "\n".join(lines) + "\n"


def cmd_counts(args) -> str:
    n = args.n
    # the projection is injective, so the image has one point per generator
    row = {
        "n": n,
        "points": (1 << (2 * n)) - 1,
        "generators": generator_count(n),
        "image": generator_count(n),
    }
    if 2 <= n <= 4:
        from .orbits import classify_image, orbit_partition

        row["orbits"] = len(orbit_partition(n))
        row["image_orbits"] = len(classify_image(n))
    return _emit([row], args.format)


def cmd_generators(args) -> str:
    n = args.n
    labels = [""] + [PauliPoint(n, r).label() for r in range(1, 1 << 2 * n)]  # by row value
    rows = [{"index": i, "basis": [labels[r] for r in g.rows]}
            for i, g in enumerate(enumerate_generators(n), 1)]
    return _emit(rows, args.format, title=f"{len(rows)} generators (canonical bases)")


def cmd_project(args) -> str:
    n = args.n
    p = _point(n, args.ops)
    return _emit([{
        "point": p.display_str(),
        "bits": p.bit_string(),
        "hex": p.hex_string(),
        "observable": to_observable(p).label(),
        "pluecker_retained": [f"{_key_label(2 * n, k)}={p.bits >> m & 1}"
                              for m, k in enumerate(principal_keys(n))],  # ascending
    }], args.format)


def cmd_map(args) -> str:
    return _emit([{"observable": to_observable(_point(args.n, args.ops)).label()}], args.format)


def cmd_lift(args) -> str:
    p = _parse_point(args.n, args.point)
    try:
        g = lift(p)
    except NotInImageError as e:
        raise CliError(EXIT_VERIFY, str(e)) from e
    labels = [PauliPoint(args.n, r).label() for r in g.rows]
    return _emit([{"point": p.display_str(), "basis": labels}], args.format)


def cmd_relations(args) -> str:
    rels = pluecker_relations(args.n)
    rows = [{"index": i, "terms": len(r.term_keys), "relation": str(r)}
            for i, r in enumerate(rels, 1)]
    return _emit(rows, args.format, title=f"{len(rows)} quadratic exchange relations")


def cmd_constraints(args) -> str:
    cons = lagrangian_constraints(args.n)
    rows = [{"index": i, "terms": len(c.term_keys), "constraint": str(c)}
            for i, c in enumerate(cons, 1)]
    out = _emit(rows, args.format, title=f"{len(rows)} isotropy constraints")
    if args.format == "text":
        out += f"rank={constraint_rank(args.n)}\n"
    return out


def cmd_orbits(args) -> str:
    from .orbits import orbit_partition

    rows = []
    for rec in orbit_partition(args.n):
        rows.append({
            "orbit_id": rec.orbit_id,
            "size": rec.size,
            "in_image": rec.in_image,
            "representative": rec.representative.bit_string(),
            "t_rank": rec.t_rank,
            "e_rank": "" if rec.e_rank is None else rec.e_rank,
            "observable": rec.observable or "",
            "label": rec.reference_label or "",
        })
    return _emit(rows, args.format, title=f"{len(rows)} orbits")


def cmd_tables(args) -> str:
    from .orbits import emit_tables

    return _emit(emit_tables(args.n), args.format,
                 title=f"image classes for N={args.n}")


def cmd_rank(args) -> str:
    from .orbits import orbit_of_point

    p = _parse_point(args.n, args.point)
    rec = orbit_of_point(p)
    row = {
        "point": p.display_str(),
        "t_rank": rec.t_rank,
        "separable": rec.t_rank == 1,
        "in_image": rec.in_image,
        "e_rank": "" if rec.e_rank is None else rec.e_rank,
    }
    if rec.in_image:
        row["orbit_id"] = rec.orbit_id
    return _emit([row], args.format)


def _suite_bijection(n: int) -> list[tuple[str, bool]]:
    points = _image_bits(n)
    try:  # each lift checks that its generator projects back to its point
        count = len(set(_lift_points(n, points)))
    except NotInImageError as e:
        return [(f"lift round-trips: {e}", False)]
    return [(f"generator count {count} == {generator_count(n)}", count == generator_count(n)),
            (f"projection injective: image {len(points)} == generators {count}", len(points) == count),
            (f"lift round-trips on all {len(points)} image points", True)]


def _suite_variety(n: int) -> list[tuple[str, bool]]:
    from .quadrics import pairing_quadric, vanishes_on_image, verify_variety

    rep = verify_variety(n)
    checks = [(f"quadric count {rep.quadric_count}: vanish on the image, span closed under the gates", rep.closed),
              (f"slice: zeros {rep.zero_set_size} == image {rep.image_size}", rep.zero_set_size == rep.image_size)]
    if n >= 4:
        checks.append(("pairing quadric vanishes on the image", vanishes_on_image(pairing_quadric(n))))
    return checks


def _suite_tables(n: int) -> list[tuple[str, bool]]:
    from .orbits import _class_points, orbit_of_point

    checks = []
    for row, p in _class_points(n):
        rec = orbit_of_point(p)
        obs, tr, er = to_observable(p).label(), rec.t_rank, rec.e_rank
        ok = (rec.size, obs, tr, er) == (row["size"], row["observable"], row["t_rank"], row["e_rank"])
        checks.append((f"class {row['label']}: size {rec.size}, "
                       f"observable {obs}, t_rank {tr}, e_rank {er}", ok))
    return checks


def _suite_cayley(n: int) -> list[tuple[str, bool]]:
    from .quadrics import cayley_quadric, pairing_quadric, quadric_orbit, variety_quadrics

    if n == 3:
        return [("Cayley quadric equals the pairing quadric on 8 variables",
                 cayley_quadric(3) == pairing_quadric(3))]
    quads = variety_quadrics(4)
    q0 = quads[8] + quads[9]
    expected = {q0} | set(quads[:8])
    orb = quadric_orbit(cayley_quadric(4))
    return [
        (f"orbit of the Cayley quadric has {len(orb)} elements == 9", len(orb) == 9),
        ("orbit equals {Q0..Q8}", orb == expected),
        ("Q9 not in orbit", quads[8] not in orb),
        ("Q10 not in orbit", quads[9] not in orb),
    ]


# suite name -> (checks, supported N range)
_SUITES = {
    "bijection": (_suite_bijection, (2, 5)),
    "variety": (_suite_variety, (2, 5)),
    "tables": (_suite_tables, (2, 4)),
    "cayley": (_suite_cayley, (3, 4)),
}


def cmd_verify(args) -> str:
    n = args.n
    names = [name for name, (_fn, (lo, hi)) in _SUITES.items() if lo <= n <= hi and args.suite in (None, name)]
    if not names:  # every N in 2..5 has the bijection suite, so --suite names one outside its range
        lo, hi = _SUITES[args.suite][1]
        raise CliError(EXIT_PARSE, f"--n must be in {lo}..{hi} for verify --suite {args.suite}")
    rows = [{"suite": name, "check": desc, "pass": ok}
            for name in names for desc, ok in _SUITES[name][0](n)]
    if args.format == "text":
        out = "\n".join(f"[{r['suite']}] {r['check']}: {'PASS' if r['pass'] else 'FAIL'}"
                        for r in rows) + "\n"
    else:
        out = _emit(rows, args.format)
    if not all(r["pass"] for r in rows):
        raise CliError(EXIT_VERIFY, out.rstrip("\n"))
    return out


def cmd_cayley(args) -> str:
    from .quadrics import cayley_quadric, quadric_orbit

    q = cayley_quadric(args.n)
    rows = [{"quadric": str(q)}]
    if args.n == 4:
        orb = quadric_orbit(q)
        rows[0]["orbit_size"] = len(orb)
        rows[0]["orbit"] = sorted(str(f) for f in orb)
    return _emit(rows, args.format)


# command name -> (handler, supported N range, its own flags)
_COMMANDS = {
    "counts": (cmd_counts, (2, 5), ()),
    "generators": (cmd_generators, (2, 5), ()),
    "project": (cmd_project, (2, 5), ("ops",)),
    "lift": (cmd_lift, (2, 5), ("point",)),
    "map": (cmd_map, (2, 5), ("ops",)),
    "relations": (cmd_relations, (2, 5), ()),
    "constraints": (cmd_constraints, (2, 5), ()),
    "orbits": (cmd_orbits, (2, 4), ()),
    "tables": (cmd_tables, (2, 4), ()),
    "rank": (cmd_rank, (2, 4), ("point",)),
    "verify": (cmd_verify, (2, 5), ("suite",)),
    "cayley": (cmd_cayley, (3, 4), ()),
}

_FLAGS = {
    "ops": dict(required=True, help="comma-separated operator labels, e.g. ZZI,XXI,IIX"),
    "point": dict(required=True, help="point as bit string, [x:..:x], or hex"),
    "suite": dict(choices=sorted(_SUITES),
                  help="verification suite (default: every suite supporting --n)"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command if it names
    none; the usage line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="lgrpauli",
        description="Commuting Pauli families, their exterior-algebra "
                    "coordinates, and the projection onto single observables.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # the usage line lists every command: the full parser derives the list,
    # and naming it there too would replace "command" in its error messages
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        _fn, (lo, hi), flags = _COMMANDS[name]
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True,
                        help=f"number of qubits ({lo}..{hi})")
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    fn, (lo, hi), _flags = _COMMANDS[args.command]
    try:
        if not lo <= args.n <= hi:
            raise CliError(EXIT_PARSE,
                           f"--n must be in {lo}..{hi} for {args.command}")
        text = fn(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except Exception as e:  # noqa: BLE001
        print(f"internal error in {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    to_stdout = args.out is None  # an empty --out is a path, which fails to open
    try:
        if to_stdout:
            print(text, end="", flush=True)
        else:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
    except OSError as e:
        if to_stdout and sys.stdout is sys.__stdout__:  # what stays buffered is flushed at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write {'standard output' if to_stdout else f'--out {args.out}'}: {e.strerror}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
