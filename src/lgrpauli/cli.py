"""Command-line interface: every pipeline stage as a deterministic,
scriptable report in text, CSV, or JSON.

Exit codes: 0 success, 1 internal error (naming the command and the
exception type), 2 parse error or unwritable ``--out`` path, 3
non-commuting input, 4 non-maximal input, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .pauli import (
    CommutationError,
    LabelError,
    NotMaximalError,
    PauliPoint,
    enumerate_generators,
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
from .projection import NotInImageError, ProjPoint, image, lift, project, to_observable
from .quadrics import cayley_quadric, hyperbolic_form, quadric_orbit, variety_quadrics, verify_variety
from .orbits import (
    CLASS_TABLE,
    classify_image,
    e_rank,
    emit_tables,
    orbit_of_point,
    orbit_partition,
    t_rank,
)

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


def _parse_ops(n: int, text: str) -> list[PauliPoint]:
    try:
        ops = [PauliPoint.from_label(tok.strip()) for tok in text.split(",") if tok.strip()]
    except LabelError as e:
        raise CliError(EXIT_PARSE, f"bad operator label: {e}") from e
    if not ops:
        raise CliError(EXIT_PARSE, "no operators given")
    for op in ops:
        if op.n_qubits != n:
            raise CliError(EXIT_PARSE, f"operator {op.label()} has {op.n_qubits} qubits, expected {n}")
    return ops


def _parse_point(n: int, text: str) -> ProjPoint:
    try:
        return ProjPoint.from_string(n, text)
    except ValueError as e:
        raise CliError(EXIT_PARSE, f"bad point: {e}") from e


def _emit(rows: list[dict], fmt: str, title: str | None = None) -> str:
    """Serialize a list of uniform dict rows; all values are primitives or
    lists of primitives."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            w.writeheader()
            for r in rows:
                w.writerow({k: (";".join(map(str, v)) if isinstance(v, (list, tuple)) else v)
                            for k, v in r.items()})
        return buf.getvalue()
    lines = []
    if title:
        lines.append(title)
    for r in rows:
        lines.append("  ".join(
            f"{k}={';'.join(map(str, v)) if isinstance(v, (list, tuple)) else v}"
            for k, v in r.items()
        ))
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
        row["orbits"] = len(orbit_partition(n))
        row["image_orbits"] = len(classify_image(n))
    return _emit([row], args.format)


def cmd_generators(args) -> str:
    rows = []
    for i, g in enumerate(enumerate_generators(args.n), 1):
        labels = [PauliPoint(args.n, r).label() for r in g.rows]
        rows.append({"index": i, "basis": labels})
    return _emit(rows, args.format, title=f"{len(rows)} generators (canonical bases)")


def _project_rows(n: int, ops_text: str) -> list[dict]:
    ops = _parse_ops(n, ops_text)
    try:
        g = generator_from_operators(ops)
    except CommutationError as e:
        raise CliError(EXIT_NONCOMMUTING,
                       f"operators do not commute: {e.pair[0].label()}, {e.pair[1].label()}") from e
    except NotMaximalError as e:
        raise CliError(EXIT_NONMAXIMAL, str(e)) from e
    v = embed(g)
    p = project(v)
    pluecker = {_key_label(2 * n, k): v.coord_key(k) for k in sorted(principal_keys(n))}
    return [{
        "point": p.display_str(),
        "bits": p.bit_string(),
        "hex": p.hex_string(),
        "observable": to_observable(p).label(),
        "pluecker_retained": [f"{k}={val}" for k, val in pluecker.items()],
    }]


def cmd_project(args) -> str:
    return _emit(_project_rows(args.n, args.ops), args.format)


def cmd_map(args) -> str:
    rows = _project_rows(args.n, args.ops)
    return _emit([{"observable": rows[0]["observable"]}], args.format)


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
    return _emit(emit_tables(args.n), args.format,
                 title=f"image classes for N={args.n}")


def cmd_rank(args) -> str:
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
    gens = enumerate_generators(n)
    img = image(n)
    checks = [(f"generator count {len(gens)} == {generator_count(n)}",
               len(gens) == generator_count(n)),
              (f"projection injective: image {len(img)} == generators {len(gens)}",
               len(img) == len(gens))]
    if n <= 4:
        round_trip = all(project(embed(lift(p))) == p for p in img)
        checks.append((f"lift round-trips on all {len(img)} image points", round_trip))
    return checks


def _suite_variety(n: int) -> list[tuple[str, bool]]:
    if n == 2:
        img = image(2)
        return [(f"image is all of the ambient projective space: {len(img)} == 15",
                 len(img) == 15)]
    rep = verify_variety(n)
    checks = [(f"zero-set {rep.zero_set_size} == image {rep.image_size}", rep.matches)]
    if n == 4:
        pairing = hyperbolic_form(16)
        ok = all(pairing.evaluate(p) == 0 for p in image(4))
        checks.append(("pairing quadric vanishes on the image", ok))
    return checks


def _suite_tables(n: int) -> list[tuple[str, bool]]:
    checks = []
    for row in CLASS_TABLE.get(n, ()):
        p = ProjPoint.from_string(n, row["representative"])
        rec = orbit_of_point(p)
        obs, tr, er = to_observable(p).label(), t_rank(p), e_rank(p)
        ok = (rec.size, obs, tr, er) == (row["size"], row["observable"], row["t_rank"], row["e_rank"])
        checks.append((f"class {row['label']}: size {rec.size}, "
                       f"observable {obs}, t_rank {tr}, e_rank {er}", ok))
    return checks


def _suite_cayley(n: int) -> list[tuple[str, bool]]:
    if n == 3:
        return [("Cayley quadric equals the pairing quadric on 8 variables",
                 cayley_quadric(3) == hyperbolic_form(8))]
    quads = variety_quadrics(4)
    q0 = quads[8] + quads[9]
    expected = {q0} | set(quads[:8])
    orb = quadric_orbit(cayley_quadric(4), 4)
    return [
        (f"orbit of the Cayley quadric has {len(orb)} elements == 9", len(orb) == 9),
        ("orbit equals {Q0..Q8}", orb == expected),
        ("Q9 not in orbit", quads[8] not in orb),
        ("Q10 not in orbit", quads[9] not in orb),
    ]


# suite name -> (checks, supported N range)
_SUITES = {
    "bijection": (_suite_bijection, (2, 5)),
    "variety": (_suite_variety, (2, 4)),
    "tables": (_suite_tables, (2, 4)),
    "cayley": (_suite_cayley, (3, 4)),
}


def cmd_verify(args) -> str:
    n = args.n
    if args.suite:
        lo, hi = _SUITES[args.suite][1]
        if not lo <= n <= hi:
            raise CliError(EXIT_PARSE, f"--n must be in {lo}..{hi} for verify --suite {args.suite}")
        names = [args.suite]
    else:
        names = [name for name, (_fn, (lo, hi)) in _SUITES.items() if lo <= n <= hi]
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
    q = cayley_quadric(args.n)
    rows = [{"quadric": str(q)}]
    if args.n == 4:
        orb = quadric_orbit(q, 4)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgrpauli",
        description="Commuting Pauli families, their exterior-algebra "
                    "coordinates, and the projection onto single observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, (lo, hi), flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True,
                        help=f"number of qubits ({lo}..{hi})")
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            print(f"cannot write --out {args.out}: {e.strerror}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
