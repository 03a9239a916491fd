"""End-to-end tests of the command-line interface and the package's
exports and imports: output format, worked examples, determinism, exit
codes and messages, the modules each command loads, and the hygiene of the
package and of these tests. Each output the README shows is also pinned
byte for byte by its file in ``golden/``."""

import ast
import errno
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import lgrpauli
from lgrpauli import cli, projection, quadrics
from lgrpauli.cli import (
    EXIT_INTERNAL,
    EXIT_NONCOMMUTING,
    EXIT_NONMAXIMAL,
    EXIT_PARSE,
    EXIT_VERIFY,
    main,
)
from lgrpauli.pauli import PauliPoint, generator_count, generator_from_operators
from lgrpauli.pluecker import embed
from lgrpauli.projection import ProjPoint, project
from projection_oracles import image


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PACKAGE = Path(lgrpauli.__file__).parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def parsed(directory: Path) -> dict[str, ast.Module]:
    """The syntax tree of each ``.py`` file in ``directory``, keyed by its
    directory and file name."""
    return {f"{directory.name}/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def test_all_exports_resolve():
    missing = [name for name in lgrpauli.__all__ if not hasattr(lgrpauli, name)]
    assert missing == []


def test_public_api_matches_readme():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(lgrpauli.__all__)
    assert not [n for n in lgrpauli.__all__
                if getattr(getattr(lgrpauli, n), "__module__", "") == "lgrpauli.gf2"]


def test_imports_point_down_the_layers():
    # each module imports from the layers below it alone: enumerate_generators
    # sits in projection beside the lift it reads, so pauli reads gf2 alone
    layer = {"gf2": 0, "pauli": 1, "pluecker": 2, "projection": 3, "orbits": 4, "quadrics": 4, "cli": 5}
    assert set(layer) == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    upward = []
    for name, rank in layer.items():
        for top in ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")).body:
            scope = f"{name}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else name
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.level:
                    targets = [node.module] if node.module else [alias.name for alias in node.names]
                    upward += [f"{scope} -> {t}" for t in targets if layer[t] >= rank]
    assert upward == []


def test_quadrics_imports_from_gf2_pauli_and_projection_alone():
    # the Cayley quadric is written in subset masks, so no Plucker index
    # needs mapping back through pluecker
    tree = ast.parse((PACKAGE / "quadrics.py").read_text(encoding="utf-8"))
    sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert sources == {"gf2", "pauli", "projection"}


def test_the_enumeration_keeps_its_name_on_pauli_for_the_layer_trace():
    # perfbench/layers.py times it as pauli.enumerate_generators, a name
    # projection binds when it loads
    from lgrpauli import pauli

    assert pauli.enumerate_generators is projection.enumerate_generators is lgrpauli.enumerate_generators


def test_no_module_imports_an_unused_name():
    unused = []
    for name, tree in {**parsed(PACKAGE), **parsed(TESTS)}.items():
        if name == f"{PACKAGE.name}/__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def fresh_run(*args, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter on this package."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          text=True, timeout=60, **kwargs)


def fresh_stdout(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter on this
    package."""
    return fresh_run("-c", code, capture_output=True, check=True).stdout


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter loads to run ``code``, beyond those
    it starts with."""
    out = fresh_stdout(f"import sys\nbare = set(sys.modules)\n{code}\n"
                       "print('\\n' + ' '.join(set(sys.modules) - bare))")
    return set(out.splitlines()[-1].split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the value types are plain classes; a cold start would pay for both,
    # and for csv, which only --format csv reads
    loaded = loaded_modules("import lgrpauli.cli")
    assert "lgrpauli.cli" in loaded
    assert {"dataclasses", "inspect", "csv"}.isdisjoint(loaded)


@pytest.mark.parametrize("code", [
    "import lgrpauli", "import lgrpauli.pauli", "import lgrpauli.cli",
    *(f"from lgrpauli.cli import main\nmain({argv.split()!r})" for argv in (
        "relations --n 4", "constraints --n 4", "lift --n 4 --point 0x4571",
        "map --n 4 --ops ZZII,XXII,IIZZ,IIXX", "counts --n 5")),
])
def test_cold_paths_load_neither_quadrics_nor_orbits(code):
    assert {"lgrpauli.quadrics", "lgrpauli.orbits"}.isdisjoint(loaded_modules(code))


def test_commands_load_the_modules_they_print_from():
    # quadrics reads the local gates from projection, so cayley leaves orbits unloaded
    code = "from lgrpauli.cli import main\nmain(['cayley', '--n', '3', '--format', 'csv'])"
    loaded = loaded_modules(code)
    assert {"lgrpauli.quadrics", "csv"} <= loaded
    assert "lgrpauli.orbits" not in loaded


def test_exports_resolve_on_first_use_in_a_fresh_interpreter():
    # dir lists every public name before any is used, and each resolves to
    # the object of the module that defines it
    out = fresh_stdout("import json, sys, lgrpauli\n"
                       "unlisted = sorted(set(lgrpauli.__all__) - set(dir(lgrpauli)))\n"
                       "homes = {n: getattr(lgrpauli, n).__module__ for n in lgrpauli.__all__}\n"
                       "moved = [n for n, m in homes.items() if getattr(sys.modules[m], n) is not getattr(lgrpauli, n)]\n"
                       "print(json.dumps([unlisted, moved, sorted(set(homes.values()))]))")
    unlisted, moved, homes = json.loads(out)
    assert unlisted == [] and moved == []
    assert homes == [f"lgrpauli.{m}" for m in ("orbits", "pauli", "pluecker", "projection", "quadrics")]
    with pytest.raises(AttributeError, match="module 'lgrpauli' has no attribute 'nope'"):
        lgrpauli.nope


def test_every_module_level_definition_is_used_or_exported():
    # a function, class or assigned name (dunders and the package's PEP 562
    # hooks, which the interpreter calls, aside) that no module reads and
    # the package does not export is dead code; so is one of a test helper
    # module that no test module or helper reads
    init = f"{PACKAGE.name}/__init__.py"
    hooks = {(init, "__getattr__"), (init, "__dir__")}
    package, tests = parsed(PACKAGE), parsed(TESTS)
    helpers = {name: tree for name, tree in tests.items() if not name.startswith(f"{TESTS.name}/test_")}
    dead = []
    for trees, readers, exported in ((package, package, lgrpauli.__all__), (helpers, tests, ())):
        used = {node.id for tree in readers.values() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        defined = [(name, node.name) for name, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (name, node.name) not in hooks]
        assigned = [(name, target.id) for name, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for top in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    for target in ast.walk(top) if isinstance(target, ast.Name) and not target.id.startswith("__")]
        assert defined and assigned
        dead += [f"{name}: {d}" for name, d in defined + assigned if d not in used and d not in exported]
    assert dead == []


def test_counts_n3(capsys):
    code, out, _ = run(capsys, "counts", "--n", "3")
    assert code == 0
    assert "points=63" in out
    assert "generators=135" in out
    assert "image=135" in out


def test_counts_n2(capsys):
    code, out, _ = run(capsys, "counts", "--n", "2")
    assert code == 0
    assert "generators=15" in out and "image=15" in out


def test_counts_json(capsys):
    code, out, _ = run(capsys, "counts", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["generators"] == 2295


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counts_image_is_the_image_size(capsys, n):
    code, out, _ = run(capsys, "counts", "--n", str(n), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["image"] == len(image(n))


def test_counts_n5_builds_no_image(capsys, monkeypatch):
    def no_image(*args):
        raise AssertionError("counts must not build the image")

    monkeypatch.setattr(cli, "_image_bits", no_image)
    monkeypatch.setattr(cli, "_lift_points", no_image)
    code, out, _ = run(capsys, "counts", "--n", "5")
    assert code == 0
    assert "image=75735" in out


def test_internal_error_names_command_and_exception_type(capsys, monkeypatch):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setitem(cli._COMMANDS, "counts", (broken, (2, 5), ()))
    code, out, err = run(capsys, "counts", "--n", "3")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error in counts: KeyError: 'boom'\n"


def test_project_worked_example(capsys):
    code, out, _ = run(capsys, "project", "--n", "3", "--ops", "ZZI,XXI,IIX")
    assert code == 0
    assert "[0:0:0:1:0:0:1:0]" in out
    assert "IIXZ" in out


def test_project_two_qubits(capsys):
    code, out, _ = run(capsys, "project", "--n", "2", "--ops", "XI,IX")
    assert code == 0
    assert "[0:0:1:0]" in out and "observable=XI" in out


def test_project_non_commuting_exit_3(capsys):
    code, _, err = run(capsys, "project", "--n", "2", "--ops", "XI,ZI")
    assert code == EXIT_NONCOMMUTING
    assert "XI" in err and "ZI" in err


def test_project_non_maximal_exit_4(capsys):
    code, _, _ = run(capsys, "project", "--n", "2", "--ops", "XI,XI")
    assert code == EXIT_NONMAXIMAL


def test_project_parse_error_exit_2(capsys):
    code, _, _ = run(capsys, "project", "--n", "2", "--ops", "QQ")
    assert code == EXIT_PARSE


def test_wrong_qubit_count_exit_2(capsys):
    code, _, _ = run(capsys, "project", "--n", "3", "--ops", "XI,IX")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("cmd", ["map", "project"])
@pytest.mark.parametrize("ops, field", [("ZZI,,XXI,IIX", 2), (",ZZI,XXI,IIX", 1), ("ZZI,XXI,IIX,", 4),
                                        ("ZZI, \t,XXI,IIX", 2), ("ZZI,XXI,IIX,,QQI", 4)])
def test_an_empty_ops_field_exits_2_naming_its_position(capsys, cmd, ops, field):
    # an empty field used to be dropped: ZZI,,XXI,IIX printed observable=IIXZ
    code, out, err = run(capsys, cmd, "--n", "3", "--ops", ops)
    assert (code, out, err) == (EXIT_PARSE, "", f"bad operator label: field {field} of --ops is empty\n")


@pytest.mark.parametrize("cmd", ["map", "project"])
@pytest.mark.parametrize("ops", ["", " "])
def test_an_empty_ops_exits_2(capsys, cmd, ops):
    assert run(capsys, cmd, "--n", "3", f"--ops={ops}") == (EXIT_PARSE, "", "no operators given\n")


@pytest.mark.parametrize("cmd", ["map", "project"])
def test_spaces_around_an_ops_label_are_accepted(capsys, cmd):
    assert run(capsys, cmd, "--n", "3", "--ops", " ZZI , XXI,\tIIX ") == run(capsys, cmd, "--n", "3", "--ops",
                                                                             "ZZI,XXI,IIX")


@pytest.mark.parametrize("cmd", ["map", "project"])
@pytest.mark.parametrize("ops, message", [
    ("X" * 40, f"operator {'X' * 40} has 40 qubits, expected 3"),
    ("X" * 41, f"operator {'X' * 40}… (41 letters) has 41 qubits, expected 3"),
    ("X" * 100_000, f"operator {'X' * 40}… (100000 letters) has 100000 qubits, expected 3"),
    ("XII," + "X" * 99_999 + "Q", f"bad operator label: bad character 'Q' in label '{'X' * 40}'… (100000 letters)"),
    ("Q" + "X" * 39, f"bad operator label: bad character 'Q' in label 'Q{'X' * 39}'"),
    ("ZZI,-XXII,IIX", "operator XXII has 4 qubits, expected 3"),
    (" +XX ,XXI,IIX", "operator XX has 2 qubits, expected 3"),
    ("XXII,IIX,QQI", "bad operator label: bad character 'Q' in label 'QQI'"),
], ids=["40", "41", "100000", "100000-bad", "40-bad", "signed", "spaced", "count-then-bad"])
def test_a_long_label_is_echoed_bounded(capsys, monkeypatch, cmd, ops, message):
    # both messages used to echo the whole label: about 100 KB on one line;
    # the count message is worded from the field, since op.label() is
    # quadratic in the letters (about 0.3 s at 100,000), and a bad label
    # anywhere in --ops still comes before a wrong count
    def no_label(self):
        raise AssertionError("label built")

    monkeypatch.setattr(PauliPoint, "label", no_label)
    code, out, err = run(capsys, cmd, "--n", "3", "--ops", ops)
    assert (code, out, err) == (EXIT_PARSE, "", message + "\n")


def test_a_sign_led_first_ops_label_needs_the_equals_form(capsys):
    # argparse reads "-ZZI,..." after --ops as an option, so --ops has no
    # argument; attached with "=" it is read as labels, signs dropped
    with pytest.raises(SystemExit) as exc:
        main(["map", "--n", "3", "--ops", "-ZZI,+XXI,IIX"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_PARSE, "")
    assert err.startswith("usage: lgrpauli map ")
    assert err.endswith("lgrpauli map: error: argument --ops: expected one argument\n")
    assert run(capsys, "map", "--n", "3", "--ops=-ZZI,+XXI,IIX") == (0, "observable=IIXZ\n", "")


def test_n_out_of_range_exit_2(capsys):
    code, _, _ = run(capsys, "orbits", "--n", "5")
    assert code == EXIT_PARSE


def test_lift_round_trip(capsys):
    code, out, _ = run(capsys, "lift", "--n", "3", "--point", "00010010")
    assert code == 0
    assert "ZZI" in out and "XXI" in out and "IIX" in out


def test_lift_off_chart_n5(capsys):
    ops = ["XXIII", "ZZIII", "IIXII", "IIIXI", "IIIIX"]
    p = project(embed(generator_from_operators([PauliPoint.from_label(s) for s in ops])))
    assert not p.bits & 1  # x_{} = 0: off the chart
    code, out, _ = run(capsys, "lift", "--n", "5", "--point", p.bit_string(),
                       "--format", "json")
    assert code == 0
    basis = json.loads(out)[0]["basis"]
    g = generator_from_operators([PauliPoint.from_label(s) for s in basis])
    assert project(embed(g)) == p


def test_lift_non_image_exit_5(capsys):
    code, _, _ = run(capsys, "lift", "--n", "3", "--point", "10001000")
    assert code == EXIT_VERIFY


def test_map_command(capsys):
    code, out, _ = run(capsys, "map", "--n", "3", "--ops", "ZZI,XXI,IIX")
    assert code == 0
    assert "IIXZ" in out


def test_relations_census(capsys):
    code, out, _ = run(capsys, "relations", "--n", "3")
    assert code == 0
    assert "35 quadratic exchange relations" in out


def test_constraints_rank(capsys):
    code, out, _ = run(capsys, "constraints", "--n", "3")
    assert code == 0
    assert "rank=6" in out


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--n", "2", "--point", "1010")
    assert code == 0
    assert "t_rank=2" in out and "e_rank=1" in out


def test_orbits_csv_deterministic(capsys):
    code1, out1, _ = run(capsys, "orbits", "--n", "3", "--format", "csv")
    code2, out2, _ = run(capsys, "orbits", "--n", "3", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("\n") == 6  # header + 5 orbits


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--n", "2", "--threads", "8"])
    assert exc.value.code == EXIT_PARSE
    assert "--threads" in capsys.readouterr().err


def test_rank_rejects_non_binary_colon_coordinates(capsys):
    for point in ("[0:0:3:0]", "[0:0:-1:0]"):
        code, out, err = run(capsys, "rank", "--n", "2", "--point", point)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("bad point:")


def test_rank_rejects_hex_without_ascii_digits(capsys):
    assert run(capsys, "rank", "--n", "2", "--point", "0x1")[0] == 0
    for point in ("0x_1", "0x\u0661", "0x\uff101"):  # underscore, Arabic-Indic 1, fullwidth 0
        code, out, err = run(capsys, "rank", "--n", "2", "--point", point)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("bad point:")


def test_verify_all_suites_n2(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_n5_runs_the_suites_supporting_n5(capsys):
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split("] ")[0] for line in lines] == ["[bijection"] * 3 + ["[variety"] * 3
    assert all(line.endswith(": PASS") for line in lines)
    assert lines[2] == "[bijection] lift round-trips on all 75735 image points: PASS"


def test_verify_bijection_counts_lifts_without_enumerating(capsys, monkeypatch):
    def no_enumeration(n):
        raise AssertionError("verify must not enumerate the generators")

    monkeypatch.setattr(cli, "enumerate_generators", no_enumeration)
    code, out, err = run(capsys, "verify", "--n", "4", "--suite", "bijection")
    assert code == 0 and err == ""
    assert out == ("[bijection] generator count 2295 == 2295: PASS\n"
                   "[bijection] projection injective: image 2295 == generators 2295: PASS\n"
                   "[bijection] lift round-trips on all 2295 image points: PASS\n")


def test_verify_reports_a_point_outside_the_image_as_a_failure(capsys, monkeypatch):
    # a point that no generator projects to fails its lift's own check
    bad = ProjPoint.from_string(3, "[0:1:0:0:0:1:0:0]").bits
    assert bad not in projection._image_bits(3)
    monkeypatch.setattr(cli, "_image_bits", lambda n: projection._image_bits(n) + (bad,))
    code, out, err = run(capsys, "verify", "--n", "3", "--suite", "bijection")
    assert (code, out) == (EXIT_VERIFY, "")
    assert err == "[bijection] lift round-trips: [0:1:0:0:0:1:0:0] is not in the image: FAIL\n"


@pytest.mark.parametrize("n", [4, 5])
def test_verify_bijection_projects_nothing_twice(capsys, monkeypatch, n):
    # the round trip is each lift's own compare with its point
    def no_second_pass(*args):
        raise AssertionError("the bijection suite must not project or list the image again")

    monkeypatch.setattr(cli, "project", no_second_pass)
    monkeypatch.setattr(projection, "image", no_second_pass)
    code, out, err = run(capsys, "verify", "--n", str(n), "--suite", "bijection")
    assert code == 0 and err == ""
    assert out.count(": PASS\n") == 3


BULK_FREE_ARGV = [
    *(f"{cmd} --n 4" for cmd in ("counts", "generators", "relations", "constraints", "orbits", "tables",
                                 "verify", "cayley")),
    "project --n 4 --ops ZZII,XXII,IIZZ,IIXX", "map --n 4 --ops ZZII,XXII,IIZZ,IIXX",
    "lift --n 4 --point 0x4571", "rank --n 4 --point 0x4571",
    "map --n 5 --ops XXIII,ZZIII,IIXII,IIIXI,IIIIX", "lift --n 5 --point 0x6167d7a7", "counts --n 5",
    "verify --n 5 --suite variety",
]


def test_no_command_builds_projected_points_in_bulk():
    # in a fresh interpreter, so that no cache an earlier test filled hides
    # a path: ``image`` raises, and each command's ProjPoint constructions
    # are counted (29 orbit representatives and 6 class rows at most today)
    out = fresh_stdout(
        "import contextlib, io, json\n"
        "from lgrpauli import cli, projection\n"
        "def no_image(n):\n"
        "    raise AssertionError('image was called')\n"
        "built, init = [], projection.ProjPoint.__init__\n"
        "def counted(self, *fields):\n"
        "    built.append(fields)\n"
        "    init(self, *fields)\n"
        "projection.image, projection.ProjPoint.__init__ = no_image, counted\n"
        "counts = {}\n"
        f"for argv in {BULK_FREE_ARGV!r}:\n"
        "    built.clear()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    counts[argv] = [code, len(built)]\n"
        "print(json.dumps(counts))")
    counts = json.loads(out)
    assert list(counts) == BULK_FREE_ARGV
    assert {argv: code for argv, (code, _) in counts.items() if code} == {}
    assert {argv: built for argv, (_, built) in counts.items() if built > 64} == {}


def test_verify_json_one_record_per_check(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 0 and err == ""
    records = json.loads(out)
    _, text, _ = run(capsys, "verify", "--n", "3")
    assert [f"[{r['suite']}] {r['check']}: {'PASS' if r['pass'] else 'FAIL'}"
            for r in records] == text.splitlines()
    assert all(set(r) == {"suite", "check", "pass"} and r["pass"] is True for r in records)
    assert {r["suite"] for r in records} == {"bijection", "variety", "tables", "cayley"}


def test_verify_failure_renders_its_format_on_stderr(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "cayley", (lambda n: [("forced", False)], (3, 4)))
    code, out, err = run(capsys, "verify", "--n", "3", "--suite", "cayley", "--format", "csv")
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "suite,check,pass\r\ncayley,forced,False\r\n"


def test_verify_cayley_outside_its_range_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--suite", "cayley")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "--n must be in 3..4 for verify --suite cayley\n"


def test_verify_tables_outside_its_range_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--n", "5", "--suite", "tables")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "--n must be in 2..4 for verify --suite tables\n"


def test_subcommands_reject_flags_of_other_subcommands(capsys):
    for argv in (["counts", "--n", "3", "--suite", "variety"],
                 ["orbits", "--n", "3", "--point", "0010"],
                 ["rank", "--n", "2", "--point", "0010", "--ops", "XI,IX"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err


# argv that end in argparse: help, usage errors and parse errors
PARSE_EXITS = [[name, "--help"] for name in cli._COMMANDS] + [
    ["--help"], [], ["bogus"], ["verify", "--bogus"], ["verify", "--n", "4", "--bogus"],
    ["project", "--n", "3"], ["map", "--n", "3"], ["lift", "--n", "3"], ["rank", "--n", "3"],
    ["counts", "--n", "x"], ["counts", "--n", "3", "extra"], ["orbits", "--n", "3", "--point", "0010"],
    ["counts", "--n", "0x3"], ["verify", "--n", "4", "--format", "xml"]]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_command_parser_matches_the_full_parser(capsys, argv):
    # main builds the parser of the command it is given; its help, usage and
    # errors, and its exit code, are those of the parser of every command
    outcomes = []
    for parse in (main, cli.build_parser(None).parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if "--help" in argv else EXIT_PARSE)


@pytest.mark.parametrize("argv", [argv for argv in PARSE_EXITS if "--help" not in argv],
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_errors_print_the_usage_then_one_error_line(capsys, argv):
    # argparse's own errors keep its shape: the usage line and its indented
    # continuations, then one "lgrpauli[ COMMAND]: error: ..." line, exit 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    *usage, last = err.splitlines()
    assert (exc.value.code, out) == (EXIT_PARSE, "")
    assert usage[0].startswith("usage: lgrpauli ") and all(line.startswith(" ") for line in usage[1:])
    assert re.fullmatch(r"lgrpauli( [a-z]+)?: error: .+", last)
    assert err.endswith(last + "\n") and err.count("error:") == 1


def test_parse_errors_name_the_command_argument(capsys):
    for argv, message in (([], "error: the following arguments are required: command\n"),
                          (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from 'counts', ")):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err


def test_build_parser_builds_the_named_command_alone(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser("verify").parse_args(["counts", "--n", "2"])
    assert "invalid choice: 'counts' (choose from 'verify')" in capsys.readouterr().err


def test_verify_reports_a_generator_count_mismatch_as_a_failure(capsys, monkeypatch):
    # the closed-form count is off by one wherever the package binds it, and
    # the image is walked afresh under it: verify alone compares the two
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lgrpauli" and vars(module).get("generator_count") is generator_count:
            monkeypatch.setattr(module, "generator_count", lambda n: generator_count(n) + 1)
    fresh = lru_cache(maxsize=None)(projection._image_bits.__wrapped__)
    monkeypatch.setattr(projection, "_image_bits", fresh)
    monkeypatch.setattr(cli, "_image_bits", fresh)
    code, out, err = run(capsys, "verify", "--n", "4", "--suite", "bijection")
    assert (code, out) == (EXIT_VERIFY, "")
    assert err == ("[bijection] generator count 2295 == 2296: FAIL\n"
                   "[bijection] projection injective: image 2295 == generators 2295: PASS\n"
                   "[bijection] lift round-trips on all 2295 image points: PASS\n")


def test_verify_reports_a_pairing_quadric_that_misses_the_image(capsys, monkeypatch):
    # x_1^2 = x_1 is 1 on part of the image
    monkeypatch.setattr(quadrics, "pairing_quadric", lambda n: quadrics._form(n, (1, 1)))
    code, out, err = run(capsys, "verify", "--n", "4", "--suite", "variety")
    assert (code, out) == (EXIT_VERIFY, "")
    assert err == ("[variety] quadric count 10: vanish on the image, span closed under the gates: PASS\n"
                   "[variety] slice: zeros 64 == image 64: PASS\n"
                   "[variety] pairing quadric vanishes on the image: FAIL\n")


def test_verify_cayley_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "cayley")
    assert code == 0
    assert out.count("PASS") == 4


def test_cayley_command(capsys):
    code, out, _ = run(capsys, "cayley", "--n", "3")
    assert code == 0
    assert "x1*x5 + x2*x6 + x3*x7 + x4*x8" in out


GOLDEN = TESTS / "golden"
GOLDEN_RUNS = [f"{cmd} --n {n} --format {fmt}" for cmd in ("cayley", "verify")
               for n in (3, 4) for fmt in ("text", "csv", "json")]
GOLDEN_RUNS += [f"verify --n {n} --suite variety --format text" for n in (2, 5)]
GOLDEN_RUNS += [f"verify --n 2 --format {fmt}" for fmt in ("text", "csv", "json")]
# the outputs of the GF(2) eliminator: the independent Plucker relations and
# the isotropy constraints with their rank
GOLDEN_RUNS += [f"relations --n 3 --format {fmt}" for fmt in ("text", "csv", "json")]
GOLDEN_RUNS += ["relations --n 4 --format text", "constraints --n 4 --format text"]
# the generators in their listed order, and the counts at every N
GOLDEN_RUNS += [f"generators --n {n} --format {fmt}" for n in (2, 3) for fmt in ("text", "csv", "json")]
GOLDEN_RUNS += [f"counts --n {n} --format text" for n in (2, 3, 4, 5)]


# argv -> exit code of the `project` and `map` cases: the README examples
# and one family for each N in each format, then the rejected inputs
GOLDEN_OPS = {2: ["XI,IX", "ZX,XZ"], 3: ["ZZI,XXI,IIX"], 4: ["ZZII,XXII,IIZZ,IIXX"],
              5: ["XXIII,ZZIII,IIXII,IIIXI,IIIIX", "ZXIII,XZIII,IIZXI,IIXZI,IIIIY"]}
GOLDEN_PROJECTION_RUNS = {f"{cmd} --n {n} --ops {ops} --format {fmt}": 0
                          for n, families in GOLDEN_OPS.items() for ops in families
                          for cmd in ("project", "map") for fmt in ("text", "csv", "json")}
GOLDEN_PROJECTION_RUNS.update({  # XII, ZII anticommute and have rank 2 < 3: exit 3
    f"{cmd} --n 3 --ops {ops} --format text": code
    for ops, code in (("XII,ZII", EXIT_NONCOMMUTING), ("XII,XII,IXI", EXIT_NONMAXIMAL),
                      ("QQI", EXIT_PARSE))
    for cmd in ("project", "map")})
GOLDEN_PROJECTION_RUNS.update({  # two anticommuting pairs, with full and deficient rank
    "map --n 5 --ops XIIII,IZIII,IXIII,ZIIII,IIIIX --format text": EXIT_NONCOMMUTING,
    "map --n 5 --ops XIIII,IZIII,IXIII,ZIIII --format text": EXIT_NONCOMMUTING,
})

# argv -> exit code of the commands that read or print display-order points:
# an off-chart image point to lift and one point to rank at each N (a chart
# point, a point outside the image, an off-chart image point), the orbit and
# class tables, N = 5 lifts of a chart and an off-chart point in bits and in
# hex, then a point outside the image and a malformed point
GOLDEN_POINTS = {2: ("0111", "1000"), 3: ("00110111", "0xb6"),
                 4: ("0100010101110001", "0x4571")}
GOLDEN_POINT_RUNS = {f"{cmd} --n {n}{arg} --format {fmt}": 0
                     for n, (lift_point, rank_point) in GOLDEN_POINTS.items()
                     for cmd, arg in (("lift", f" --point {lift_point}"), ("rank", f" --point {rank_point}"),
                                      ("orbits", ""), ("tables", ""))
                     for fmt in ("text", "csv", "json")}
GOLDEN_POINT_RUNS.update({f"lift --n 5 --point {point} --format text": 0
                          for point in ("10100010110100110011111011011110", "0xa2d33ede",
                                        "01100001011001111101011110100111", "0x6167d7a7")})
GOLDEN_POINT_RUNS.update({"lift --n 3 --point 10110110 --format text": EXIT_VERIFY,
                          "rank --n 3 --point 0102 --format text": EXIT_PARSE})


def golden_name(argv: str, code: int) -> str:
    # the file <argv words without dashes, joined by -> holds the stdout of
    # `python -m lgrpauli.cli <argv>` as .out on exit 0, else its stderr as .err
    return "-".join(a.lstrip("-") for a in argv.split()) + (".out" if code == 0 else ".err")


def check_golden(capsys, argv: str, expected_code: int):
    name = golden_name(argv, expected_code)
    code, out, err = run(capsys, *argv.split())
    assert code == expected_code
    if code == 0:
        assert err == "" and out.encode() == (GOLDEN / name).read_bytes()
    else:
        assert out == "" and err.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv", GOLDEN_RUNS)
def test_quadric_commands_match_golden_output(capsys, argv):
    check_golden(capsys, argv, 0)


@pytest.mark.parametrize("argv", GOLDEN_PROJECTION_RUNS)
def test_projection_commands_match_golden_output(capsys, argv):
    check_golden(capsys, argv, GOLDEN_PROJECTION_RUNS[argv])


@pytest.mark.parametrize("argv", GOLDEN_POINT_RUNS)
def test_point_commands_match_golden_output(capsys, argv):
    check_golden(capsys, argv, GOLDEN_POINT_RUNS[argv])


def test_every_golden_file_has_exactly_one_case():
    cases = [(argv, 0) for argv in GOLDEN_RUNS]
    cases += [*GOLDEN_PROJECTION_RUNS.items(), *GOLDEN_POINT_RUNS.items()]
    names = [golden_name(argv, code) for argv, code in cases]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(names)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "counts", "--n", "2", "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["generators"] == 15


def test_out_unwritable_path_exit_2(tmp_path, capsys):
    # a missing directory, an empty path (a path, not standard output) and a directory
    missing = tmp_path / "missing" / "x.txt"
    for target, err_no in ((missing, errno.ENOENT), ("", errno.ENOENT), (tmp_path, errno.EISDIR)):
        code, out, err = run(capsys, "counts", "--n", "2", "--out", str(target))
        assert (code, err) == refused(f"--out {target}", err_no)
        assert out == ""


def refused(where: str, err: int) -> tuple[int, str]:
    """The exit code and stderr of an output that cannot be written."""
    return EXIT_PARSE, f"cannot write {where}: {os.strerror(err)}\n"


def _unwritable(method, error):
    """A standard output whose ``method`` raises ``error``."""
    def refuse(self, *args):
        raise error
    return type("Unwritable", (io.StringIO,), {method: refuse})()


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                   BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))], ids=["ENOSPC", "EPIPE"])
def test_an_unwritable_stdout_exits_2_with_one_line(capsys, monkeypatch, method, error):
    monkeypatch.setattr(sys, "stdout", _unwritable(method, error))
    assert (main(["counts", "--n", "4"]), capsys.readouterr().err) == refused("standard output", error.errno)


def cli_process(stdout, *argv) -> subprocess.CompletedProcess:
    """``lgrpauli *argv`` in a fresh interpreter, writing to ``stdout``."""
    return fresh_run("-m", "lgrpauli.cli", *argv, stdout=stdout, stderr=subprocess.PIPE)


# one output that fits the stream's buffer, and one that does not
SMALL_AND_LARGE = [("counts", "--n", "4"), ("generators", "--n", "4")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", SMALL_AND_LARGE, ids=" ".join)
def test_stdout_on_a_full_device_exits_2_with_one_line(capsys, argv):
    with open("/dev/full", "w") as full:
        proc = cli_process(full, *argv)
    assert (proc.returncode, proc.stderr) == refused("standard output", errno.ENOSPC)
    # the --out path's message, unchanged
    code, out, err = run(capsys, *argv, "--out", "/dev/full")
    assert out == "" and (code, err) == refused("--out /dev/full", errno.ENOSPC)


@pytest.mark.parametrize("argv", SMALL_AND_LARGE, ids=" ".join)
def test_stdout_on_a_closed_pipe_exits_2_with_one_line(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli_process(write, *argv)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == refused("standard output", errno.EPIPE)


def test_generators_listing(capsys):
    code, out, _ = run(capsys, "generators", "--n", "2")
    assert code == 0
    assert "15 generators" in out
