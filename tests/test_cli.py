"""End-to-end tests of the command-line interface: output format, worked
examples, determinism, and exit codes."""

import json

import pytest

from lgrpauli import cli
from lgrpauli.cli import (
    EXIT_NONCOMMUTING,
    EXIT_NONMAXIMAL,
    EXIT_PARSE,
    EXIT_VERIFY,
    main,
)
from lgrpauli.pauli import PauliPoint, generator_from_operators
from lgrpauli.pluecker import embed
from lgrpauli.projection import project


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert len(lines) == 2 and all(line.startswith("[bijection] ") for line in lines)
    assert all(line.endswith(": PASS") for line in lines)


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


def test_verify_cayley_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "cayley")
    assert code == 0
    assert out.count("PASS") == 4


def test_cayley_command(capsys):
    code, out, _ = run(capsys, "cayley", "--n", "3")
    assert code == 0
    assert "x1*x5 + x2*x6 + x3*x7 + x4*x8" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "counts", "--n", "2", "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["generators"] == 15


def test_out_unwritable_path_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "counts", "--n", "2", "--out", str(target))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err


def test_generators_listing(capsys):
    code, out, _ = run(capsys, "generators", "--n", "2")
    assert code == 0
    assert "15 generators" in out
