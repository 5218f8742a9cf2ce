"""Command-line behavior: exit codes, output formats, golden equality,
script runs, and the color toggle."""

import json
from pathlib import Path

import rclc.cli
import rclc.codegen
from rclc.checker import check
from rclc.cli import main
from rclc.parser import MAX_NESTING

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CONFLICTED = str(FIXTURES / "purchase_conflicted.rcl")
FIXED = str(FIXTURES / "purchase_fixed.rcl")
SCRIPTS = FIXTURES / "scripts"


def test_check_conflicted_exits_1(capsys):
    code = main(["check", CONFLICTED])
    out = capsys.readouterr().out
    assert code == 1
    assert "deliverProduct" in out
    assert "{c,b} is both obliged and forbidden" in out
    assert "witness:" in out


def test_check_fixed_exits_0(capsys):
    code = main(["check", FIXED])
    out = capsys.readouterr().out
    assert code == 0
    assert "no conflicts" in out


def test_check_missing_file_exits_2(capsys):
    code = main(["check", "does_not_exist.rcl"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rcl"
    bad.write_text("agents a, b;\nactions x;\n{a,b}Q(x);\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: expected" in err
    assert "bad.rcl:3:6" in err


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "selfpair.rcl"
    bad.write_text("agents a, b;\nactions x;\n{a,a}O(x);\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_check_json_schema(capsys):
    code = main(["check", CONFLICTED, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"conflicts", "stats"}
    (conflict,) = doc["conflicts"]
    assert conflict["pair"] == ["c", "b"]
    assert conflict["action"] == "deliverProduct"
    assert conflict["obligation_at"].startswith(CONFLICTED)
    assert len(conflict["witness"]) == 4
    assert set(doc["stats"]) == {"states", "transitions", "wall_ms"}
    assert doc["stats"]["states"] == 8192


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("RCLC_COLOR", "1")
    main(["check", FIXED])
    assert "\x1b[32m" in capsys.readouterr().out
    monkeypatch.delenv("RCLC_COLOR")
    main(["check", FIXED])
    assert "\x1b[" not in capsys.readouterr().out


def test_gen_writes_golden(tmp_path, capsys):
    out = tmp_path / "out.sol"
    code = main(["gen", CONFLICTED, "--allow-conflicts", "-o", str(out)])
    assert code == 0
    assert out.read_text() == (FIXTURES / "purchase_conflicted.sol").read_text()

    code = main(["gen", FIXED, "-o", str(out)])
    assert code == 0
    assert out.read_text() == (FIXTURES / "purchase_fixed.sol").read_text()
    capsys.readouterr()


def test_gen_to_stdout(capsys):
    code = main(["gen", FIXED])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("// SPDX-License-Identifier: MIT\n")
    assert out.endswith("}\n")


def test_gen_conflicted_without_flag_exits_1(capsys):
    code = main(["gen", CONFLICTED])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "{c,b} is both obliged and forbidden to deliverProduct" in captured.err
    assert "--allow-conflicts" in captured.err


def test_gen_and_sim_run_the_conflict_check_once(monkeypatch, capsys):
    calls = []

    def counted(contract):
        calls.append(contract)
        return check(contract)

    monkeypatch.setattr(rclc.codegen, "check", counted)
    monkeypatch.setattr(rclc.cli, "check", counted)
    assert main(["gen", FIXED]) == 0
    assert len(calls) == 1
    sim = ["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt"),
           "--amount", "paymentAmount=100", "--amount", "shippingCosts=10"]
    assert main(sim) == 0
    assert len(calls) == 2
    assert main(["gen", CONFLICTED]) == 1
    assert len(calls) == 3
    capsys.readouterr()


def _nested(tmp_path, depth):
    path = tmp_path / f"nested{depth}.rcl"
    path.write_text(
        "agents a, b;\nactions x;\n"
        + "{a,b}[x](" * depth + "{a,b}O(x)" + ")" * depth + ";\n"
    )
    return str(path)


def test_nesting_at_the_bound_checks_clean(tmp_path, capsys):
    assert main(["check", _nested(tmp_path, MAX_NESTING)]) == 0
    assert "no conflicts" in capsys.readouterr().out


def test_over_deep_nesting_exits_2(tmp_path, capsys):
    path = _nested(tmp_path, 1200)
    code = main(["check", path])
    err = capsys.readouterr().err
    assert code == 2
    column = 9 * (MAX_NESTING + 1) + 1  # past that many 9-character "{a,b}[x]("
    assert err == (
        f"{path}:3:{column}: error: expected a clause inside at "
        f"most {MAX_NESTING} guards, found one inside {MAX_NESTING + 1}\n"
    )


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(contract):
        raise RuntimeError("boom")

    monkeypatch.setattr(rclc.cli, "check", broken)
    assert main(["check", FIXED]) == 2
    assert "rclc: internal error: RuntimeError('boom')" in capsys.readouterr().err


def test_gen_unloverable_exits_2(tmp_path, capsys):
    src = tmp_path / "flat.rcl"
    src.write_text("agents a, b;\nactions x;\n{a,b}O(x);\n")
    code = main(["gen", str(src)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot lower" in err


def test_sim_corrected_run(capsys):
    code = main(
        [
            "sim",
            FIXED,
            "--script",
            str(SCRIPTS / "corrected_run.txt"),
            "--amount",
            "paymentAmount=100",
            "--amount",
            "shippingCosts=10",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "final state: Finalized" in out
    assert out.count("-> OK") == 12


def test_sim_conflicted_run(capsys):
    code = main(
        [
            "sim",
            CONFLICTED,
            "--allow-conflicts",
            "--script",
            str(SCRIPTS / "conflicted_run.txt"),
            "--amount",
            "paymentAmount=100",
            "--amount",
            "shippingCosts=10",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert 'REVERT "Frete nao foi pago pelo vendedor a transportadora"' in out
    assert "final state: PaymentNotified" in out


def test_sim_missing_amount_exits_2(capsys):
    code = main(
        ["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "paymentAmount" in err


def test_sim_custom_binding(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("alice buyProduct\n")
    code = main(
        [
            "sim",
            FIXED,
            "--script",
            str(script),
            "--bind",
            "buyer=alice",
            "--amount",
            "paymentAmount=100",
            "--amount",
            "shippingCosts=10",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "call alice buyProduct -> OK" in out


def test_sim_bad_amount_syntax_exits_2(capsys):
    code = main(
        [
            "sim",
            FIXED,
            "--script",
            str(SCRIPTS / "corrected_run.txt"),
            "--amount",
            "paymentAmount=lots",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "integer" in err


def test_dump_ast_reparses(capsys, tmp_path):
    code = main(["dump-ast", FIXED])
    out = capsys.readouterr().out
    assert code == 0
    again = tmp_path / "again.rcl"
    again.write_text(out)
    capsys.readouterr()
    assert main(["dump-ast", str(again)]) == 0
    assert capsys.readouterr().out == out


def test_dump_lts_text_and_dot(capsys):
    code = main(["dump-lts", FIXED])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("lts states=4096 transitions=24576 events=12\n")

    code = main(["dump-lts", FIXED, "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph lts {")
    assert out.rstrip().endswith("}")
