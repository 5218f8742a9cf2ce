"""Command-line behavior: exit codes, output formats, golden equality,
script runs, and the color toggle."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import rclc.cli
import rclc.codegen
from rclc.checker import check
from rclc.cli import main
from rclc.parser import MAX_NESTING, ParseResult, parse_contract
from rclc.semantics import MAX_LTS_EVENTS

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


def test_dump_lts_output_is_pinned(capsys):
    digests = {
        (FIXED, False): "5ac5e5e5e363954bf022f8bab2ba4f3c67c5806c914b8aac44d24f703eac63ed",
        (FIXED, True): "daadd83ccc7dfd230c284ee951028c789e560e3c7fc30fb623b6ef7a7c0b56cc",
        (CONFLICTED, False): "05ea3221bd05c6129b9931fc49f727045cbdd9e87259d4806108114bf3649bfc",
        (CONFLICTED, True): "becfec76a48474c9a27fdb09d8eacade614ce25986a7db52100b95f42afab3fe",
    }
    for (path, dot), digest in digests.items():
        assert main(["dump-lts", path] + (["--dot"] if dot else [])) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (path, dot)


def test_dump_lts_lists_a_repeated_box_and_watch_once(tmp_path, capsys):
    # a box and a watch written twice verbatim are one line each, as when
    # the state kept them in frozensets
    path = tmp_path / "repeated.rcl"
    path.write_text(
        "agents a, b;\nactions x, y;\n{a,b}[x]({a,b}O(y));\n{a,b}[x]({a,b}O(y));\n"
        "{a,b}[!y]*({a,b}O(x)) & {a,b}[!y]*({a,b}O(x));\n"
    )
    digests = {
        False: "06311e0bdaa7fd2a90b5c71871ed6afbe3dbcba2f2f19f38360303f045ef6f88",
        True: "06cf9f496439ab9bd41630330c035502d3e94be81e99641156e5d1e3df3849c0",
    }
    for dot, digest in digests.items():
        assert main(["dump-lts", str(path)] + (["--dot"] if dot else [])) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, dot


def test_dump_lts_refuses_more_events_than_the_limit(tmp_path, capsys):
    # 2^17 states; refused before any is built
    events = MAX_LTS_EVENTS + 1
    path = tmp_path / "chain.rcl"
    path.write_text(
        "agents a, b;\nactions " + ", ".join(f"x{i}" for i in range(events)) + ";\n"
        + "".join(f"{{a,b}}[x{i}](" for i in range(events - 1))
        + f"{{a,b}}O(x{events - 1})" + ")" * (events - 1) + ";\n"
    )
    assert main(["dump-lts", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"rclc: error: the transition system of {events} events has 2^{events} states; "
        f"listing it is limited to {MAX_LTS_EVENTS} events\n"
    )
    assert main(["check", str(path)]) == 0


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


def test_long_conjunction_reports_its_conflicts(tmp_path, capsys):
    # a 1200-clause statement puts 1200 clauses side by side in the
    # contract's tuple; the tree is one level deep
    path = tmp_path / "wide.rcl"
    path.write_text(
        "agents a, b;\nactions x;\n"
        + " & ".join(["{a,b}O(x)"] * 1200) + ";\n{a,b}F(x);\n"
    )
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("is both obliged and forbidden to x") == 1200
    assert "1200 conflict(s)" in out


def _wide_guard(tmp_path, body, rest=""):
    path = tmp_path / "wide_guard.rcl"
    path.write_text(
        "agents b, s;\nactions go, pay, q;\n{b,s}[q](" + " & ".join(body) + ");\n" + rest
    )
    return str(path)


def test_long_conjunction_in_a_guard_lowers_dumps_and_reparses(tmp_path, capsys):
    path = _wide_guard(tmp_path, ["{b,s}O(pay)"] + ["{s,b}P(go)"] * 1199)
    assert main(["gen", path]) == 0
    assert capsys.readouterr().out.count("function pay()") == 1
    assert main(["dump-lts", path]) == 0
    assert capsys.readouterr().out.startswith("lts states=8 transitions=12 events=3\n")
    assert main(["dump-ast", path]) == 0
    out = capsys.readouterr().out
    result = parse_contract(out)
    assert result.ok
    assert len(result.contract.clauses[0].body) == 1200


def test_long_conjunction_in_a_guard_reports_a_conflict(tmp_path, capsys):
    path = _wide_guard(tmp_path, ["{b,s}O(pay)"] * 1200, "{b,s}O(go) & {b,s}F(go);\n")
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("is both obliged and forbidden to go") == 1
    assert "1 conflict(s)" in out


def test_dump_ast_writes_each_top_level_clause_as_a_statement(tmp_path, capsys):
    path = tmp_path / "and.rcl"
    path.write_text("agents a, b;\nactions x;\n{a,b}O(x) & {a,b}P(x);\n")
    assert main(["dump-ast", str(path)]) == 0
    assert capsys.readouterr().out == (
        "agents a, b;\nactions x;\n\n{a,b} O(x);\n{a,b} P(x);\n"
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


def test_gen_reserved_role_name_exits_2(tmp_path, capsys):
    src = tmp_path / "role.rcl"
    src.write_text("agents a, b;\nactions x, y;\nrole a = state;\n{a,b}[x]({b,a}O(y));\n")
    code = main(["gen", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot lower: agent a's role name 'state' is reserved" in captured.err


def test_repeated_obligation_emits_one_function(tmp_path, capsys):
    src = tmp_path / "twice.rcl"
    src.write_text("agents b, s;\nactions go, pay;\n{b,s}[go]({b,s}O(pay) & {b,s}O(pay));\n")
    assert main(["gen", str(src)]) == 0
    assert capsys.readouterr().out.count("function pay()") == 1
    src.write_text(
        "agents b, s;\nactions go, x, pay;\n"
        "{b,s}[go]({b,s}O(x) & {b,s}[x]({b,s}O(pay)) & {b,s}O(pay));\n"
    )
    script = tmp_path / "script.txt"
    script.write_text("b go\n")
    for command in (["gen", str(src)], ["sim", str(src), "--script", str(script)]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot lower: {b,s} pay is obliged under two different guards" in captured.err


def test_generated_names_must_be_valid_solidity(tmp_path, capsys):
    src = tmp_path / "names.rcl"
    src.write_text(
        'agents b, s;\nactions go, pay;\nrole b = "buyer x";\nstate {b,s}go = while;\n'
        'func {b,s}pay = "do it";\ncontract if;\n{b,s}[go]({b,s}O(pay));\n'
    )
    for command in ("check", "gen", "dump-ast", "dump-lts"):
        assert main([command, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "role annotation value 'buyer x' is not an identifier" in captured.err
        assert "func annotation value 'do it' is not an identifier" in captured.err

    src.write_text("agents b, s;\nactions go, pay;\nstate {b,s}go = while;\n"
                   "contract if;\n{b,s}[go]({b,s}O(pay));\n")
    assert main(["gen", str(src)]) == 2
    assert "contract name 'if' is reserved" in capsys.readouterr().err

    src.write_text(src.read_text().replace("contract if;", "contract Deal;"))
    assert main(["gen", str(src)]) == 0
    out = capsys.readouterr().out
    assert "contract Deal {" in out
    assert "        while2,\n" in out


_NOISE = ["{", "}", "[", "]", "(", ")", ",", ";", "*", "=", "&", "!",
          "O", "F", "P", "role", "payable", "state", "buyer", "bank"]


@st.composite
def _token_streams(draw):
    """A header for 2-3 agents and at most 3 actions, an optional role
    annotation, then well-formed clauses; a few tokens are then inserted
    or deleted at random and the stream is cut at 60 tokens."""
    agents = ["a", "b", "c"][: draw(st.integers(2, 3))]
    actions = ["x", "pay", "z"][: draw(st.integers(1, 3))]

    def clause(depth):
        performer, counterparty = draw(st.permutations(agents))[:2]
        pair = ["{", performer, ",", counterparty, "}"]
        kind = draw(st.sampled_from("OFP[" if depth else "OFP"))
        action = draw(st.sampled_from(actions))
        if kind != "[":
            return pair + [kind, "(", action, ")"]
        head = pair + ["["] + draw(st.sampled_from([[], ["!"]])) + [action, "]"]
        head += draw(st.sampled_from([[], ["*"]])) + ["("]
        body = clause(depth - 1)
        if draw(st.booleans()):
            body += ["&"] + clause(depth - 1)
        return head + body + [")"]

    tokens = ["agents", *" , ".join(agents).split(), ";",
              "actions", *" , ".join(actions).split(), ";"]
    if draw(st.booleans()):
        tokens += ["role", draw(st.sampled_from(agents)), "=",
                   draw(st.sampled_from(agents + actions + ["state", "buyer", "bank"])), ";"]
    for _ in range(draw(st.integers(1, 4))):
        tokens += clause(draw(st.integers(0, 2))) + [";"]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()):
            tokens.insert(at, draw(st.sampled_from(_NOISE + agents + actions)))
        else:
            del tokens[at:at + 1]
    return " ".join(tokens[:60])


@settings(max_examples=200, deadline=None)
@given(_token_streams())
def test_fuzz_cli_over_token_streams(src):
    assert isinstance(parse_contract(src), ParseResult)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.rcl")
        Path(path).write_text(src)
        for command in ("check", "gen"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, path])
            assert code in (0, 1, 2), (command, src)
            assert "internal error" not in err.getvalue(), (command, src)


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


def test_sim_non_ascii_digit_value_exits_2(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("b buyProduct value=²\n")
    code = main(["sim", FIXED, "--script", str(script)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "rclc: error: script line 1: expected value=<n>, found 'value=²'\n"


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
