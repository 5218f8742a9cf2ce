"""Command-line behavior: exit codes, output formats, golden equality,
script runs, the color toggle, and the arguments read as argparse read them."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rclc.cli
import rclc.codegen
from rclc.checker import check
from rclc.cli import main
from rclc.lts import MAX_LTS_EVENTS
from rclc.parser import MAX_NESTING, ParseResult, parse_contract
from reference import reference_cli_parser

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


def test_undecodable_contract_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin.rcl"
    bad.write_bytes(b"agents a, b;\n\xff\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"rclc: error: cannot read {bad}: not valid UTF-8 (byte 0xff at offset 13)\n"


def test_undecodable_script_exits_2(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_bytes("b buyProduct value=100\n".encode() + b"s sendProduct \xe9\n")
    code = main(["sim", FIXED, "--script", str(script)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"rclc: error: cannot read {script}: not valid UTF-8 (byte 0xe9 at offset 37)\n"
    )


def _without_wall_time(text):
    return re.sub(r"[0-9.]+ ms$|\"wall_ms\": [0-9.]+", "", text, flags=re.M)


def test_byte_order_mark_is_read_past(tmp_path, capsys):
    # a BOM copy reads like the plain file: same report, columns and exit code
    for plain in (FIXED, CONFLICTED):
        marked = tmp_path / Path(plain).name
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        for fmt in ("json", "text"):
            want = main(["check", plain, "--format", fmt])
            want_out = capsys.readouterr().out.replace(plain, str(marked))
            got = main(["check", str(marked), "--format", fmt])
            got_out = capsys.readouterr().out
            assert (got, _without_wall_time(got_out)) == (want, _without_wall_time(want_out))
    assert ":82:17: conflict:" in got_out
    marked.write_bytes(b"\xef\xbb\xbfagents a b;\nactions x;\n{a,b}O(x);\n")
    assert main(["check", str(marked)]) == 2
    assert capsys.readouterr().err == f"{marked}:1:10: error: expected ';', found 'b'\n"
    script = tmp_path / "script.txt"
    script.write_bytes(b"\xef\xbb\xbf" + (SCRIPTS / "corrected_run.txt").read_bytes())
    sim = ["sim", FIXED, "--amount", "paymentAmount=100", "--amount", "shippingCosts=10",
           "--script"]
    assert main(sim + [str(SCRIPTS / "corrected_run.txt")]) == 0
    want_trace = capsys.readouterr().out
    assert main(sim + [str(script)]) == 0
    assert capsys.readouterr().out == want_trace


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rcl"
    bad.write_text("agents a, b;\nactions x;\n{a,b}Q(x);\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: expected" in err
    assert "bad.rcl:3:6" in err


def test_annotation_pair_on_an_agent_name_exits_2(tmp_path, capsys):
    bad = tmp_path / "pairrole.rcl"
    bad.write_text("agents a, b;\nactions x;\nrole {a,b} a = buyer;\n{a,b}O(x);\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:3:6: error: expected name, found '{{'" in err


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "selfpair.rcl"
    bad.write_text("agents a, b;\nactions x;\n{a,a}O(x);\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


WARNED = """agents a, b;
actions x, y, z;
{a,b}O(x);
{a,b}[y]*({a,b}O(x));
{a,b}[!x]({b,a}F(y));
"""

MIXED = """agents a, b, a;
actions x, y, z;
role c = buyer;
{a,b}O(x);
{a,c}[y]*({a,a}O(w));
"""


def test_validation_warnings_print_their_positions(tmp_path, capsys):
    path = tmp_path / "warned.rcl"
    path.write_text(WARNED)
    want = (
        f"{path}:4:1: warning: positive iterated guard on 'y': body activates when the "
        "action fires and then stays in force\n"
        f"{path}:5:1: warning: negated guard on 'x' written without '*'; treated as the "
        "iterated form\n"
        f"{path}: warning: action 'z' declared but never used\n"
        f"{path}:4:1: warning: action 'y' is watched here but is never the subject of any "
        "box or obligation, so the guard can never be discharged\n"
    )
    for command in ("check", "dump-ast", "dump-lts"):
        assert main([command, str(path)]) == 0, command
        assert capsys.readouterr().err == want, command


def test_validation_errors_and_warnings_print_in_order_with_positions(tmp_path, capsys):
    path = tmp_path / "mixed.rcl"
    path.write_text(MIXED)
    want = (
        f"{path}:1:14: error: duplicate agent 'a'\n"
        f"{path}:5:1: error: undeclared agent 'c'\n"
        f"{path}:5:1: warning: positive iterated guard on 'y': body activates when the "
        "action fires and then stays in force\n"
        f"{path}:5:11: error: pair relates agent 'a' to itself\n"
        f"{path}:5:11: error: undeclared action 'w'\n"
        f"{path}: warning: action 'z' declared but never used\n"
        f"{path}:5:1: warning: action 'y' is watched here but is never the subject of any "
        "box or obligation, so the guard can never be discharged\n"
        f"{path}: error: annotation refers to undeclared agent 'c'\n"
    )
    for command in ("check", "gen", "dump-ast", "dump-lts"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.err == want, command
        assert captured.out == "", command


def test_inline_annotation_with_undeclared_names_exits_2(tmp_path, capsys):
    # `inline` names an action like `state` or `flag` does, so the same
    # undeclared names are the same validation errors
    path = tmp_path / "inline.rcl"
    path.write_text("agents a, b;\nactions go, pay;\ninline {a,zz} nothing;\n"
                    "{a,b}[go]({a,b}O(pay));\n")
    want = (
        f"{path}: error: inline annotation refers to undeclared action 'nothing'\n"
        f"{path}: error: inline annotation refers to undeclared agent 'zz'\n"
    )
    for argv in (["check", str(path)], ["gen", str(path), "--fidelity-internal-calls"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == want, argv
        assert captured.out == "", argv


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_prints_the_state_count_of_a_box_over_15000_obligations(fmt, tmp_path, capsys):
    # 2**15001 states take 4516 digits, past the interpreter's default limit
    # on int -> str of 4300; the test reads them as text, under that limit
    n = 15000
    path = tmp_path / "box.rcl"
    path.write_text(
        "agents a, b;\nactions x, " + ", ".join(f"y{i}" for i in range(n)) + ";\n"
        "{a,b}[x](" + " & ".join(f"{{b,a}}O(y{i})" for i in range(n)) + ");\n"
    )
    assert main(["check", "--format", fmt, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "json":
        stats = json.loads(captured.out, parse_int=str)["stats"]
        states, transitions = stats["states"], stats["transitions"]
    else:
        states, transitions = re.fullmatch(
            r"no conflicts, (\d+) states, (\d+) transitions, [0-9.]+ ms\n", captured.out
        ).groups()
    tail = 10**18
    assert len(states) == 4516 and int(states[-18:]) == pow(2, n + 1, tail)
    assert len(transitions) > 4516 and int(transitions[-18:]) == (n + 1) * pow(2, n, tail) % tail


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str limit")
def test_main_lifts_the_digit_limit_for_the_run_and_restores_it(monkeypatch, capsys):
    seen = []

    def spy(contract):
        seen.append(sys.get_int_max_str_digits())
        raise RuntimeError("boom")

    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        for argv, want in ((["check", FIXED], 0), (["check", "no_such.rcl"], 2), (["check"], 2)):
            assert main(argv) == want, argv
            assert sys.get_int_max_str_digits() == 5000, argv
        monkeypatch.setattr(rclc.cli, "check", spy)
        assert main(["check", FIXED]) == 2  # an internal error
        assert seen == [0] and sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    assert "rclc: internal error: RuntimeError('boom')" in capsys.readouterr().err


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

    def initial_state():
        assert main(["dump-lts", str(path)]) == 0
        return capsys.readouterr().out.split("state 1 ")[0]

    initial = initial_state()
    assert initial.count("  box {a,b} x\n") == initial.count("  watch [!y]*\n") == 1
    # a box or watch on the same guard with another body is another line
    for clauses, line in (
        ("{a,b}[x]({a,b}O(y));\n{a,b}[x]({a,b}O(z));\n", "  box {a,b} x\n"),
        ("{a,b}[!y]*({a,b}O(x)) & {a,b}[!y]*({a,b}O(z));\n", "  watch [!y]*\n"),
    ):
        path.write_text("agents a, b;\nactions x, y, z;\n" + clauses)
        assert initial_state().count(line) == 2, clauses


def test_a_reader_that_closes_the_pipe_early_ends_dump_lts_quietly_with_exit_2():
    # the listing streams, so the write after the reader leaves fails;
    # that is an I/O error, not an internal one, and leaves no traceback
    # nor a flush error at interpreter exit
    run = subprocess.Popen(
        [sys.executable, "-m", "rclc.cli", "dump-lts", CONFLICTED],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")},
    )
    first = run.stdout.readline()
    run.stdout.close()
    _out, err = run.communicate(timeout=60)
    assert run.returncode == 2
    assert first == b"lts states=8192 transitions=53248 events=13\n"
    assert err.decode() == (
        f"{CONFLICTED}:102:1: warning: action 'notifyDelivery' is watched here but is "
        "never the subject of any box or obligation, so the guard can never be discharged\n"
    )


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


def test_gen_into_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.sol"
    assert main(["gen", FIXED, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rclc: error: cannot write {out}: No such file or directory\n"


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


def test_dump_ast_of_strings_with_escapes_reparses(tmp_path, capsys):
    # a line break, a quote and a backslash in each kind of string
    path = tmp_path / "escapes.rcl"
    path.write_text(
        "agents a, b;\nactions y;\n"
        'message {a,b}y = "l1\\nl2";\n'
        'rolemsg a = "say \\"hi\\"\\n\\\\ done";\n'
        'statemsg = "\\\\n is not \\n";\n'
        "{a,b}O(y);\n"
    )
    assert main(["dump-ast", str(path)]) == 0
    out = capsys.readouterr().out
    meta = parse_contract(out).contract.meta
    assert meta.messages == {("a", "b", "y"): "l1\nl2"}
    assert meta.rolemsgs == {"a": 'say "hi"\n\\ done'}
    assert meta.statemsg == "\\n is not \n"
    again = tmp_path / "again.rcl"
    again.write_text(out)
    assert main(["dump-ast", str(again)]) == 0
    assert capsys.readouterr().out == out


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


def test_gen_contract_named_like_a_role_exits_2(tmp_path, capsys):
    src = tmp_path / "named.rcl"
    src.write_text("agents a, b;\nactions x, y;\ncontract a;\n{a,b}[x]({b,a}O(y));\n")
    code = main(["gen", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot lower: contract name 'a' is also a role or modifier name" in captured.err


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


def test_chain_links_on_one_event_are_refused(tmp_path, capsys):
    # the second link would declare a second function of the first's name
    src = tmp_path / "relink.rcl"
    src.write_text("agents a, b;\nactions x, y;\n{a,b}[x]({a,b}O(x) & {a,b}[x]({b,a}O(y)));\n")
    script = tmp_path / "script.txt"
    script.write_text("a x\n")
    for command in (["gen", str(src)], ["sim", str(src), "--script", str(script)]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot lower: {a,b} x guards two links of the box chain" in captured.err


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


# values `int` takes but no uint amount or balance can have
_NOT_ASCII_DIGITS = {"negative": "-100", "full-width": "１００", "underscore": "1_00",
                     "space": " 100"}


@pytest.mark.parametrize("value", _NOT_ASCII_DIGITS.values(), ids=_NOT_ASCII_DIGITS.keys())
@pytest.mark.parametrize("option", ["amount", "balance"])
def test_sim_value_not_in_ascii_digits_exits_2(option, value, capsys):
    if option == "amount":
        values, shown = ["--amount", f"paymentAmount={value}"], f"paymentAmount={value}"
    else:
        values, shown = ["--amount", "paymentAmount=100", "--balance", value], value
    code = main(["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt"),
                 "--amount", "shippingCosts=10", *values])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"rclc: error: bad {option} '{shown}': "
                            "value must be an integer in ASCII digits\n")


_HUGE = "9" * 5000  # past int()'s 4300-digit limit


@pytest.mark.parametrize("where", ["script", "amount", "balance"])
def test_sim_value_beyond_uint256_exits_2(where, tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("b buyProduct\n" + (f"b payProduct value={_HUGE}\n" if where == "script" else ""))
    options = {"amount": ["--amount", f"paymentAmount={_HUGE}"], "balance": ["--balance", _HUGE]}
    code = main(["sim", FIXED, "--script", str(script), "--amount", "shippingCosts=10",
                 *options.get(where, ["--amount", "paymentAmount=100"])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    shown = {"script": "script line 2: value=<n>",
             "amount": f"bad amount 'paymentAmount={_HUGE}': value",
             "balance": f"bad balance '{_HUGE}': value"}[where]
    assert captured.err == f"rclc: error: {shown} must be at most 2**256 - 1\n"


def test_sim_takes_values_up_to_uint256(tmp_path, capsys):
    # the largest balance and call value still render, sums included
    top = str(2**256 - 1)
    script = tmp_path / "script.txt"
    script.write_text(f"b buyProduct\nb payProduct value={top}\n")
    code = main(["sim", FIXED, "--script", str(script), "--amount", "shippingCosts=10",
                 "--amount", f"paymentAmount=000{top}", "--balance", top])
    out = capsys.readouterr().out
    assert code == 0
    assert f"call b payProduct value={top} -> OK" in out
    assert "  b = 0\n" in out and f"  s = {top}\n" in out
    assert f"  contract = {top}\n" in out


def test_sim_balance_sets_every_account(capsys):
    code = main(["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt"),
                 "--amount", "paymentAmount=100", "--amount", "shippingCosts=10",
                 "--balance", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "final state: Finalized" in out
    assert "  c = 500\n" in out


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


def test_sim_empty_binding_exits_2(capsys):
    # no script line can name the empty account, so deploy refuses it
    # before the first call rather than at it
    code = main(["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt"),
                 "--bind", "buyer=", "--amount", "paymentAmount=100",
                 "--amount", "shippingCosts=10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "rclc: error: role 'buyer' is bound to '', which no script line can name\n"
    )


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


@pytest.mark.parametrize("option, entry, what", [
    ("--bind", "buyer", "binding"), ("--bind", "=b", "binding"),
    ("--amount", "paymentAmount", "amount"), ("--amount", "=100", "amount"),
])
def test_sim_entry_without_a_name_and_value_exits_2(option, entry, what, capsys):
    code = main(["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt"),
                 "--amount", "shippingCosts=10", option, entry])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"rclc: error: bad {what} '{entry}': expected <name>=<value>\n"


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


# -- the command line against argparse ---------------------------------------

# each command's options as argv groups, one value each, and a second value
# for each option that takes one, to repeat it with
_OPTIONS = {
    "check": [["--format", "json"]],
    "gen": [["-o", "out.sol"], ["--allow-conflicts"], ["--fidelity-internal-calls"]],
    "sim": [["--script", "run.txt"], ["--bind", "buyer=b"], ["--amount", "p=1"],
            ["--balance", "7"], ["--allow-conflicts"], ["--fidelity-internal-calls"]],
    "dump-ast": [],
    "dump-lts": [["--dot"]],
}
_AGAIN = {"--format": "text", "-o": "other.sol", "--script": "other.txt",
          "--bind": "seller=s", "--amount": "q=2", "--balance": "9"}
_SCRIPT = ["--script", "run.txt"]

# the cases argparse was checked on, and a few more shapes of each
_ACCEPTED = [
    ["check", "--format", "json", "in.rcl"], ["check", "in.rcl", "--format", "json"],
    ["check", "--format=json", "in.rcl"], ["check", "--form=json", "in.rcl"],
    ["check", "--f", "text", "in.rcl"], ["check", "-5"], ["check", "-1.5"], ["check", "-.5"],
    ["check", "--", "-x.rcl"], ["check", "--format", "json", "--", "-x.rcl"],
    ["check", "in.rcl", "--"], ["check", "--", "--format"],
    ["gen", "-o", "out.sol", "in.rcl"], ["gen", "-oout.sol", "in.rcl"],
    ["gen", "-o=out.sol", "in.rcl"], ["gen", "--output=out.sol", "in.rcl"],
    ["gen", "--out", "out.sol", "in.rcl"], ["gen", "-o", "-5", "in.rcl"],
    ["gen", "--allow", "in.rcl"], ["gen", "--f", "in.rcl"], ["gen", "in.rcl", "--fid", "--al"],
    ["sim", "in.rcl", "--script", "run.txt", "--balance", "-5"],
    ["sim", "in.rcl", "--script=run.txt", "--balance=-5"],
    ["sim", "in.rcl", "--scr", "run.txt", "--bi", "r=a", "--am", "p=1", "--bal", "3"],
    ["sim", "in.rcl", *_SCRIPT, "--bind", "r=a", "--bind", "s=b", "--amount", "p=1",
     "--amount", "q=2", "--amount=r=3"],
    ["sim", "in.rcl", "--script", "a.txt", "--script", "b.txt", "--balance", "1",
     "--balance", "2"],
    ["sim", "in.rcl", "--script", ""], ["sim", "in.rcl", "--script", "-"],
    ["dump-lts", "--dot", "in.rcl"], ["dump-lts", "--d", "in.rcl", "--dot"],
    ["dump-ast", "-"],
]
_REFUSED = [
    [], ["bogus", "in.rcl"], ["--format", "json"], ["check"], ["check", "--"],
    ["check", "a.rcl", "b.rcl"], ["check", "--", "a.rcl", "b.rcl"],
    ["check", "--bogus", "in.rcl"], ["check", "-x", "in.rcl"],
    ["gen", "--o", "in.rcl"], ["sim", "in.rcl", *_SCRIPT, "--b", "x"],
    ["sim", "in.rcl", *_SCRIPT, "--a", "x=1"], ["sim", "in.rcl", "--script"],
    ["sim", "in.rcl", "--script", "--x"], ["sim", "in.rcl", "--script", "--bind", "r=a"],
    ["gen", "in.rcl", "-o"], ["gen", "in.rcl", "-o", "--allow-conflicts"],
    ["check", "--format", "xml", "in.rcl"], ["check", "--format=JSON", "in.rcl"],
    ["check", "--format=", "in.rcl"], ["sim", "in.rcl"], ["sim", "in.rcl", "--bind", "r=a"],
    ["dump-lts", "--dot=x", "in.rcl"], ["dump-lts", "--dot=", "in.rcl"],
    ["gen", "--allow-conflicts=yes", "in.rcl"], ["dump-ast", "--dot", "in.rcl"],
    ["check", "--help=x"], ["--help=x"], ["--x", "check", "in.rcl"],
]
_HELPED = [
    ["-h"], ["--help"], ["--he"], ["-h", "bogus"], ["--x", "-h"],
    *([command, "-h"] for command in _OPTIONS), ["sim", "--help"], ["sim", "--he"],
    ["sim", "in.rcl", "-h"], ["check", "a.rcl", "b.rcl", "-h"], ["check", "--bogus", "-h"],
    ["check", "-h", "--format", "xml"], ["gen", "-h", "-o"], ["gen", "in.rcl", "-ho", "x"],
]


def _each_command_and_option():
    """Each command bare, with each option alone and repeated, with all of
    them, and with all of them and the input in many orders."""
    rng = random.Random(25)
    for command, options in _OPTIONS.items():
        required = [] if command != "sim" else [_SCRIPT]
        yield [command, "in.rcl", *itertools.chain(*required)]
        for group in options:
            again = group[:1] + [_AGAIN[group[0]]] if len(group) > 1 else group
            for use in ([group], [group, again]):
                yield [command, "in.rcl", *itertools.chain(*required, *use)]
        groups = options + [["in.rcl"]]
        orders = list(itertools.permutations(groups))
        for order in rng.sample(orders, min(len(orders), 120)):
            yield [command, *itertools.chain(*order)]


def _argparse_reading(argv):
    """The parent's argparse parser on argv: the values of every
    destination, or the exit code it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = reference_cli_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
    values = vars(namespace)
    assert rclc.cli._COMMANDS[values["command"]][0] is values.pop("fn")
    return values


def test_arguments_read_as_argparse_read_them(capsys):
    vectors = [*_ACCEPTED, *_each_command_and_option()]
    assert len(vectors) > 200
    for argv in vectors:
        want = _argparse_reading(argv)
        assert isinstance(want, dict), argv
        assert vars(rclc.cli._parse(argv)) == want, argv
    assert capsys.readouterr() == ("", "")


def test_usage_errors_exit_2_as_argparse_did(capsys):
    for argv in _REFUSED:
        assert _argparse_reading(argv) == 2, argv
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert len(re.findall("^rclc: error: ", err, re.M)) == 1, (argv, err)
        assert re.search(r"^usage: rclc \S+ \[options\] <input>$", err, re.M), err
        assert "Traceback" not in err


def test_a_double_dash_away_from_the_input_is_refused(capsys):
    # argparse counts a `--` that does not stand beside the input as an
    # extra word
    assert main(["dump-lts", "in.rcl", "--dot", "--"]) == 2
    assert capsys.readouterr().err.endswith("rclc: error: unrecognized arguments: --\n"
                                            "usage: rclc dump-lts [options] <input>\n")


def test_help_exits_0_as_argparse_did(capsys):
    for argv in _HELPED:
        assert _argparse_reading(argv) == 0, argv
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith("usage: rclc ") and err == "", argv


def test_help_lists_every_command_and_option(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"\n  {command} " in out for command in _OPTIONS)
    for command, options in _OPTIONS.items():
        assert main([command, "-h"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: rclc {command} [options] <input>\n")
        assert all(f"\n  {group[0]}" in out or f" {group[0]} " in out for group in options)
        assert "-h --help" in out
    assert main(["sim", "-h"]) == 0
    out = capsys.readouterr().out
    assert "--script FILE" in out and "(required)" in out and "(default: 1000)" in out
