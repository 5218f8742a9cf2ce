"""Command-line front end: check, gen, sim, dump-ast, dump-lts.

Exit codes are a stable contract: 0 means no conflicts (or the command
succeeded), 1 means conflicts were found, 2 means the input could not
be processed at all (parse, validation, or I/O errors, bad flags,
over-deep nesting) or an internal error stopped the run.
Set RCLC_COLOR=1 to colorize the text conflict report.

A command loads only its stages: `gen` imports codegen, `sim` codegen and
the simulator, and the others neither. The stage functions a command
calls are names of this module all the same, bound on first use, so a
test or tracer that replaces `rclc.cli.lower` reaches the command.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ast import Contract, pretty_print, validate
from .checker import check, report_to_json, report_to_text
from .parser import parse_contract
from .semantics import dump_lts, enumerate_reachable, lts_to_dot

__all__ = ["main"]

# names from codegen and the simulator; the package imports their module
_STAGES = {"LowerError", "emit_solidity", "lower", "SimError", "parse_script",
           "render_trace", "run_script"}


def __getattr__(name: str):
    if name not in _STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _bind(*names: str) -> None:
    """Bind stage names a command is about to call; a name already bound,
    by an earlier command or from outside, is kept."""
    for name in names:
        if name not in globals():
            __getattr__(name)


class _Bail(Exception):
    """Carries an exit code out of helper functions."""

    def __init__(self, code: int):
        self.code = code


def _fail(message: str) -> _Bail:
    print(f"rclc: error: {message}", file=sys.stderr)
    return _Bail(2)


def _read(path: str) -> str:
    """The file's text: UTF-8 after an optional byte-order mark, with
    CRLF and CR line ends read as LF, as text mode reads them."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _fail(
            f"cannot read {path}: not valid UTF-8"
            f" (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None
    # what the "utf-8-sig" codec reads, with offsets into the file itself
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(path: str) -> Contract:
    result = parse_contract(_read(path), file=path)
    if not result.ok:
        for error in result.errors:
            print(error, file=sys.stderr)
        raise _Bail(2)
    contract = result.contract
    issues = validate(contract)
    for issue in issues:
        print(f"{path}: {issue.severity}: {issue.message}", file=sys.stderr)
    if any(i.severity == "error" for i in issues):
        raise _Bail(2)
    return contract


def _color_enabled() -> bool:
    return os.environ.get("RCLC_COLOR") == "1"


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
        except OSError as exc:
            raise _fail(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_check(args) -> int:
    contract = _load(args.input)
    report = check(contract)
    if args.format == "json":
        sys.stdout.write(report_to_json(report, file=args.input))
    else:
        sys.stdout.write(
            report_to_text(report, file=args.input, color=_color_enabled())
        )
    return 1 if report.conflicts else 0


def _lower_or_bail(contract: Contract, args):
    try:
        ir = lower(
            contract,
            allow_conflicts=args.allow_conflicts,
            fidelity_internal_calls=getattr(args, "fidelity_internal_calls", False),
        )
    except LowerError as exc:
        if exc.report is None:
            raise _fail(str(exc)) from None
        sys.stderr.write(report_to_text(exc.report, file=args.input, color=False))
        print(
            "rclc: conflicts found; pass --allow-conflicts to proceed anyway",
            file=sys.stderr,
        )
        raise _Bail(1) from None
    for warning in ir.warnings:
        print(f"rclc: warning: {warning}", file=sys.stderr)
    return ir


def _cmd_gen(args) -> int:
    _bind("LowerError", "lower", "emit_solidity")
    contract = _load(args.input)
    ir = _lower_or_bail(contract, args)
    _write_out(emit_solidity(ir), args.output)
    return 0


def _parse_pairs(entries, what: str, value_parser):
    table = {}
    for entry in entries or []:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise _fail(f"bad {what} '{entry}': expected <name>=<value>")
        try:
            table[key] = value_parser(value)
        except ValueError:
            raise _fail(f"bad {what} '{entry}': value must be an integer") from None
    return table


def _cmd_sim(args) -> int:
    _bind("LowerError", "lower", "SimError", "parse_script", "run_script",
          "render_trace")
    contract = _load(args.input)
    ir = _lower_or_bail(contract, args)
    bindings = {role: agent for role, agent in ir.roles}
    bindings.update(_parse_pairs(args.bind, "binding", str))
    amounts = _parse_pairs(args.amount, "amount", int)
    try:
        script = parse_script(_read(args.script))
        world, _records = run_script(
            ir, script, bindings, amounts, initial_balance=args.balance
        )
    except SimError as exc:
        raise _fail(str(exc)) from None
    sys.stdout.write(render_trace(world))
    return 0


def _cmd_dump_ast(args) -> int:
    contract = _load(args.input)
    sys.stdout.write(pretty_print(contract))
    return 0


def _cmd_dump_lts(args) -> int:
    contract = _load(args.input)
    try:
        lts = enumerate_reachable(contract)
    except ValueError as exc:  # over MAX_LTS_EVENTS; the contract is valid
        raise _fail(str(exc)) from None
    if args.dot:
        sys.stdout.write(lts_to_dot(lts))
    else:
        sys.stdout.write(dump_lts(lts))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclc",
        description=(
            "Parse relativized contracts, detect normative conflicts, "
            "generate Solidity, and simulate the result."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="detect obligation/prohibition conflicts")
    p_check.add_argument("input")
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(fn=_cmd_check)

    p_gen = sub.add_parser("gen", help="lower to a state machine and emit Solidity")
    p_gen.add_argument("input")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.add_argument("--allow-conflicts", action="store_true")
    p_gen.add_argument(
        "--fidelity-internal-calls",
        action="store_true",
        help="honor inline annotations, reproducing private internal calls",
    )
    p_gen.set_defaults(fn=_cmd_gen)

    p_sim = sub.add_parser("sim", help="run a call script against the state machine")
    p_sim.add_argument("input")
    p_sim.add_argument("--script", required=True, help="call script file")
    p_sim.add_argument(
        "--bind",
        action="append",
        metavar="ROLE=ACCOUNT",
        help="bind a role to an account (default: the agent id)",
    )
    p_sim.add_argument(
        "--amount",
        action="append",
        metavar="PARAM=N",
        help="set an amount parameter",
    )
    p_sim.add_argument("--balance", type=int, default=1000)
    p_sim.add_argument("--allow-conflicts", action="store_true")
    p_sim.add_argument("--fidelity-internal-calls", action="store_true")
    p_sim.set_defaults(fn=_cmd_sim)

    p_ast = sub.add_parser("dump-ast", help="print the canonical source form")
    p_ast.add_argument("input")
    p_ast.set_defaults(fn=_cmd_dump_ast)

    p_lts = sub.add_parser("dump-lts", help="print the reachable transition system")
    p_lts.add_argument("input")
    p_lts.add_argument("--dot", action="store_true", help="emit Graphviz dot")
    p_lts.set_defaults(fn=_cmd_dump_lts)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Bail as bail:
        return bail.code
    except Exception as exc:  # a defect, never "conflicts found"
        import traceback

        traceback.print_exc()
        print(f"rclc: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
