"""Command-line front end: check, gen, sim, dump-ast, dump-lts.

Exit codes are a stable contract: 0 means no conflicts (or the command
succeeded), 1 means conflicts were found, 2 means the input could not
be processed at all (parse, validation, or I/O errors, bad flags,
over-deep nesting), the output was closed early (`| head`; quietly, at
the next write) or an internal error stopped the run.
Set RCLC_COLOR=1 to colorize the text conflict report.

A command validates its input once, into the `ContractSemantics` it works
from, and prints each issue as `path[:line:col]: severity: message`.
It loads only its stages: `gen` imports codegen, `sim` codegen and the
simulator, `dump-lts` the streaming printers of `lts`, and the others
none of these. The stage functions a command calls are names of this
module all the same, bound on first use, so a test or tracer that
replaces `rclc.cli.lower` reaches the command.
"""

from __future__ import annotations

import argparse
import os
import sys

# validate is unused here since ContractSemantics validates, but
# perfbench patches it
from .ast import pretty_print, validate  # noqa: F401
from .checker import check, report_to_json, report_to_text
from .parser import parse_contract
from .semantics import ContractSemantics, InvalidContract

__all__ = ["main"]

# names from codegen, the simulator and lts; the package imports their module
_STAGES = {"LowerError", "emit_solidity", "lower", "MAX_VALUE", "SimError", "parse_script",
           "render_trace", "run_script", "dump_lts", "lts_to_dot"}


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


def _load(path: str) -> ContractSemantics:
    result = parse_contract(_read(path), file=path)
    if not result.ok:
        for error in result.errors:
            print(error, file=sys.stderr)
        raise _Bail(2)
    try:
        sem = ContractSemantics(result.contract)
    except InvalidContract as exc:
        sem, issues = None, exc.issues
    else:
        issues = sem.warnings
    for issue in issues:  # a span is set on a clause or declaration issue
        where = f"{path}:{issue.span}" if issue.span.line else path
        print(f"{where}: {issue.severity}: {issue.message}", file=sys.stderr)
    if sem is None:
        raise _Bail(2)
    return sem


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
    report = check(_load(args.input))
    if args.format == "json":
        sys.stdout.write(report_to_json(report, file=args.input))
    else:
        color = os.environ.get("RCLC_COLOR") == "1"
        sys.stdout.write(report_to_text(report, file=args.input, color=color))
    return 1 if report.conflicts else 0


def _lower_or_bail(sem: ContractSemantics, args):
    try:
        ir = lower(
            sem,
            allow_conflicts=args.allow_conflicts,
            fidelity_internal_calls=args.fidelity_internal_calls,
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
    ir = _lower_or_bail(_load(args.input), args)
    _write_out(emit_solidity(ir), args.output)
    return 0


def _parse_pairs(entries, what: str, value_parser=None):
    table = {}
    for entry in entries or []:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise _fail(f"bad {what} '{entry}': expected <name>=<value>")
        table[key] = value_parser(value, f"{what} '{entry}'") if value_parser else value
    return table


def _natural(value: str, what: str) -> int:
    # ASCII digits only, as a script's value=<n>; int() takes '-1', '１' and '1_0'
    if not (value.isascii() and value.isdigit()):
        raise _fail(f"bad {what}: value must be an integer in ASCII digits")
    digits = value.lstrip("0") or "0"
    # MAX_VALUE has 78 digits, and int() refuses more than 4300
    number = int(digits) if len(digits) <= 78 else MAX_VALUE + 1
    if number > MAX_VALUE:
        raise _fail(f"bad {what}: value must be at most 2**256 - 1")
    return number


def _cmd_sim(args) -> int:
    _bind("LowerError", "lower", "MAX_VALUE", "SimError", "parse_script", "run_script",
          "render_trace")
    ir = _lower_or_bail(_load(args.input), args)
    bindings = {role: agent for role, agent in ir.roles}
    bindings.update(_parse_pairs(args.bind, "binding"))
    amounts = _parse_pairs(args.amount, "amount", _natural)
    balance = _natural(args.balance, f"balance '{args.balance}'")
    try:
        script = parse_script(_read(args.script))
        world, _records = run_script(ir, script, bindings, amounts, initial_balance=balance)
    except SimError as exc:
        raise _fail(str(exc)) from None
    sys.stdout.write(render_trace(world))
    return 0


def _cmd_dump_ast(args) -> int:
    sys.stdout.write(pretty_print(_load(args.input).contract))
    return 0


def _cmd_dump_lts(args) -> int:
    _bind("dump_lts", "lts_to_dot")
    sem = _load(args.input)
    try:
        lines = (lts_to_dot if args.dot else dump_lts)(sem)
    except ValueError as exc:  # over MAX_LTS_EVENTS; the contract is valid
        raise _fail(str(exc)) from None
    sys.stdout.writelines(lines)
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

    def command(name, fn, help):
        """A subcommand reading one contract file, run by `fn`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("input")
        p.set_defaults(fn=fn)
        return p

    p_check = command("check", _cmd_check, "detect obligation/prohibition conflicts")
    p_check.add_argument("--format", choices=["text", "json"], default="text")

    p_gen = command("gen", _cmd_gen, "lower to a state machine and emit Solidity")
    p_gen.add_argument("-o", "--output", default=None)

    p_sim = command("sim", _cmd_sim, "run a call script against the state machine")
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
    p_sim.add_argument("--balance", default="1000", help="each account's initial balance")
    for p in (p_gen, p_sim):
        p.add_argument("--allow-conflicts", action="store_true")
        p.add_argument("--fidelity-internal-calls", action="store_true",
                       help="honor inline annotations, reproducing private internal calls")

    command("dump-ast", _cmd_dump_ast, "print the canonical source form")
    p_lts = command("dump-lts", _cmd_dump_lts, "print the reachable transition system")
    p_lts.add_argument("--dot", action="store_true", help="emit Graphviz dot")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except _Bail as bail:
        return bail.code
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except Exception as exc:  # a defect, never "conflicts found"
        import traceback

        traceback.print_exc()
        print(f"rclc: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
