"""Command-line front end: check, gen, sim, dump-ast, dump-lts.

Exit codes are a stable contract: 0 means no conflicts (or the command
succeeded), 1 means conflicts were found, 2 means the input could not
be processed at all (parse, validation, or I/O errors, bad flags,
over-deep nesting), the output was closed early (`| head`; quietly, at
the next write) or an internal error stopped the run.
Set RCLC_COLOR=1 to colorize the text conflict report.

The arguments are read against one table, `_COMMANDS`, which gives each
command's handler, help line and options, as the argparse parser it
replaced read them (`tests/reference.py` keeps that parser); importing
and building that parser cost a run more than loading a contract did.
`-h` prints help from the same table and exits 0; a usage error prints
`rclc: error: <what>` and a usage line to stderr and exits 2.

A command validates its input once, into the `ContractSemantics` it works
from, and prints each issue as `path[:line:col]: severity: message`.
It loads only its stages: `gen` imports codegen, `sim` codegen and the
simulator, `dump-lts` the streaming printers of `lts`, and the others
none of these. The stage functions a command calls are names of this
module all the same, bound on first use, so a test or tracer that
replaces `rclc.cli.lower` reaches the command.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

# validate is unused here since ContractSemantics validates, but
# perfbench patches it
from .ast import pretty_print, validate  # noqa: F401
from .checker import check, report_to_json, report_to_text
from .parser import parse_contract
from .semantics import ContractSemantics, InvalidContract

__all__ = ["main"]

# names from codegen, the simulator and lts; the package imports their module
_STAGES = {"LowerError", "emit_solidity", "lower", "SimError", "parse_script",
           "parse_uint256", "render_trace", "run_script", "dump_lts", "lts_to_dot"}


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
    try:
        return parse_uint256(value)
    except ValueError:
        raise _fail(f"bad {what}: value must be an integer in ASCII digits") from None
    except OverflowError:
        raise _fail(f"bad {what}: value must be at most 2**256 - 1") from None


def _cmd_sim(args) -> int:
    _bind("LowerError", "lower", "SimError", "parse_script", "parse_uint256", "run_script",
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


# Each command's handler, help line and options. An option is its flags
# (then a metavar if it takes a value), its destination, its kind, its
# default and its help line. The kind is a switch, a value, a value each
# use appends, a value that must be given, or the tuple of its choices.
_SWITCH, _VALUE, _APPEND, _REQUIRED = "switch", "value", "append", "required"
_HELP = ("-h --help", "help", _SWITCH, False, "show this help and exit")
_LOWERING = (
    ("--allow-conflicts", "allow_conflicts", _SWITCH, False,
     "lower a contract that has conflicts"),
    ("--fidelity-internal-calls", "fidelity_internal_calls", _SWITCH, False,
     "honor inline annotations, reproducing private internal calls"),
)
_COMMANDS = {
    "check": (_cmd_check, "detect obligation/prohibition conflicts",
              (("--format {text,json}", "format", ("text", "json"), "text", "report format"),)),
    "gen": (_cmd_gen, "lower to a state machine and emit Solidity",
            (("-o --output FILE", "output", _VALUE, None, "write the Solidity to FILE"),
             *_LOWERING)),
    "sim": (_cmd_sim, "run a call script against the state machine", (
        ("--script FILE", "script", _REQUIRED, None, "call script file (required)"),
        ("--bind ROLE=ACCOUNT", "bind", _APPEND, None,
         "bind a role to an account (default: the agent id)"),
        ("--amount PARAM=N", "amount", _APPEND, None, "set an amount parameter"),
        ("--balance N", "balance", _VALUE, "1000", "each account's initial balance"),
        *_LOWERING)),
    "dump-ast": (_cmd_dump_ast, "print the canonical source form", ()),
    "dump-lts": (_cmd_dump_lts, "print the reachable transition system",
                 (("--dot", "dot", _SWITCH, False, "emit Graphviz dot"),)),
}
_ABOUT = ("Parse relativized contracts, detect normative conflicts, generate Solidity,"
          " and simulate the result.")


def _classify(word: str, flags: dict):
    """A word as argparse reads it: None for a positional, else the flag it
    names (None if unknown) and the value attached to it (None if none)."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    if word in flags:
        return word, None
    head, eq, tail = word.partition("=")
    if eq and head in flags:
        return head, tail
    if word[1] == "-":  # a unique prefix of a long flag
        hits = [(flag, tail if eq else None) for flag in flags if flag.startswith(head)]
    else:  # a short flag with its value in the same word
        hits = [(word[:2], word[2:])] if word[:2] in flags else []
    if len(hits) > 1:
        raise _fail("ambiguous option: %s could match %s" % (word, ", ".join(dict(hits))))
    if hits:
        return hits[0]
    return None if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word else (None, None)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Read argv against _COMMANDS as argparse did: options before or after
    the input, `--opt value`, `--opt=value`, `-oFILE`, unique prefixes of
    long flags, `--` ending the options, negative numbers as values; an
    unknown option or extra word is refused only if no -h comes. Return the
    arguments, or None once help is printed."""
    name, flags, words, values, late = None, {"-h": _HELP, "--help": _HELP}, argv, {}, []
    found, i, input_at = [_classify(word, flags) for word in argv], 0, None
    try:
        while i < len(words):
            word, hit = words[i], found[i]
            i += 1
            if hit is None and name is None:  # the command, which reads the words after it
                if word not in _COMMANDS:
                    raise _fail("argument command: invalid choice: %r" % word)
                name, words, i, options = word, words[i:], 0, _COMMANDS[word][2]
                flags = {flag: option for option in (*options, _HELP)
                         for flag in option[0].split() if flag[0] == "-"}
                values = {option[1]: option[3] for option in options}
                # argparse reads every word before it takes one, so an
                # ambiguous prefix is refused first; after `--` all are positional
                end = words.index("--") if "--" in words else len(words)
                found = [_classify(word, flags) for word in words[:end]]
                found += [False] + [None] * len(words)
            elif hit is False:  # `--`, taken in by an input beside it
                if input_at not in (None, i - 2):
                    late.append(word)
            elif hit is None and input_at is None:
                values["input"], input_at = word, i - 1
            elif hit is None or hit[0] is None:
                late.append(word)
            else:
                flag, value = hit
                while flags[flag][2] == _SWITCH:  # and the short flags after it, as in -ho FILE
                    values[flags[flag][1]] = True
                    if value is None:
                        break
                    if flag[1] == "-" or not value or "-" + value[0] not in flags:
                        raise _fail("argument %s: ignored explicit argument %r" % (flag, value))
                    flag, value = "-" + value[0], value[1:] or None
                _spec, dest, kind, _default, _text = flags[flag]
                if kind != _SWITCH:
                    if value is None:
                        if i == len(words) or found[i] is not None:
                            raise _fail("argument %s: expected one argument" % flag)
                        value, i = words[i], i + 1
                    if type(kind) is tuple and value not in kind:
                        raise _fail("argument %s: invalid choice: %r" % (flag, value))
                    values[dest] = [*(values[dest] or ()), value] if kind == _APPEND else value
                if values.pop("help", False):
                    print(_help(name), end="")
                    return None
        missing = ["command"] if name is None else ["input"] * (input_at is None) + [
            option[0].split()[0] for option in options
            if option[2] == _REQUIRED and values[option[1]] is None]
        if missing:
            raise _fail("the following arguments are required: " + ", ".join(missing))
        if late:
            raise _fail("unrecognized arguments: " + " ".join(late))
    except _Bail:
        print("usage: rclc %s [options] <input>" % (name or "<command>"), file=sys.stderr)
        raise
    return SimpleNamespace(command=name, **values)


def _help(name: str | None) -> str:
    """The help of a command, or of rclc when `name` is None."""
    _fn, line, rows = _COMMANDS[name] if name else (None, _ABOUT, [
        (command, None, None, None, entry[1]) for command, entry in _COMMANDS.items()])
    return "usage: rclc %s [options] <input>\n\n%s\n\n%s:\n" % (
        name or "<command>", line, "options" if name else "commands") + "".join(
        "  %-28s%s%s\n" % (row[0], row[4], " (default: %s)" % row[3] if row[3] else "")
        for row in (*rows, _HELP))


def main(argv=None) -> int:
    # a check prints `.stats.states`, 2**n for n events, in full; where the
    # interpreter limits int -> str to 4300 digits, the run lifts the limit
    # and gives it back (the value readers take at most 78 digits)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        code = 0 if args is None else _COMMANDS[args.command][0](args)
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
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
