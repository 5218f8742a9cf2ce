"""The four workloads: inputs, the per-item pipeline, and the output checks.

Each workload is a closed loop from one process, one item at a time. Its
inputs come from the seed alone; the program sees only source text and
call scripts. Outputs are checked after the timed loop against references
that do not come from the code under test: answers planted by the
generators, golden digests, and the fixtures' documented behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys

import gen
import solref
import stats

from rclc.checker import ORACLE_EVENT_BOUND, brute_force_oracle
from rclc.codegen import lower
from rclc.parser import parse_contract
from rclc.semantics import ContractSemantics

FIXED = "fixtures/purchase_fixed.rcl"
CONFLICTED = "fixtures/purchase_conflicted.rcl"
FIXED_SCRIPT = "fixtures/scripts/corrected_run.txt"
CONFLICTED_SCRIPT = "fixtures/scripts/conflicted_run.txt"

# sha256 of fixtures/purchase_{fixed,conflicted}.sol as committed with the
# seed; the emitted Solidity must keep matching them byte for byte.
GOLDEN_SHA256 = {
    FIXED: "2e9fcae12b0ecad4088edd43e58e5c259702da7a11c5a86501cba68150b88c03",
    CONFLICTED: "e17bdb6931867e6f4c5584af4a3da271423125d26f22f203c85b92b309fea1b9",
}
BINDINGS = {"buyer": "b", "seller": "s", "bank": "k", "carrier": "c"}
AMOUNTS = {"paymentAmount": 100, "shippingCosts": 10}
ACCOUNTS = ["b", "s", "k", "c"]
INITIAL_BALANCE = 1000
FREIGHT_MESSAGE = "Frete nao foi pago pelo vendedor a transportadora"
DEEP_NESTING = 1200
# `rclc check` ends its report with the wall time it took
_CHECK_TIME = re.compile(r", [0-9.]+ ms$", re.M)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _event_key(event):
    pair, action = event
    return ((pair.performer, pair.counterparty), action)


def _origin(norm):
    return (norm.origin.line, norm.origin.col)


def _load(api, text: str):
    result = api.parse(text)
    if not result.ok:
        raise ValueError(f"parse failed: {result.errors[0]}")
    issues = api.validate(result.contract)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise ValueError(f"validation failed: {errors[0]}")
    return result.contract


def replay_witnesses(contract, conflicts) -> list[bool]:
    """Replay every witness through the contract's own stepper; True
    where both clashing norms are in force at the end."""
    sem = ContractSemantics(contract)
    held = []
    for conflict in conflicts:
        state = sem.initial_state()
        for event in conflict.witness:
            state = sem.step(state, event)
        held.append(
            conflict.obligation in state.active and conflict.prohibition in state.active
        )
    return held


class Workload:
    """`setup()` builds the inputs; `prologue` runs once at the start of
    the timed loop and `cycle` repeats until the time is up, stopping only
    at a multiple of `round_size` so every run sees the same mix."""

    name = ""
    round_size = 1
    # False when an item is a subprocess; such a workload provides `spawn`
    in_process = True
    # items a run times at the seed; the tail percentile follows from it
    typical_items = 100
    rss_who = "self"

    @property
    def tail_q(self) -> int:
        return stats.tail_percentile(self.typical_items)

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.prologue: list = []
        self.cycle: list = []

    def path(self, relative: str) -> str:
        return os.path.join(self.root, relative)

    def read(self, relative: str) -> str:
        with open(self.path(relative), encoding="utf-8") as f:
            return f.read()

    def units(self, item) -> int:
        return 1

    def summarize(self, out):
        """What the output checks need from one item's output, kept small
        so that holding one per distinct item does not inflate memory."""
        return out

    def fingerprint(self, summary):
        """A hashable digest; a repeated item must reproduce it."""
        return summary

    def known_defect(self, item, problems) -> bool:
        return False


class CheckScaling(Workload):
    """Rounds of two box chains of 8 events, one each of 10 and 12, and
    dense contracts of 9, 11 and 13 events, run through parse -> validate
    -> check -> replay of every witness. Sizes cost 1.5x to 3x apart, so
    the median falls inside the 10-event chains and p90 inside the
    13-event dense contracts rather than between two sizes."""

    name = "check_scaling"
    chain_sizes = (8, 8, 10, 12)
    dense_sizes = (9, 11, 13)
    round_size = len(chain_sizes) + len(dense_sizes)
    rounds = 24

    def setup(self):
        self.cycle = gen.check_corpus(self.seed, self.rounds, self.chain_sizes,
                                      self.dense_sizes)

    def run_item(self, item, api):
        contract = _load(api, item.text)
        report = api.check(contract)
        replayed = api.replay(contract, report.conflicts) if report.conflicts else []
        return report, replayed

    def summarize(self, out):
        report, replayed = out
        return (
            report.stats.states,
            report.stats.transitions,
            tuple((_origin(c.obligation), _origin(c.prohibition),
                   tuple(_event_key(e) for e in c.witness)) for c in report.conflicts),
            tuple(replayed),
        )

    def verify(self, item, summary) -> list[str]:
        states, transitions, conflicts, replayed = summary
        problems = []
        n = item.props["events"]
        if (states, transitions) != (2 ** n, n * 2 ** (n - 1)):
            problems.append(f"state space {states}/{transitions}"
                            f" is not the full lattice over {n} events")
        positions = item.expect["positions"]
        want = {
            (positions[o], positions[f]): fired
            for (o, f), fired in item.expect["conflicts"].items()
        }
        got = {(o, f): witness for o, f, witness in conflicts}
        if set(got) != set(want):
            problems.append(f"conflicts {sorted(got)} != planted {sorted(want)}")
        for key, witness in got.items():
            if key in want and (len(set(witness)) != len(witness)
                                or frozenset(witness) != want[key]):
                problems.append(f"witness {witness} for {key} is not the shortest one")
        clauses = item.expect["clauses"]
        by_position = {pos: leaf for leaf, pos in positions.items()}
        for (o, f), witness in got.items():
            active = gen.active_leaves(clauses, witness)
            if by_position.get(o) not in active or by_position.get(f) not in active:
                problems.append(f"witness {witness} does not replay to the clash")
        if not all(replayed):
            problems.append("a witness did not replay through ContractSemantics.step")
        if n <= ORACLE_EVENT_BOUND:
            oracle = brute_force_oracle(parse_contract(item.text).contract)
            if {_event_key(e) for e in oracle} != item.expect["conflict_keys"]:
                problems.append("planted verdict disagrees with brute_force_oracle")
        return problems


class GenCorpus(Workload):
    """Both fixtures once, then seeded lowerable contracts of at most 8
    events, run through parse -> validate -> check -> lower -> emit."""

    name = "gen_corpus"
    blocks = 6

    def setup(self):
        self.prologue = [
            gen.Item(FIXED, "fixture", self.read(FIXED), {}, {"conflicts": 0}),
            gen.Item(CONFLICTED, "fixture", self.read(CONFLICTED), {}, {"conflicts": 1}),
        ]
        self.cycle = gen.gen_corpus(self.seed, self.blocks)
        self.round_size = len(gen.LOWERABLE_SHAPES)

    def run_item(self, item, api):
        contract = _load(api, item.text)
        report = api.check(contract)
        ir = api.lower(contract, allow_conflicts=item.id == CONFLICTED)
        sol = api.emit(ir)
        return len(report.conflicts), report.stats.states, [f.name for f in ir.functions], sol

    def fingerprint(self, summary):
        conflicts, states, functions, sol = summary
        return conflicts, states, tuple(functions), _sha256(sol)

    def verify(self, item, summary) -> list[str]:
        conflicts, states, functions, sol = summary
        problems = []
        if item.kind == "fixture":
            if conflicts != item.expect["conflicts"]:
                problems.append(f"{conflicts} conflicts, expected {item.expect['conflicts']}")
            if _sha256(sol) != GOLDEN_SHA256[item.id]:
                problems.append("emitted Solidity differs from the golden file")
            return problems
        if conflicts:
            problems.append(f"{conflicts} conflicts in a conflict-free contract")
        if states != item.expect["states"]:
            problems.append(f"{states} states, expected {item.expect['states']}")
        if sorted(functions) != sorted(item.expect["functions"]):
            problems.append(f"functions {functions} != {item.expect['functions']}")
        if f"contract {item.expect['contract']} {{" not in sol:
            problems.append("contract declaration missing")
        for fn in item.expect["functions"]:
            if f"function {fn}(" not in sol:
                problems.append(f"function {fn} missing from the Solidity")
        return problems


class SimLong(Workload):
    """Long call scripts against the lowered fixtures, run through
    parse_script -> run_script -> render_trace -> co_simulate. A round is
    four scripts of `script_len` calls, alternating between the fixed and
    the conflicted fixture, then one of twice that length against the fixed
    one. The median falls among the short scripts, which cost the same on
    both fixtures, and p90 in the middle of the long ones, where the cost
    of a growing log is largest, rather than among the slowest draws of
    the machine's noise."""

    name = "sim_long"
    round_size = 5
    script_len = 4000
    rounds = 6

    def setup(self):
        rng = random.Random(self.seed)
        self.targets = {}
        for path, script, allow in (
            (FIXED, FIXED_SCRIPT, False),
            (CONFLICTED, CONFLICTED_SCRIPT, True),
        ):
            contract = parse_contract(self.read(path), file=path).contract
            ir = lower(contract, allow_conflicts=allow)
            base = gen.parse_script_lines(self.read(script))
            self.targets[path] = (contract, ir, base)
        documented = {
            FIXED: [(True, None)] * len(self.targets[FIXED][2]),
            CONFLICTED: [(True, None)] * (len(self.targets[CONFLICTED][2]) - 1)
            + [(False, FREIGHT_MESSAGE)],
        }
        references = {}
        for path in (FIXED, CONFLICTED):
            sol = self.read(path[:-len(".rcl")] + ".sol")
            if _sha256(sol) != GOLDEN_SHA256[path]:
                raise SystemExit(f"perfbench: the golden Solidity of {path} changed")
            references[path] = solref.Fixture(sol, BINDINGS, AMOUNTS)
            _text, expect, _props = gen.long_script(
                random.Random(0), self.targets[path][2], len(self.targets[path][2]),
                references[path], ACCOUNTS, INITIAL_BALANCE)
            if expect != documented[path]:
                raise SystemExit(f"perfbench: the reference model of {path} disagrees with"
                                 f" the fixture script's documented outcomes")
        self.cycle = []
        for i in range(self.rounds):
            n = self.script_len
            shapes = ((FIXED, n), (CONFLICTED, n), (FIXED, n), (CONFLICTED, n), (FIXED, 2 * n))
            for j, (path, length) in enumerate(shapes):
                text, expect, props = gen.long_script(
                    rng, self.targets[path][2], length, references[path], ACCOUNTS,
                    INITIAL_BALANCE,
                )
                self.cycle.append(gen.Item(f"{path}#{i}.{j}", "script", text, props,
                                           {"target": path, "calls": expect}))

    def units(self, item) -> int:
        return item.props["script_len"]

    def run_item(self, item, api):
        contract, ir, _base = self.targets[item.expect["target"]]
        calls = api.parse_script(item.text)
        world, records = api.run_script(ir, calls, BINDINGS, AMOUNTS, INITIAL_BALANCE)
        trace = api.render(world)
        issues = api.cosim(contract, world)
        return world, records, trace, issues

    def summarize(self, out):
        world, records, trace, issues = out
        return (
            world.current_state,
            sum(balance for _a, balance in world.accounts) + world.contract_balance,
            tuple(issues),
            tuple((r.ok, r.revert_message) for r in records),
            trace.count("-> OK"),
            f"final state: {world.current_state}" in trace,
            _sha256(trace),
        )

    def fingerprint(self, summary):
        return summary[2], summary[-1]

    def verify(self, item, summary) -> list[str]:
        state, total, issues, calls, trace_ok, trace_final, _digest = summary
        problems = []
        want = item.expect["calls"]
        if list(calls) != want:
            first = next((i for i, (g, w) in enumerate(zip(calls, want)) if g != w),
                         min(len(calls), len(want)))
            problems.append(f"call {first} of {len(calls)} differs from the expected"
                            f" {want[first] if first < len(want) else 'end'}")
        final = "Finalized" if item.expect["target"] == FIXED else "PaymentNotified"
        if state != final:
            problems.append(f"final state {state}, expected {final}")
        if issues:
            problems.append(f"co_simulate: {list(issues)}")
        if total != INITIAL_BALANCE * len(ACCOUNTS):
            problems.append(f"balances sum to {total}")
        if trace_ok != item.props["script_ok"] or not trace_final:
            problems.append("the rendered trace disagrees with the run")
        return problems


class FixturesCli(Workload):
    """The README's commands as subprocesses, plus a 1200-deep nested
    clause that must be rejected with exit code 2."""

    name = "fixtures_cli"
    typical_items = 28
    rss_who = "children"
    in_process = False

    def setup(self):
        out_dir = os.path.join(self.root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        deep = os.path.join(out_dir, "deep_nesting.rcl")
        with open(deep, "w", encoding="utf-8") as f:
            f.write(gen.deep_nesting_source(DEEP_NESTING))
        amounts = ["--amount", "paymentAmount=100", "--amount", "shippingCosts=10"]
        p = self.path
        commands = [
            ("check-fixed", ["check", p(FIXED)], 0),
            ("check-conflicted", ["check", p(CONFLICTED)], 1),
            ("gen-fixed", ["gen", p(FIXED)], 0),
            ("gen-conflicted", ["gen", p(CONFLICTED), "--allow-conflicts"], 0),
            ("sim-fixed", ["sim", p(FIXED), "--script", p(FIXED_SCRIPT), *amounts], 0),
            ("sim-conflicted", ["sim", p(CONFLICTED), "--allow-conflicts",
                                "--script", p(CONFLICTED_SCRIPT), *amounts], 0),
            ("deep-nesting", ["check", deep], 2),
        ]
        random.Random(self.seed).shuffle(commands)
        self.cycle = [
            gen.Item(name, "cli", "", {"depth": DEEP_NESTING} if name == "deep-nesting" else {},
                     {"argv": argv, "code": code})
            for name, argv, code in commands
        ]
        self.round_size = len(self.cycle)
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # a first interpreter start outside the timed loop, so that writing
        # bytecode caches in a fresh checkout is set-up, not item latency
        self.spawn([sys.executable, "-c", "import rclc.cli"])

    def spawn(self, argv):
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_item(self, item, api):
        argv = item.expect["argv"]
        if not self.in_process:
            return self.spawn([sys.executable, "-m", "rclc.cli", *argv])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = api.cli_main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # what an uncaught exception does to `rclc`
                print(f"Traceback (most recent call last):\n{type(exc).__name__}",
                      file=sys.stderr)
                code = 1
        return code, out.getvalue(), err.getvalue()

    def summarize(self, out):
        code, stdout, stderr = out
        return code, stdout, (stderr.strip().splitlines()[-1:] or [""])[0]

    def fingerprint(self, summary):
        code, stdout, _last = summary
        return code, _sha256(_CHECK_TIME.sub("", stdout))

    def verify(self, item, summary) -> list[str]:
        code, stdout, last_error = summary
        want = item.expect["code"]
        problems = []
        if code != want:
            problems.append(f"exit code {code}, expected {want}: {last_error[:120]}")
        checks = {
            "check-fixed": ["no conflicts"],
            "check-conflicted": ["1 conflict(s)",
                                 "{c,b} is both obliged and forbidden to deliverProduct"],
            "sim-fixed": ["final state: Finalized"],
            "sim-conflicted": [f'REVERT "{FREIGHT_MESSAGE}"', "final state: PaymentNotified"],
        }
        for needle in checks.get(item.id, ()):
            if needle not in stdout:
                problems.append(f"output lacks {needle!r}")
        if item.id == "sim-fixed" and stdout.count("-> OK") != 12:
            problems.append("not every call of the corrected run succeeded")
        if item.id.startswith("gen-"):
            path = FIXED if item.id == "gen-fixed" else CONFLICTED
            if _sha256(stdout) != GOLDEN_SHA256[path]:
                problems.append("emitted Solidity differs from the golden file")
        return problems

    def known_defect(self, item, problems) -> bool:
        # At the seed a 1200-deep clause overflows the recursive parser and
        # the uncaught RecursionError exits 1, which reads as "conflicts
        # found". The item counts as failed; it does not mark the run as
        # incorrect, so that the run stays usable until the parser is fixed.
        return (
            item.id == "deep-nesting"
            and len(problems) == 1
            and problems[0].startswith("exit code 1,")
            and "RecursionError" in problems[0]
        )


WORKLOADS = {w.name: w for w in (CheckScaling, GenCorpus, SimLong, FixturesCli)}
