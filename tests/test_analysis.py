"""One analysed contract: `ContractSemantics` validates once, every CLI
command builds exactly one, and `check`, `lower` and `co_simulate` give
the same answers for a `ContractSemantics` as for its `Contract`."""

import random
from pathlib import Path

import pytest

import rclc.cli
import rclc.semantics
from rclc.ast import validate
from rclc.checker import check
from rclc.cli import main
from rclc.codegen import LowerError, emit_solidity, lower
from rclc.parser import parse_contract
from rclc.semantics import ContractSemantics, InvalidContract
from rclc.simulator import co_simulate, parse_script, run_script

from contractgen import random_contract, random_flow, random_lowerable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXED = str(FIXTURES / "purchase_fixed.rcl")
CONFLICTED = str(FIXTURES / "purchase_conflicted.rcl")
SCRIPTS = FIXTURES / "scripts"
AMOUNTS = ["--amount", "paymentAmount=100", "--amount", "shippingCosts=10"]


def parsed(src):
    result = parse_contract(src)
    assert result.ok, [str(e) for e in result.errors]
    return result.contract


# -- one validation per command -----------------------------------------

COMMANDS = {
    "check": (["check", FIXED], 0),
    "check-conflicted": (["check", CONFLICTED, "--format", "json"], 1),
    "gen": (["gen", FIXED], 0),
    "gen-refused": (["gen", CONFLICTED], 1),
    "gen-fidelity": (["gen", CONFLICTED, "--allow-conflicts", "--fidelity-internal-calls"], 0),
    "sim": (["sim", FIXED, "--script", str(SCRIPTS / "corrected_run.txt"), *AMOUNTS], 0),
    "sim-conflicted": (["sim", CONFLICTED, "--allow-conflicts",
                        "--script", str(SCRIPTS / "conflicted_run.txt"), *AMOUNTS], 0),
    "dump-ast": (["dump-ast", FIXED], 0),
    "dump-lts": (["dump-lts", CONFLICTED], 0),
}


@pytest.mark.parametrize("argv, code", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_validates_once(argv, code, monkeypatch, capsys):
    validated, built = [], []
    original_init = ContractSemantics.__init__

    def counted_validate(contract):
        validated.append(contract)
        return validate(contract)

    def counted_init(self, contract):
        built.append(contract)
        original_init(self, contract)

    # both bindings the benchmark's tracer wraps: the CLI's must stay unused
    monkeypatch.setattr(rclc.semantics, "validate", counted_validate)
    monkeypatch.setattr(rclc.cli, "validate", counted_validate)
    monkeypatch.setattr(ContractSemantics, "__init__", counted_init)
    assert main(argv) == code
    capsys.readouterr()
    assert len(validated) == 1
    assert len(built) == 1
    assert validated[0] is built[0]


# -- the two argument forms agree ----------------------------------------

def _contracts():
    contracts = [parsed((FIXTURES / name).read_text())
                 for name in ("purchase_fixed.rcl", "purchase_conflicted.rcl")]
    rng = random.Random(1218)
    contracts += [random_contract(rng) for _ in range(30)]
    contracts += [random_lowerable(rng) for _ in range(30)]
    contracts += [random_flow(rng) for _ in range(30)]
    return contracts


def _report(report):
    return report.conflicts, report.stats.states, report.stats.transitions


def _lowered(contract, **options):
    """What `lower` gives: the IR, its warnings and its Solidity, or the
    refusal with its report."""
    try:
        ir = lower(contract, **options)
    except LowerError as exc:
        return "refused", str(exc), exc.report and _report(exc.report)
    return ir, ir.warnings, emit_solidity(ir)


def _greedy_world(ir):
    """Each function called once by each role's account, in IR order; the
    call value is the function's amount when it has one."""
    amounts = {param: 3 for param in ir.params}
    script = [
        (account, fn.name, amounts[fn.value_guard] if fn.value_guard else 0)
        for fn in ir.functions
        for _role, account in ir.roles
    ]
    world, _records = run_script(ir, script, {r: a for r, a in ir.roles}, amounts)
    return world


def test_check_lower_and_co_simulate_agree_on_both_argument_forms():
    conflicted = lowered = 0
    for contract in _contracts():
        sem = ContractSemantics(contract)
        assert sem.contract is contract
        report = check(contract)
        assert _report(check(sem)) == _report(report)
        conflicted += bool(report.conflicts)
        for fidelity in (False, True):
            options = {"fidelity_internal_calls": fidelity}
            assert _lowered(sem, **options) == _lowered(contract, **options)
            options["allow_conflicts"] = True
            ir = _lowered(contract, **options)
            assert _lowered(sem, **options) == ir
            if ir[0] != "refused" and not fidelity:
                lowered += 1
                world = _greedy_world(ir[0])
                assert co_simulate(sem, world) == co_simulate(contract, world)
    # the sample covers conflicted contracts and runs the simulator
    assert conflicted >= 10
    assert lowered >= 60


def test_the_analysed_form_is_not_analysed_again(monkeypatch):
    sem = ContractSemantics(parsed((FIXTURES / "purchase_conflicted.rcl").read_text()))
    monkeypatch.setattr(ContractSemantics, "__init__", None)  # building one now fails
    assert ContractSemantics.of(sem) is sem
    check(sem)
    ir = lower(sem, allow_conflicts=True)
    script = parse_script((SCRIPTS / "conflicted_run.txt").read_text())
    world, _records = run_script(ir, script, {r: a for r, a in ir.roles},
                                 {"paymentAmount": 100, "shippingCosts": 10})
    assert co_simulate(sem, world) == []  # the freight call reverts; no step diverges


def test_warnings_are_the_ones_validate_reports():
    for contract in _contracts():
        assert list(ContractSemantics(contract).warnings) == validate(contract)
    sem = ContractSemantics(parsed("agents a, b; actions x, y; {a,b}[!x]({a,b}O(x));"))
    assert [w.message for w in sem.warnings] == [
        "negated guard on 'x' written without '*'; treated as the iterated form",
        "action 'y' declared but never used",
    ]


def test_invalid_contract_is_a_value_error_carrying_every_issue():
    contract = parsed("agents a, b; actions x, y; {a,c}O(x) & {a,a}[!x]({a,b}O(x));")
    issues = validate(contract)
    assert [i.severity for i in issues] == ["error", "error", "warning", "warning"]
    with pytest.raises(ValueError) as caught:
        ContractSemantics(contract)
    exc = caught.value
    assert isinstance(exc, InvalidContract)
    assert str(exc) == (
        "contract does not validate: undeclared agent 'c'; "
        "pair relates agent 'a' to itself"
    )
    assert exc.issues == issues
    for stage in (check, lower):
        with pytest.raises(InvalidContract):
            stage(contract)
