"""One analysed contract: every CLI command builds exactly one
`ContractSemantics` and validates its input once, and `check`, `lower`
and `co_simulate` give the same answers for a `ContractSemantics` as for
its `Contract`. Building one runs `validate`, raising `InvalidContract`
exactly when it finds an error. A `Contract`'s fields are read-only
tuples, so what follows from them, its layout and clause table, the
initial state, the check's conflicts and what `validate` finds from the
names and clauses, is built once per `Contract` and shared by `validate`
and every analysis of it, while each analysis checks the annotations
afresh. All of it is unseen: each question answers as on a contract
built afresh, after any change to the annotations too."""

import copy
import random
from pathlib import Path

import pytest

import rclc.ast
import rclc.cli
import rclc.semantics
from rclc.ast import (
    AgentPair,
    Box,
    Contract,
    Decl,
    IterBox,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    iter_clauses,
    validate,
)
from rclc.checker import check
from rclc.cli import main
from rclc.codegen import LowerError, emit_solidity, lower
from rclc.parser import parse_contract
from rclc.semantics import ContractSemantics, InvalidContract, event_universe
from rclc.simulator import co_simulate, parse_script, run_script

from contractgen import (
    merged_contract,
    random_clashing,
    random_contract,
    random_flow,
    random_lowerable,
)

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


# -- every analysis validates its contract ----------------------------------

def _declared(agents, actions, clauses, meta=None):
    return Contract(tuple(map(Decl, agents)), tuple(map(Decl, actions)), clauses, meta)


AB = AgentPair("a", "b")
BA = AgentPair("b", "a")

# each breaks one error rule of `validate`, as far as it can on its own,
# with a part of the message it reports
ONE = (Obligation(AB, "x"),)
BROKEN = {
    "one-agent": ("at least two agents", _declared(["a"], ["x"], ONE)),
    "no-agents": ("at least two agents", _declared([], ["x"], ONE)),
    "no-actions": ("at least one action", _declared(["a", "b"], [], ONE)),
    "no-clauses": ("at least one clause", _declared(["a", "b"], ["x"], ())),
    "invalid-agent": ("invalid agent identifier '2c'", _declared(["a", "b", "2c"], ["x"], ONE)),
    "invalid-action": ("invalid action identifier 'y-z'",
                       _declared(["a", "b"], ["x", "y-z"], ONE)),
    "comma-in-name": ("invalid agent identifier 'c,d'", _declared(["a", "b", "c,d"], ["x"], ONE)),
    "duplicate-agent": ("duplicate agent 'a'", _declared(["a", "b", "a"], ["x"], ONE)),
    "duplicate-action": ("duplicate action 'x'", _declared(["a", "b"], ["x", "x"], ONE)),
    "agent-and-action": ("both agent and action: b", _declared(["a", "b"], ["x", "b"], ONE)),
    "undeclared-agent": ("undeclared agent 'c'", _declared(
        ["a", "b"], ["x"], (Obligation(AgentPair("a", "c"), "x"),))),
    "self-pair": ("relates agent 'a' to itself", _declared(
        ["a", "b"], ["x"], (Prohibition(AgentPair("a", "a"), "x"),))),
    "undeclared-action": ("undeclared action 'y'", _declared(
        ["a", "b"], ["x"], (Obligation(AB, "x"), Obligation(BA, "y")))),
    "undeclared-in-a-body": ("undeclared agent 'c'", _declared(["a", "b"], ["x"], (
        Box(AB, "x", (IterBox(BA, "x", (Obligation(AgentPair("b", "c"), "x"),)),)),))),
    "undeclared-guard-action": ("undeclared action 'y'", _declared(
        ["a", "b"], ["x"], (Box(AB, "y", ONE),))),
    "undeclared-agent-in-a-permission": ("undeclared agent 'c'", _declared(
        ["a", "b"], ["x"], (Obligation(AB, "x"), Permission(AgentPair("c", "b"), "x")))),
    "undeclared-action-in-a-permission": ("undeclared action 'y'", _declared(
        ["a", "b"], ["x"], (Obligation(AB, "x"), Box(AB, "x", (Permission(BA, "y"),))))),
    "role-of-undeclared-agent": ("annotation refers to undeclared agent 'c'", _declared(
        ["a", "b"], ["x"], ONE, Meta(roles={"c": "C"}))),
    "rolemsg-of-undeclared-agent": ("annotation refers to undeclared agent 'c'", _declared(
        ["a", "b"], ["x"], ONE, Meta(rolemsgs={"c": "only c"}))),
    "role-not-an-identifier": ("role annotation value 'A b' is not an identifier", _declared(
        ["a", "b"], ["x"], ONE, Meta(roles={"a": "A b"}))),
    "func-not-an-identifier": ("func annotation value '1x' is not an identifier", _declared(
        ["a", "b"], ["x"], ONE, Meta(funcs={(None, None, "x"): "1x"}))),
    "state-of-undeclared-action": ("state annotation refers to undeclared action 'y'", _declared(
        ["a", "b"], ["x"], ONE, Meta(states={(None, None, "y"): "S"}))),
    "flag-of-undeclared-agent": ("flag annotation refers to undeclared agent 'c'", _declared(
        ["a", "b"], ["x"], ONE, Meta(flags={("a", "c", "x"): "done"}))),
    "message-of-undeclared-action": ("message annotation refers to undeclared action 'y'",
                                     _declared(["a", "b"], ["x"], ONE,
                                               Meta(messages={("a", "b", "y"): "no"}))),
    "inline-of-undeclared-action": ("inline annotation refers to undeclared action 'y'",
                                    _declared(["a", "b"], ["x"], ONE,
                                              Meta(inline=[(None, None, "y")]))),
    "inline-of-undeclared-agent": ("inline annotation refers to undeclared agent 'c'",
                                   _declared(["a", "b"], ["x"], ONE,
                                             Meta(inline=[("c", "b", "x")]))),
}

# annotated or otherwise odd, but free of errors
CLEAN = {
    "annotated": _declared(["a", "b"], ["x"], ONE, Meta(
        roles={"a": "A"}, funcs={("a", "b", "x"): "doX"}, requires={"flag": "text"},
        inline=[("a", "b", "x")])),
    "named-only": _declared(["a", "b"], ["x"], ONE, Meta(
        contract_name="Deal", statemsg="wrong state")),
    "unused-names": _declared(["a", "b", "c"], ["x", "y"], (Permission(AB, "x"),)),
    "warned": _declared(["a", "b"], ["x", "y"], (
        IterBox(AB, "y", (Obligation(BA, "x"),), positive=True, starred=False),)),
}


def _drawn():
    """Seeded draws of every generator, each also with its last agent and
    then its last action undeclared, which leaves some draws invalid."""
    rng = random.Random(2707)
    drawn = [random_contract(rng) for _ in range(40)]
    drawn += [merged_contract(rng, parts, max_events=12) for parts in (2, 3) * 10]
    drawn += [random_lowerable(rng) for _ in range(20)]
    drawn += [random_flow(rng) for _ in range(20)]
    drawn += [random_clashing(rng) for _ in range(20)]
    for contract in list(drawn):
        drawn.append(Contract(contract.agents[:-1], contract.actions, contract.clauses,
                              contract.meta))
        drawn.append(Contract(contract.agents, contract.actions[:-1], contract.clauses,
                              contract.meta))
    return drawn


def test_an_analysis_raises_exactly_when_validate_finds_an_error():
    broken = [contract for _message, contract in BROKEN.values()]
    contracts = [*broken, *CLEAN.values(), *_contracts(), *_drawn()]
    raised = 0
    for contract in contracts:
        issues = validate(contract)
        if any(i.severity == "error" for i in issues):
            with pytest.raises(InvalidContract) as caught:
                ContractSemantics(contract)
            assert caught.value.issues == issues
            raised += 1
        else:
            assert ContractSemantics(contract).warnings == tuple(issues)
    # every hand-built breach raises, and so do some of the drawn variants
    assert raised > len(BROKEN) + 20
    for name, (message, contract) in BROKEN.items():
        errors = [i.message for i in validate(contract) if i.severity == "error"]
        assert any(message in error for error in errors), (name, errors)
    for name, contract in CLEAN.items():
        assert all(i.severity == "warning" for i in validate(contract)), name
    assert validate(CLEAN["warned"]) and validate(CLEAN["unused-names"])


@pytest.fixture
def calls(monkeypatch):
    """The contracts `rclc.semantics` validates, in call order."""
    validated = []

    def counted_validate(contract):
        validated.append(contract)
        return validate(contract)

    monkeypatch.setattr(rclc.semantics, "validate", counted_validate)
    return validated


def test_check_lower_and_co_simulate_each_validate_once(calls, tests_of):
    rng = random.Random(27)
    for contract in [random_lowerable(rng) for _ in range(10)]:
        check(contract)
        ir = lower(contract)
        world = _greedy_world(ir)
        assert co_simulate(contract, world) == []
        assert calls == [contract] * 3
        sem = ContractSemantics(contract)
        assert calls == [contract] * 4
        assert sem.warnings == tuple(validate(contract))
        assert calls == [contract] * 4
        # the rows are walked once, however many analyses validate them
        assert tests_of["rows"] == 1 and tests_of["meta"] == 0
        assert tests_of["conditions"] <= 1
        tests_of.update(rows=0, conditions=0)
        calls.clear()


def test_an_annotated_contract_validates_once_at_construction(calls):
    contract = parsed((FIXTURES / "purchase_conflicted.rcl").read_text())
    sem = ContractSemantics(contract)
    assert calls == [contract]
    assert sem.warnings == tuple(validate(contract))
    assert any("notifyDelivery" in w.message for w in sem.warnings)
    assert calls == [contract]


def test_a_command_validates_its_input_once_at_construction(tmp_path, calls, tests_of,
                                                           capsys):
    path = tmp_path / "unused.rcl"
    path.write_text("agents a, b;\nactions x, y;\n{a,b}O(x);\n")
    assert main(["check", str(path)]) == 0
    assert len(calls) == tests_of["rows"] == 1
    assert capsys.readouterr().err == f"{path}: warning: action 'y' declared but never used\n"
    # an annotation error is found by the analysis too
    path = tmp_path / "nobody.rcl"
    path.write_text((FIXTURES / "purchase_fixed.rcl").read_text().replace(
        "\ncontract ", "\nrole nobody = X;\ncontract "))
    assert main(["check", str(path)]) == 2
    assert len(calls) == tests_of["rows"] == 2
    assert capsys.readouterr().err == (
        f"{path}: error: annotation refers to undeclared agent 'nobody'\n")


def test_the_initial_state_is_built_once_and_shared():
    for contract in _contracts():
        sem = ContractSemantics(contract)
        initial = sem.initial_state()
        assert initial == sem.state(frozenset())
        assert sem.initial_state() is initial
        assert initial.fired == frozenset()


# -- one layout and one clause table per contract ---------------------------

def _answer(call, contract):
    """What `call(contract)` returns, or the error it raises with its issues."""
    try:
        return call(contract)
    except InvalidContract as exc:
        return "invalid", str(exc), exc.issues


def _rows(method):
    def call(contract):
        result = getattr(ContractSemantics(contract), method)()
        return result if method == "initial_state" else list(result)
    return call


# each builds a ContractSemantics of its own where it needs one
QUESTIONS = {
    "validate": validate,
    "iter_clauses": lambda c: list(iter_clauses(c)),
    "event_universe": event_universe,
    "check": lambda c: _report(check(c)),
    "lower": _lowered,
    "lower-allowed": lambda c: _lowered(c, allow_conflicts=True),
    "lower-fidelity": lambda c: _lowered(c, allow_conflicts=True, fidelity_internal_calls=True),
    "warnings": lambda c: ContractSemantics(c).warnings,
    "conditions": _rows("conditions"),
    "initial_state": _rows("initial_state"),
    "clause_rows": _rows("clause_rows"),
}


def _fresh(contract):
    return Contract(contract.agents, contract.actions, contract.clauses, contract.meta)


def _every_draw():
    rng = random.Random(3030)
    drawn = [random_contract(rng) for _ in range(12)]
    drawn += [merged_contract(rng, parts, max_events=12) for parts in (2, 3) * 6]
    drawn += [random_lowerable(rng) for _ in range(12)]
    drawn += [random_flow(rng) for _ in range(12)]
    drawn += [random_clashing(rng) for _ in range(12)]
    drawn += [Contract(c.agents[:-1], c.actions, c.clauses, c.meta) for c in drawn[::6]]
    return drawn


def test_the_kept_analysis_answers_as_a_fresh_contract_in_any_order():
    lowered = invalid = 0
    for drawn in _every_draw():
        for order in (list(QUESTIONS), list(reversed(QUESTIONS))):
            kept = _fresh(drawn)
            for name in order:
                got = _answer(QUESTIONS[name], kept)
                assert got == _answer(QUESTIONS[name], _fresh(drawn)), name
                lowered += name == "lower" and got[0] != "refused"
                invalid += name == "check" and got[0] == "invalid"
    # the sample lowers some contracts and refuses others as invalid
    assert lowered >= 40 and invalid >= 4


def test_a_field_refuses_assignment_and_deletion():
    fixed = parsed((FIXTURES / "purchase_fixed.rcl").read_text())
    conflicted = parsed((FIXTURES / "purchase_conflicted.rcl").read_text())
    actions = fixed.actions + tuple(a for a in conflicted.actions if a not in fixed.actions)
    contract = Contract(fixed.agents, actions, conflicted.clauses, fixed.meta)
    before = {name: _answer(call, contract) for name, call in QUESTIONS.items()}
    assert check(contract).conflicts
    for field, other in (("agents", fixed.agents[:1]), ("actions", fixed.actions),
                         ("clauses", fixed.clauses), ("meta", conflicted.meta)):
        with pytest.raises(AttributeError):
            setattr(contract, field, other)
        with pytest.raises(AttributeError):
            delattr(contract, field)
    assert contract.clauses is conflicted.clauses and contract.meta is fixed.meta
    for name, call in QUESTIONS.items():
        assert _answer(call, contract) == before[name], name


def test_a_second_analysis_still_validates_the_header_and_annotations():
    contract = parsed((FIXTURES / "purchase_fixed.rcl").read_text())
    ContractSemantics(contract)
    contract.meta.roles["nobody"] = "Nobody"
    with pytest.raises(InvalidContract, match="undeclared agent 'nobody'"):
        ContractSemantics(contract)
    rng = random.Random(3232)
    for _ in range(10):
        contract = random_lowerable(rng)
        check(contract)
        assert ContractSemantics(contract).warnings == tuple(validate(contract))
        contract.meta.funcs[(None, None, "undeclared")] = "f"
        with pytest.raises(InvalidContract, match="undeclared action 'undeclared'"):
            ContractSemantics(contract)
        del contract.meta.funcs[(None, None, "undeclared")]
        ContractSemantics(contract)


def _counting(counted, name, function):
    """`function`, adding each call to `counted[name]`."""
    def call(*args):
        counted[name] += 1
        return function(*args)
    return call


@pytest.fixture
def walks(monkeypatch):
    """How often `ast.layout` and `semantics._clause_table` have run."""
    counted = {"layout": 0, "table": 0}
    monkeypatch.setattr(rclc.ast, "layout", _counting(counted, "layout", rclc.ast.layout))
    monkeypatch.setattr(rclc.semantics, "_clause_table",
                        _counting(counted, "table", rclc.semantics._clause_table))
    return counted


def test_a_contract_is_laid_out_and_tabled_once_across_the_pipeline(walks):
    rng = random.Random(3333)
    contracts = [parsed((FIXTURES / name).read_text())
                 for name in ("purchase_fixed.rcl", "purchase_conflicted.rcl")]
    contracts += [random_lowerable(rng) for _ in range(10)]
    for contract in contracts:
        validate(contract)
        check(contract)
        world = _greedy_world(lower(contract, allow_conflicts=True))
        co_simulate(contract, world)
        first, second = ContractSemantics(contract), ContractSemantics(contract)
        assert first.initial_state() is second.initial_state()
        event_universe(contract)
        list(iter_clauses(contract))
        assert walks == {"layout": 1, "table": 1}
        walks.update(layout=0, table=0)


@pytest.mark.parametrize("argv, code", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_lays_its_input_out_once(argv, code, walks, capsys):
    assert main(argv) == code
    capsys.readouterr()
    assert walks == {"layout": 1, "table": 1}


# -- validate's findings and the check's conflicts, kept ----------------------

def test_a_list_passed_in_is_stored_as_a_tuple():
    ab = AgentPair("a", "b")
    agents, actions, clauses = [Decl("a"), Decl("b")], [Decl("x")], [Obligation(ab, "x")]
    contract = Contract(agents, actions, clauses, Meta())
    assert (contract.agents, contract.actions, contract.clauses) == (
        tuple(agents), tuple(actions), tuple(clauses))
    assert check(contract).ok
    # later changes to the lists do not reach the contract
    clauses.append(Prohibition(ab, "x"))
    actions.append(Decl("y"))
    agents.pop()
    assert contract.clauses == (Obligation(ab, "x"),)
    assert validate(contract) == [] and ContractSemantics(contract).warnings == ()
    assert check(contract).ok
    assert len(check(Contract(agents + [Decl("b")], actions, clauses)).conflicts) == 1


def test_a_guard_body_passed_as_a_list_is_stored_as_a_tuple():
    ab = AgentPair("a", "b")
    for guard in (Box, IterBox):
        body = [Obligation(ab, "y")]
        twin_body = tuple(body)
        node = guard(ab, "x", body)
        assert node.body == twin_body and hash(node) == hash(guard(ab, "x", twin_body))
        contract = _declared(["a", "b"], ["x", "y"], (node,))
        assert check(contract).ok
        body.append(Prohibition(ab, "y"))
        twin = _declared(["a", "b"], ["x", "y"], (guard(ab, "x", twin_body),))
        assert contract == twin
        assert _report(check(contract)) == _report(check(twin))
        # the answer the appended body would have given differs
        grown = _declared(["a", "b"], ["x", "y"], (guard(ab, "x", tuple(body)),))
        assert len(check(grown).conflicts) == 1


def _annotate(contract):
    contract.meta.roles[contract.agents[0].name] = "Lead"


def _unannotate(contract):
    del contract.meta.roles[contract.agents[0].name]


def _misannotate(contract):
    contract.meta.funcs[(None, None, "undeclared")] = "f"


def _mend_annotation(contract):
    del contract.meta.funcs[(None, None, "undeclared")]


# steps taken in turn on one contract, each followed by every question
STEPS = {
    "annotate": _annotate,
    "unannotate": _unannotate,
    "misannotate": _misannotate,
    "mend-annotation": _mend_annotation,
}

# what the kept answers stand in for; each builds its own analysis
KEPT = ("validate", "warnings", "check", "lower", "lower-allowed")


def test_the_kept_answers_follow_every_change_to_the_contract():
    steps = invalid = conflicted = 0
    for drawn in _every_draw():
        contract = Contract(drawn.agents, drawn.actions, drawn.clauses, copy.deepcopy(drawn.meta))
        for step in STEPS.values():
            for name in KEPT:
                _answer(QUESTIONS[name], contract)
            step(contract)
            twin = _fresh(contract)
            for name in KEPT:
                got = _answer(QUESTIONS[name], contract)
                assert got == _answer(QUESTIONS[name], twin), name
                invalid += name == "check" and got[0] == "invalid"
                conflicted += name == "check" and got[0] != "invalid" and bool(got[0])
            steps += 1
    # the sample changes every draw and meets both verdicts
    assert steps == len(_every_draw()) * len(STEPS)
    assert invalid >= 100 and conflicted >= 50


@pytest.fixture
def tests_of(monkeypatch):
    """How often `validate` walks a contract's rows, how often it checks
    the annotations, and how often a check walks the path conditions."""
    counted = {"rows": 0, "meta": 0, "conditions": 0}
    monkeypatch.setattr(rclc.ast, "_findings", _counting(counted, "rows", rclc.ast._findings))
    monkeypatch.setattr(rclc.ast, "_validate_meta",
                        _counting(counted, "meta", rclc.ast._validate_meta))
    monkeypatch.setattr(ContractSemantics, "conditions",
                        _counting(counted, "conditions", ContractSemantics.conditions))
    return counted


def _pipeline(contract):
    """validate -> check -> lower -> co_simulate -> a later analysis; how
    many analyses it built, each of which validates the contract."""
    validate(contract)
    check(contract)
    analyses = 3
    try:
        world = _greedy_world(lower(contract, allow_conflicts=True))
    except LowerError:
        pass
    else:
        co_simulate(contract, world)
        analyses += 1
    ContractSemantics(contract).warnings
    return analyses


def test_an_unannotated_contract_is_validated_and_checked_once(tests_of, calls):
    rng = random.Random(3434)
    drawn = [random_contract(rng) for _ in range(10)]
    drawn += [random_lowerable(rng) for _ in range(10)]
    drawn += [merged_contract(rng, 2, max_events=12) for _ in range(10)]
    # its names without its annotations
    drawn += [Contract(c.agents, c.actions, c.clauses) for c in
              (random_clashing(rng) for _ in range(10))]
    walked = lowered = 0
    for contract in drawn:
        assert not any(rclc.ast._META_TABLES(contract.meta))
        analyses = _pipeline(contract)
        # each analysis validates; the rows are walked once
        assert calls == [contract] * analyses
        assert tests_of["rows"] == 1 and tests_of["meta"] == 0
        assert tests_of["conditions"] <= 1
        walked += tests_of["conditions"]
        lowered += analyses == 4
        tests_of.update(rows=0, conditions=0)
        calls.clear()
    assert walked >= 10  # the draws with a prohibition
    assert lowered >= 10


def test_an_annotated_contract_is_validated_by_every_analysis(tests_of, calls):
    for name in ("purchase_fixed.rcl", "purchase_conflicted.rcl"):
        contract = parsed((FIXTURES / name).read_text())
        assert _pipeline(contract) == 4
        assert calls == [contract] * 4
        # validate and each of the four analyses check the annotations; the
        # rows are walked and the check's conflicts derived once
        assert tests_of == {"rows": 1, "meta": 5, "conditions": 1}
        tests_of.update(rows=0, meta=0, conditions=0)
        calls.clear()
