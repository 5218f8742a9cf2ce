"""Value semantics of the AST, parse, semantics, report and IR types:
what compares, what hashes, what may change and how each prints."""

import copy
import pickle
from pathlib import Path

import pytest

import rclc.ast
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
    Span,
    ValidationIssue,
    iter_clauses,
    layout,
    validate,
)
from rclc.checker import CheckReport, CheckStats, Conflict, check
from rclc.codegen import CallFn, EmitEvent, FunctionIR, SetFlag, SetState, lower
from rclc.parser import ParseError, ParseResult, parse_contract
from rclc.semantics import ContractSemantics, Norm, event_universe

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

S1 = Span(1, 2, 1, 9)
S2 = Span(3, 1, 3, 9)
BS = AgentPair("b", "s")
SB = AgentPair("s", "b")


def fixture(name):
    return parse_contract((FIXTURES / name).read_text(), file=name).contract


def frozen_values():
    """One value of each formerly frozen class, with a twin built apart
    that differs only in fields equality ignores."""
    sem = ContractSemantics(fixture("purchase_fixed.rcl"))
    o_norm, f_norm = Norm("O", BS, "pay", S1), Norm("F", BS, "pay", S2)
    return [
        (Decl("a", S1), Decl("a", S2)),
        (Obligation(BS, "pay", S1), Obligation(BS, "pay", S2)),
        (Prohibition(BS, "pay", S1), Prohibition(BS, "pay")),
        (Permission(BS, "pay", S1), Permission(BS, "pay", S2)),
        (Box(SB, "ship", (Obligation(BS, "pay", S1),), S1),
         Box(SB, "ship", (Obligation(BS, "pay", S2),), S2)),
        (IterBox(SB, "ship", (Prohibition(BS, "pay", S1),), True, True, S1),
         IterBox(SB, "ship", (Prohibition(BS, "pay", S2),), True, True, S2)),
        (ValidationIssue("error", "m", "clauses[0]", S1),
         ValidationIssue("error", "m", "clauses[0]", S2)),
        (ParseError(S1, "x", "y", "a.rcl"), ParseError(S1, "x", "y", "b.rcl")),
        (sem.initial_state(), ContractSemantics(fixture("purchase_fixed.rcl")).initial_state()),
        (Conflict(o_norm, f_norm, ((SB, "ship"),)), Conflict(o_norm, f_norm, ((SB, "ship"),))),
        (CheckStats(4, 4, 1.5), CheckStats(4, 4, 1.5)),
        (CheckReport((), CheckStats(1, 0, 0.5)), CheckReport((), CheckStats(1, 0, 0.5))),
        (SetState("S1"), SetState("S1")),
        (SetFlag("f"), SetFlag("f")),
        (EmitEvent("buyer", "seller", "m"), EmitEvent("buyer", "seller", "m")),
        (CallFn("g"), CallFn("g")),
        (FUNCTION, FunctionIR(*FUNCTION_ARGS)),
    ]


FUNCTION_ARGS = (
    "payB", "b", "buyer", "S1", "amount", "Wrong amount",
    (("shipped", True, "Not shipped"), ("paid", False, "Already paid")),
    (SetFlag("paid"), EmitEvent("buyer", "seller", "Paid"), SetState("S2"), CallFn("x")),
    (BS, "pay"), True, False, ("// c",),
)
FUNCTION = FunctionIR(*FUNCTION_ARGS)


def test_equality_ignores_spans_and_the_error_file_and_equal_values_hash_equal():
    for value, twin in frozen_values():
        assert value == twin and not value != twin, type(value).__name__
        assert hash(value) == hash(twin), type(value).__name__
    assert Decl("a", S1) != Decl("b", S1)
    assert ParseError(S1, "x", "y") != ParseError(S2, "x", "y")  # the span is compared
    assert IterBox(SB, "ship", (), False) != IterBox(SB, "ship", (), True)


def test_nodes_of_different_kinds_with_the_same_fields_are_unequal():
    leaves = [kind(BS, "pay", S1) for kind in (Obligation, Prohibition, Permission)]
    effects = [kind("x") for kind in (SetState, SetFlag, CallFn)]
    for group in (leaves, effects):
        for i, a in enumerate(group):
            for j, b in enumerate(group):
                assert (a == b) is (i == j)
    assert Obligation(BS, "pay") != (BS, "pay")
    assert Decl("a") != "a"
    assert Obligation(BS, "pay").__eq__(Prohibition(BS, "pay")) is NotImplemented
    assert len({*leaves, Obligation(BS, "pay", S2)}) == 3


@pytest.mark.parametrize("name", ["name", "span", "other"])
def test_a_formerly_frozen_value_refuses_assignment_and_deletion(name):
    for value, _twin in frozen_values():
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        Obligation(BS, "pay").action = "ship"


def test_mutable_values_are_unhashable():
    contract = fixture("purchase_fixed.rcl")
    ir = lower(contract)
    for value in (Meta(), contract, parse_contract("agents a"), ir):
        with pytest.raises(TypeError):
            hash(value)
    contract.meta.contract_name = "Renamed"
    assert contract.meta.contract_name == "Renamed"


def test_each_meta_and_contract_gets_fresh_tables():
    a, b = Meta(), Meta()
    assert a == b
    a.roles["x"] = "buyer"
    a.inline.append((None, None, "go"))
    assert b.roles == {} and b.inline == [] and a != b
    c1, c2 = Contract((), (), ()), Contract((), (), ())
    assert c1.meta is not c2.meta and c1 == c2
    assert Meta("C") == Meta(contract_name="C") != Meta()


def test_constructors_keep_their_positions_keywords_and_defaults():
    box = IterBox(pair=SB, action="ship", body=())
    assert (box.positive, box.starred, box.span) == (False, True, Span(0, 0, 0, 0))
    assert Decl("a").span == Span(0, 0, 0, 0)
    assert ParseError(S1, "x", "y").file == "<input>"
    assert FunctionIR(*FUNCTION_ARGS[:9]).comments == ()
    result = ParseResult(None, [])
    assert result.ok and result == ParseResult(contract=None, errors=[])


def test_machine_ir_ignores_its_private_maps():
    first, second = (lower(fixture("purchase_fixed.rcl")) for _ in range(2))
    second._by_name = {}
    assert first == second
    assert first.function(first.functions[0].name) is first.functions[0]
    assert "_by_name" not in repr(first) and "_role_message" not in repr(first)


def test_copies_and_pickles_are_equal_values():
    contract = fixture("purchase_conflicted.rcl")
    values = [contract, contract.meta, contract.clauses[0], check(contract),
              lower(contract, allow_conflicts=True), FUNCTION]
    for value in values:
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            twin = clone(value)
            assert twin == value and repr(twin) == repr(value)


def _analysed(contract):
    """`contract` after every analysis that keeps something on it."""
    validate(contract)
    list(iter_clauses(contract))
    event_universe(contract)
    sem = ContractSemantics(contract)
    sem.initial_state()
    check(contract)
    lower(contract, allow_conflicts=True)
    return contract


def test_an_analysed_contract_is_the_same_value(monkeypatch):
    for name in ("purchase_fixed.rcl", "purchase_conflicted.rcl"):
        analysed, plain = _analysed(fixture(name)), fixture(name)
        assert analysed == plain and not analysed != plain
        assert repr(analysed) == repr(plain)
        with pytest.raises(TypeError):
            hash(analysed)
        assert pickle.dumps(analysed) == pickle.dumps(plain)  # no analysis is carried
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            twin, plain_twin = clone(analysed), clone(plain)
            assert twin == plain_twin == plain and repr(twin) == repr(plain)
            assert twin.clauses == analysed.clauses
        # a copy lays its clauses out afresh on first use
        issues, laid_out = validate(plain), []
        with monkeypatch.context() as patch:
            patch.setattr(rclc.ast, "layout",
                          lambda clauses: laid_out.append(clauses) or layout(clauses))
            twin = copy.copy(analysed)
            assert twin.clauses is analysed.clauses
            assert validate(twin) == issues
        assert laid_out == [analysed.clauses]


def test_parse_error_and_conflict_accessors():
    err = ParseError(S1, "x", "y", "f.rcl")
    assert err.args == (S1, "x", "y", "f.rcl")
    assert ParseError(S1, "x", "y", file="f.rcl").args == (S1, "x", "y")
    assert str(err) == "f.rcl:1:2: error: expected x, found y"
    assert isinstance(err, Exception)
    report = check(fixture("purchase_conflicted.rcl"))
    ob = report.conflicts[0].obligation
    assert (report.conflicts[0].pair, report.conflicts[0].action) == (ob.pair, ob.action)
    assert not report.ok and check(fixture("purchase_fixed.rcl")).ok


def test_reprs_are_pinned():
    ob = Obligation(BS, "pay", S1)
    assert repr(ob) == (
        "Obligation(pair=AgentPair(performer='b', counterparty='s'), action='pay', "
        "span=Span(line=1, col=2, end_line=1, end_col=9))"
    )
    assert repr(IterBox(SB, "ship", (ob, Prohibition(BS, "pay")), False, True, S1)) == (
        "IterBox(pair=AgentPair(performer='s', counterparty='b'), action='ship', "
        "body=(Obligation(pair=AgentPair(performer='b', counterparty='s'), action='pay', "
        "span=Span(line=1, col=2, end_line=1, end_col=9)), "
        "Prohibition(pair=AgentPair(performer='b', counterparty='s'), action='pay', "
        "span=Span(line=0, col=0, end_line=0, end_col=0))), positive=False, starred=True, "
        "span=Span(line=1, col=2, end_line=1, end_col=9))"
    )
    issue = ValidationIssue(
        "warning", "action 'x' declared but never used", "actions", Span(2, 9, 2, 10))
    assert repr(issue) == (
        "ValidationIssue(severity='warning', message=\"action 'x' declared but never used\", "
        "path='actions', span=Span(line=2, col=9, end_line=2, end_col=10))"
    )
    o_norm, f_norm = Norm("O", BS, "pay", S1), Norm("F", BS, "pay", S2)
    report = CheckReport((Conflict(o_norm, f_norm, ((SB, "ship"),)),), CheckStats(4, 4, 1.5))
    assert repr(report) == (
        "CheckReport(conflicts=(Conflict(obligation=Norm(kind='O', "
        "pair=AgentPair(performer='b', counterparty='s'), action='pay', "
        "origin=Span(line=1, col=2, end_line=1, end_col=9)), prohibition=Norm(kind='F', "
        "pair=AgentPair(performer='b', counterparty='s'), action='pay', "
        "origin=Span(line=3, col=1, end_line=3, end_col=9)), "
        "witness=((AgentPair(performer='s', counterparty='b'), 'ship'),)),), "
        "stats=CheckStats(states=4, transitions=4, wall_ms=1.5))"
    )
    assert repr(FUNCTION) == (
        "FunctionIR(name='payB', agent='b', role_guard='buyer', state_guard='S1', "
        "value_guard='amount', value_message='Wrong amount', "
        "flag_preconditions=(('shipped', True, 'Not shipped'), ('paid', False, 'Already paid')), "
        "effects=(SetFlag(flag='paid'), EmitEvent(sender='buyer', receiver='seller', "
        "message='Paid'), SetState(state='S2'), CallFn(name='x')), "
        "event=(AgentPair(performer='b', counterparty='s'), 'pay'), finalize=True, "
        "private=False, comments=('// c',))"
    )
    assert repr(ParseError(S1, "x", "y", "f.rcl")) == (
        "ParseError(span=Span(line=1, col=2, end_line=1, end_col=9), expected='x', "
        "found='y', file='f.rcl')"
    )
