"""Lowering and emission tests: chain extraction, flag wiring, house
rules, promotion, payability, golden files, determinism."""

import random
from pathlib import Path

import pytest

from rclc.codegen import (
    CallFn,
    EmitEvent,
    LowerError,
    SetFlag,
    SetState,
    emit_solidity,
    lower,
)
from rclc.ast import Obligation, iter_clauses
from rclc.parser import parse_contract

from contractgen import random_lowerable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    result = parse_contract((FIXTURES / name).read_text(), file=name)
    assert result.ok, result.errors
    return result.contract


def parse(src):
    result = parse_contract(src)
    assert result.ok, result.errors
    return result.contract


MINIMAL = """
agents a, b;
actions x, y;

{a,b}[x]({b,a}O(y));
"""


def test_minimal_machine_shape():
    ir = lower(parse(MINIMAL))
    assert ir.states == ("Created", "S1", "Finalized")
    assert [fn.name for fn in ir.functions] == ["x", "y"]
    x, y = ir.functions
    assert x.state_guard == "Created"
    assert SetState("S1") in x.effects
    assert y.state_guard == "S1"
    assert SetFlag("yDone") in y.effects
    assert y.finalize
    assert ir.finalization_state == "S1"
    assert ir.finalization_flags == ("yDone",)


def test_minimal_emission_contains_machine():
    text = emit_solidity(lower(parse(MINIMAL)))
    assert "pragma solidity ^0.8.0;" in text
    assert "function x() external onlyA atState(ContractState.Created)" in text
    assert "state = ContractState.S1;" in text
    assert "function y() external onlyB atState(ContractState.S1)" in text
    assert 'require(!yDone, "yDone already set");' in text
    assert "if (state == ContractState.S1) {" in text
    assert "if (yDone) {" in text
    assert text.endswith("}\n")


def test_conflicted_fixture_lowering():
    ir = lower(load("purchase_conflicted.rcl"), allow_conflicts=True)
    assert ir.name == "ContratoComErro"
    assert ir.states == (
        "Created",
        "ProductBought",
        "ProductPaid",
        "PaymentNotified",
        "ProductDelivered",
        "Finalized",
    )
    assert [fn.name for fn in ir.functions] == [
        "buyProduct",
        "payProduct",
        "notifyProductPayment",
        "sendProduct",
        "payShippingCosts",
        "deliverProduct",
        "notifyProductReceipt",
        "notifyProductDelivery",
        "payProductSeller",
        "liberateShippingCosts",
        "payShippingCostsToCarrier",
    ]
    assert ir.params == ("paymentAmount", "shippingCosts")
    assert ir.finalization_flags == (
        "shippingCostsPaid",
        "paymentReleasedSeller",
        "paymentReleasedCarrier",
    )
    # the two house rules that watch events nothing performs synthesize
    # placeholder flags and warn
    flags = [name for name, _ in ir.flags]
    assert "deliveryNotifiedByBuyer" in flags
    assert "paymentRealeasedCarrierSeller" in flags
    assert len(ir.warnings) == 2
    assert all("can never be set" in w for w in ir.warnings)


def test_conflicted_deliver_is_walled_off():
    ir = lower(load("purchase_conflicted.rcl"), allow_conflicts=True)
    deliver = ir.function("deliverProduct")
    assert deliver.state_guard == "PaymentNotified"
    assert deliver.flag_preconditions == (
        ("productSent", True, "Produto ainda nao foi enviado pelo vendedor"),
        (
            "paymentRealeasedCarrierSeller",
            True,
            "Frete nao foi pago pelo vendedor a transportadora",
        ),
    )
    setters = {
        e.flag
        for fn in ir.functions
        for e in fn.effects
        if isinstance(e, SetFlag)
    }
    assert "paymentRealeasedCarrierSeller" not in setters


def test_conflicted_lowering_requires_opt_in():
    with pytest.raises(LowerError, match="conflicts") as refused:
        lower(load("purchase_conflicted.rcl"))
    (conflict,) = refused.value.report.conflicts
    assert conflict.action == "deliverProduct"


def test_corrected_fixture_lowering():
    ir = lower(load("purchase_fixed.rcl"))
    assert ir.name == "ContratoCorrigido"
    assert ir.warnings == ()
    assert [fn.name for fn in ir.functions] == [
        "buyProduct",
        "payProduct",
        "notifyProductPayment",
        "sendProduct",
        "payShippingCosts",
        "notifyShippingPaymentToCarrier",
        "deliverProduct",
        "notifyProductReceipt",
        "notifyProductDelivery",
        "payProductSeller",
        "liberateShippingCosts",
        "payShippingCostsToCarrier",
    ]
    assert ir.finalization_flags == (
        "paymentReleasedSeller",
        "paymentReleasedCarrier",
    )
    notify = ir.function("notifyShippingPaymentToCarrier")
    assert notify.flag_preconditions == (
        ("shippingCostsPaid", True, "O vendedor ainda nao pagou o frete ao banco."),
        (
            "shippingPaymentNotified",
            False,
            "Notificacao de frete ja foi enviada.",
        ),
    )
    deliver = ir.function("deliverProduct")
    # box guard and house rule point at the same flag; one require only
    assert [f for f, _w, _m in deliver.flag_preconditions] == [
        "productSent",
        "shippingPaymentNotified",
    ]


def test_promotion_opens_new_cluster():
    ir = lower(load("purchase_fixed.rcl"))
    deliver = ir.function("deliverProduct")
    assert SetState("ProductDelivered") in deliver.effects
    for name in ("notifyProductReceipt", "notifyProductDelivery",
                 "payProductSeller", "liberateShippingCosts",
                 "payShippingCostsToCarrier"):
        fn = ir.function(name)
        assert fn.state_guard == "ProductDelivered"
        # the productSent/shippingPaymentNotified guards do not leak in
        assert all(
            flag not in ("productSent", "shippingPaymentNotified")
            for flag, _w, _m in fn.flag_preconditions
        )


def test_payable_resolution():
    ir = lower(load("purchase_fixed.rcl"))
    assert ir.function("payProduct").value_guard == "paymentAmount"
    assert (
        ir.function("payProduct").value_message == "Valor do pagamento incorreto"
    )
    assert ir.function("payShippingCosts").value_guard == "shippingCosts"
    # bank-to-carrier payment is not payable: money already sits in the
    # contract
    assert ir.function("payShippingCostsToCarrier").value_guard is None
    assert ir.function("payProductSeller").value_guard is None


def test_payable_heuristic_without_annotations():
    src = """
    agents x, y;
    actions start, payStuff;
    role x = buyer;
    role y = bank;

    {x,y}[start]({x,y}O(payStuff));
    """
    ir = lower(parse(src))
    fn = ir.function("payStuff")
    assert fn.value_guard == "payStuffAmount"
    assert ir.params == ("payStuffAmount",)


def test_no_payables_without_money_roles():
    rng = random.Random(7)
    ir = lower(random_lowerable(rng))
    assert ir.params == ()
    assert all(fn.value_guard is None for fn in ir.functions)


def test_rejects_contracts_without_a_root_box():
    with pytest.raises(LowerError, match="single top-level box") as refused:
        lower(parse("agents a, b;\nactions x;\n{a,b}F(x);"))
    assert refused.value.report is None
    with pytest.raises(LowerError, match="unsupported top-level"):
        lower(parse("agents a, b;\nactions x;\n{a,b}O(x);"))
    two_boxes = """
    agents a, b;
    actions x, y;
    {a,b}[x]({a,b}O(y));
    {b,a}[y]({a,b}O(x));
    """
    with pytest.raises(LowerError, match="more than one top-level box"):
        lower(parse(two_boxes))


def test_rejects_complex_watch_bodies():
    src = """
    agents a, b;
    actions x, y, z;
    {a,b}[x]({a,b}O(y));
    {a,b}[!z]*({a,b}F(y) & {b,a}F(x));
    """
    with pytest.raises(LowerError, match="exactly one"):
        lower(parse(src), allow_conflicts=True)


def test_golden_conflicted(tmp_path):
    ir = lower(load("purchase_conflicted.rcl"), allow_conflicts=True)
    assert emit_solidity(ir) == (FIXTURES / "purchase_conflicted.sol").read_text()


def test_golden_corrected():
    ir = lower(load("purchase_fixed.rcl"))
    assert emit_solidity(ir) == (FIXTURES / "purchase_fixed.sol").read_text()


def test_emission_is_deterministic():
    contract = load("purchase_fixed.rcl")
    first = emit_solidity(lower(contract))
    second = emit_solidity(lower(load("purchase_fixed.rcl")))
    assert first == second


def test_fidelity_mode_reproduces_internal_call():
    ir = lower(
        load("purchase_conflicted.rcl"),
        allow_conflicts=True,
        fidelity_internal_calls=True,
    )
    callee = ir.function("payShippingCostsToCarrier")
    assert callee.private
    assert callee.state_guard is None
    assert callee.flag_preconditions == ()
    caller = ir.function("liberateShippingCosts")
    assert caller.effects[-1] == CallFn("payShippingCostsToCarrier")
    assert any("always reverts" in w for w in ir.warnings)
    text = emit_solidity(ir)
    assert "function payShippingCostsToCarrier() private onlyK {" in text
    assert "        payShippingCostsToCarrier();" in text


def test_default_mode_ignores_inline():
    ir = lower(load("purchase_conflicted.rcl"), allow_conflicts=True)
    assert not any(fn.private for fn in ir.functions)
    assert not any(
        isinstance(e, CallFn) for fn in ir.functions for e in fn.effects
    )


def test_random_lowerable_contracts_lower_cleanly():
    rng = random.Random(20260819)
    for _ in range(40):
        contract = random_lowerable(rng)
        ir = lower(contract)
        assert ir.warnings == ()
        assert ir.states[0] == "Created" and ir.states[-1] == "Finalized"
        # totality: one function per distinct performed event
        events = [fn.event for fn in ir.functions]
        assert len(set(events)) == len(events)
        obligation_events = {
            (part.pair, part.action)
            for part, _path in iter_clauses(contract)
            if isinstance(part, Obligation)
        }
        assert obligation_events <= set(events)
        # every function carries exactly one state or flag effect
        for fn in ir.functions:
            changes = [
                e for e in fn.effects if isinstance(e, (SetState, SetFlag))
            ]
            assert len(changes) == 1
            assert any(isinstance(e, EmitEvent) for e in fn.effects)


def test_generated_names_avoid_members_and_reserved_words():
    src = """
    agents a, b;
    actions start, state, emit, Notify, owner, onlyA, pay, payDone;
    role a = owner;
    {a,b}[start](
        {b,a}O(state) & {a,b}O(emit) & {a,b}O(Notify) & {b,a}O(owner)
        & {b,a}O(onlyA) & {a,b}O(pay) & {a,b}O(payDone)
    );
    """
    ir = lower(parse(src))
    members = [fn.name for fn in ir.functions] + [flag for flag, _ in ir.flags]
    assert len(set(members)) == len(members)
    generated = {"state", "ContractState", "Notify", "atState",
                 "checkFinalization", "owner", "b", "onlyA", "onlyB", "emit"}
    assert not generated & set(members)
    assert {"stateOwner", "emitB", "payDone", "payDoneB"} <= set(members)
    text = emit_solidity(ir)
    assert "function state()" not in text
    assert "function emit()" not in text


def test_reemission_after_pretty_print_round_trip():
    from rclc.ast import pretty_print

    contract = load("purchase_fixed.rcl")
    reparsed = parse_contract(pretty_print(contract), file="rt")
    assert reparsed.ok, reparsed.errors
    assert emit_solidity(lower(reparsed.contract)) == emit_solidity(
        lower(contract)
    )
