"""Lowering and emission tests: chain extraction, flag wiring, house
rules, promotion, payability, golden files, determinism."""

import hashlib
import importlib.util
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from rclc.codegen import (
    _RESERVED_NAMES,
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
from rclc.simulator import co_simulate, run_script

from contractgen import (
    deep_flow,
    random_clashing,
    random_flow,
    random_lowerable,
    repeat_tail_obligations,
)

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


def test_promoted_box_is_lowered_in_its_promoted_state():
    # the box on x may come before or after O(x) in the body; either way
    # z and w run after x has moved the machine on to S2
    orders = (
        "{a,b}[x]({a,b}O(z) & {a,b}O(w)) & {a,b}O(x) & {a,b}O(v)",
        "{a,b}O(x) & {a,b}O(v) & {a,b}[x]({a,b}O(z) & {a,b}O(w))",
    )
    seen = []
    for body in orders:
        contract = parse(f"agents a, b; actions go, x, z, w, v; {{a,b}}[go]({body});")
        ir = lower(contract)
        seen.append({fn.name: (fn.state_guard, fn.flag_preconditions) for fn in ir.functions})
        assert seen[-1]["z"][0] == seen[-1]["w"][0] == "S2"
        bindings = {role: agent for role, agent in ir.roles}
        script = [("a", name, 0) for name in ("go", "v", "x", "z", "w")]
        world, records = run_script(ir, script, bindings, {})
        assert all(record.ok for record in records)
        assert world.current_state == "Finalized"
        assert co_simulate(contract, world) == []
    assert seen[0] == seen[1]


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


_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
_SOL_ESCAPE = re.compile(r"\\(x[0-9a-f]{2}|.)")


def _sol_bytes(body):
    """The bytes a plain Solidity string literal's body stands for."""
    named = {"n": b"\n", "r": b"\r", "t": b"\t", "\\": b"\\", '"': b'"'}
    out, at = b"", 0
    for escape in _SOL_ESCAPE.finditer(body):
        out += body[at:escape.start()].encode("ascii")
        code = escape.group(1)
        out += bytes([int(code[1:], 16)]) if code[0] == "x" else named[code]
        at = escape.end()
    return out + body[at:].encode("ascii")


def test_string_literals_are_printable_ascii_holding_the_utf8_messages():
    # every message of the corrected fixture, each kind of annotation, with
    # line breaks, a tab, a control character, quotes, a backslash and
    # non-ASCII text added, such as the paper's Portuguese messages carry
    extra = ' \n\r\t\x7fà "q" \\ 一'
    escaped = extra.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    text = (FIXTURES / "purchase_fixed.rcl").read_text()
    text = re.sub(r'"[^"]*"', lambda string: string.group()[:-1] + escaped + '"', text)
    sol = emit_solidity(lower(parse(text)))
    literals = _LITERAL.findall(sol)
    plain = _LITERAL.findall((FIXTURES / "purchase_fixed.sol").read_text())
    assert len(literals) == len(plain) == 34
    for literal, message in zip(literals, plain):
        assert literal.isascii() and literal.isprintable()
        assert _sol_bytes(literal) == (message + extra).encode()


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


def test_a_private_callee_claims_no_guard_it_strips():
    # the fixed fixture with the bank's release of payment inlined: the
    # callee's house-rule require is stripped, and its comment with it
    src = (FIXTURES / "purchase_fixed.rcl").read_text().replace(
        "contract ContratoCorrigido;", "inline {k,s} payProduct;\ncontract ContratoCorrigido;")
    ir = lower(parse(src), fidelity_internal_calls=True)
    callee = ir.function("payProductSeller")
    assert callee.private and callee.flag_preconditions == ()
    assert callee.comments == ("// {k,s} O(payProduct)",)
    lines = emit_solidity(ir).splitlines()
    claims = [(above, line) for above, line in zip(lines, lines[1:])
              if above.lstrip().startswith("// house rule guard:")]
    assert len(claims) == 2
    assert all(" private " not in line for _above, line in claims), claims
    # a placeholder flag only the private callee read is not declared
    src = ("agents a, b;\nactions go, x, v, y, z;\ninline {b,a} y;\n"
           "{a,b}[go]({a,b}O(x) & {a,b}O(v) & {a,b}[x]({b,a}O(y)));\n"
           "{a,b}[!z]*({b,a}F(y));\n")
    default = lower(parse(src), allow_conflicts=True)
    assert ("zDone", "// {a,b} [!z]* (no setter)") in default.flags
    assert "zDone" in [flag for flag, _value, _message in default.function("y").flag_preconditions]
    fidelity = lower(parse(src), allow_conflicts=True, fidelity_internal_calls=True)
    assert [flag for flag, _comment in fidelity.flags] == ["xDone", "vDone", "yDone"]
    assert "zDone" not in emit_solidity(fidelity)
    # the rule's only reader is that callee, so the rule has no effect and
    # the warning names no flag
    watched = "house rule watches {a,b} z, which no obligation performs"
    assert default.warnings == (f"{watched}; flag zDone can never be set",)
    assert fidelity.warnings == (
        f"{watched}; the rule has no effect",
        "fidelity: y is private and called from x; its role guard sees the outer "
        "caller, so the call always reverts",
    )


def test_default_mode_ignores_inline():
    ir = lower(load("purchase_conflicted.rcl"), allow_conflicts=True)
    assert not any(fn.private for fn in ir.functions)
    assert not any(
        isinstance(e, CallFn) for fn in ir.functions for e in fn.effects
    )


WATCH_FLAG = (
    "agents a, b;\nactions go, x, y;\n"
    "{a,b}[go]({a,b}O(go) & {a,b}[!y]*({a,b}O(x)));\n"
)
WATCH_PROMOTION = (
    "agents a, b;\nactions go, x, y, z, w;\n"
    "{a,b}[go]({a,b}O(go) & {a,b}O(x) & {a,b}[!y]*({a,b}[x]({a,b}O(z) & {a,b}O(w))));\n"
)
INLINE_NO_GUARD = "agents a, b;\nactions go, x;\ninline {a,b} go;\n{a,b}[go]({b,a}O(x));\n"
_DROPPED_WATCH = "nested watch on {a,b} y has no state-machine counterpart; dropped"
_NO_TERMINAL = "no terminal obligations; the Finalized state is unreachable"

# (source, fidelity mode, warnings, sha256 of the emitted Solidity)
WARNING_PATHS = [
    pytest.param(
        "agents a, b;\nactions x, y, z;\n{a,b}[x]({b,a}O(y));\n{a,b}[!x]*({b,a}F(z));\n",
        False,
        ("house rule bans {b,a} z, which no obligation or guard performs; rule dropped",),
        "4785cff2b0d2522cc9c6990bc19b34b500b9134637d70b6923ddb0d8f7b9150e",
        id="rule-dropped",
    ),
    pytest.param(
        "agents a, b;\nactions x, y, z;\n{a,b}[x]({b,a}O(y));\n{a,b}[!z]*({b,a}F(y));\n",
        False,
        ("house rule watches {a,b} z, which no obligation performs; flag zDone can "
         "never be set",),
        "73884bf3959cb1ce021339b5ed4fd14dc4458f09ec4da1139f194c09c95703c3",
        id="rule-flag-never-set",
    ),
    pytest.param(
        "agents a, b;\nactions go, x, z, w;\n{a,b}[go]({a,b}O(x) & {b,a}[z]({a,b}O(w)));\n",
        False,
        ("guard {b,a} z matches no obligation; functions behind it can never run",),
        "0ff6791bcc2dc073e614160e537ec4371f4e573b685cd04b56e40d55d2e66f60",
        id="guard-matches-no-obligation",
    ),
    # nothing under a nested watch is lowered: no xDone is declared
    pytest.param(
        WATCH_FLAG,
        False,
        (_DROPPED_WATCH, _NO_TERMINAL),
        "78623aa2bb0bfbf1c19bae368b3512dc840141d07fec30f8d263f81b3e809fef",
        id="nested-watch-flag",
    ),
    # the box under the watch promotes nothing: x is terminal
    pytest.param(
        WATCH_PROMOTION,
        False,
        (_DROPPED_WATCH,),
        "d2974f041e452cb7653c2776502150db4deae9207c8916d9986f614f38036d52",
        id="nested-watch-promotion",
    ),
    # built exactly as in the default mode
    pytest.param(
        INLINE_NO_GUARD,
        True,
        ("fidelity: inline go has no enclosing guard function to call it from; "
         "annotation ignored",),
        "ecd80f3317c1bf6fcab95613f5382fb065046285ae82184e84af39d0c8b6b7e0",
        id="inline-without-guard",
    ),
    pytest.param(
        "agents a, b;\nactions go, x, v, y;\ninline {b,a} y;\n"
        "{a,b}[go]({a,b}O(x) & {a,b}O(v) & {a,b}[x]({b,a}O(y)));\n",
        True,
        ("fidelity: y is private and called from x; its role guard sees the outer "
         "caller, so the call always reverts",),
        "87bf98d2a440fd86eed78bc243c8ca01f3fac8c58f4f4cf4946824cb1b710913",
        id="inline-called",
    ),
    pytest.param(
        "agents a, b;\nactions go, x;\n{a,b}[go]({a,b}O(go) & {b,a}P(x));\n",
        False,
        (_NO_TERMINAL,),
        "78623aa2bb0bfbf1c19bae368b3512dc840141d07fec30f8d263f81b3e809fef",
        id="no-terminal-obligations",
    ),
]


@pytest.mark.parametrize("src, fidelity, warnings, digest", WARNING_PATHS)
def test_every_warning_path(src, fidelity, warnings, digest):
    ir = lower(parse(src), allow_conflicts=True, fidelity_internal_calls=fidelity)
    assert ir.warnings == warnings
    text = emit_solidity(ir)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text


def test_nested_watch_drops_its_whole_subtree():
    ir = lower(parse(WATCH_PROMOTION))
    assert ir.states == ("Created", "S1", "Finalized")
    assert [flag for flag, _ in ir.flags] == ["xDone"]
    x = ir.function("x")
    assert x.effects[0] == SetFlag("xDone") and x.finalize
    assert ir.finalization_state == "S1"
    assert ir.finalization_flags == ("xDone",)


def test_inline_without_enclosing_guard_is_built_as_in_default_mode():
    contract = parse(INLINE_NO_GUARD)
    fidelity = lower(contract, fidelity_internal_calls=True)
    assert emit_solidity(fidelity) == emit_solidity(lower(contract))
    assert fidelity.function("go").state_guard == "Created"
    assert not fidelity.function("go").private


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


def test_role_names_must_be_free_and_distinct():
    for roles, message in (
        ("role a = state;", "agent a's role name 'state' is reserved"),
        ("role b = uint;", "agent b's role name 'uint' is reserved"),
        ("role a = onlyB;", "agent a's role name 'onlyB' is reserved"),
        ("role a = r, b = r;", "agents a and b share the role name 'r'"),
        ("role a = b;", "agents a and b share the role name 'b'"),
    ):
        src = f"agents a, b;\nactions x, y;\n{roles}\n{{a,b}}[x]({{b,a}}O(y));"
        with pytest.raises(LowerError, match=message) as refused:
            lower(parse(src))
        assert refused.value.report is None


def test_state_names_avoid_reserved_words():
    src = """
    agents a, b;
    actions x, y, z;
    state {a,b}x = while, {b,a}y = Finalized;
    {a,b}[x]({a,b}O(x) & {b,a}[y]({b,a}O(y) & {a,b}O(z)));
    """
    ir = lower(parse(src))
    assert ir.states == ("Created", "while2", "Finalized2", "Finalized")


def test_contract_name_is_reserved():
    src = "agents a, b;\nactions x, y;\ncontract {};\n{{a,b}}[x]({{b,a}}O(y));"
    with pytest.raises(LowerError, match="contract name 'if' is reserved") as refused:
        lower(parse(src.format("if")))
    assert refused.value.report is None
    # a role field or modifier cannot step around it, so that is refused
    for name in ("a", "onlyA"):
        with pytest.raises(
            LowerError, match=f"contract name '{name}' is also a role or modifier name"
        ) as refused:
            lower(parse(src.format(name)))
        assert refused.value.report is None
    # no member may take the contract's own name
    ir = lower(parse(src.format("y")))
    assert ir.name == "y"
    assert [fn.name for fn in ir.functions] == ["x", "yA"]
    assert [flag for flag, _ in ir.flags] == ["yDone"]


def test_amount_parameters_avoid_function_names():
    src = """
    agents a, b;
    actions start, pay, payAmount;
    role a = buyer;
    {a,b}[start]({a,b}O(pay) & {a,b}O(payAmount));
    """
    ir = lower(parse(src))
    assert ir.params == ("payAmount2", "payAmountAmount")
    assert ir.function("pay").value_guard == "payAmount2"
    assert ir.function("payAmount").value_guard == "payAmountAmount"
    members = (
        [fn.name for fn in ir.functions] + [flag for flag, _ in ir.flags]
        + list(ir.params) + [role for role, _agent in ir.roles]
    )
    assert len(set(members)) == len(members)
    text = emit_solidity(ir)
    assert "uint public payAmount2;" in text
    assert "uint public payAmount;" not in text


def test_reemission_after_pretty_print_round_trip():
    from rclc.ast import pretty_print

    contract = load("purchase_fixed.rcl")
    reparsed = parse_contract(pretty_print(contract), file="rt")
    assert reparsed.ok, reparsed.errors
    assert emit_solidity(lower(reparsed.contract)) == emit_solidity(
        lower(contract)
    )


REPEATED = "agents b, s;\nactions go, pay;\n{b,s}[go]({b,s}O(pay) & {b,s}O(pay));\n"
TWO_GUARDS = (
    "agents b, s;\nactions go, x, pay;\n"
    "{b,s}[go]({b,s}O(x) & {b,s}[x]({b,s}O(pay)) & {b,s}O(pay));\n"
)


def test_repeated_obligation_reuses_its_function():
    ir = lower(parse(REPEATED))
    assert [fn.name for fn in ir.functions] == ["go", "pay"]
    text = emit_solidity(ir)
    assert text.count("function pay()") == 1
    assert "2. b performed pay toward s." in text
    assert "3. b performed" not in text
    once = REPEATED.replace(" & {b,s}O(pay)", "", 1)
    assert text == emit_solidity(lower(parse(once)))
    rng = random.Random(5150)
    for _ in range(100):
        contract = random_lowerable(rng)
        repeated = repeat_tail_obligations(rng, contract)
        assert repeated != contract
        for fidelity in (False, True):
            assert emit_solidity(
                lower(repeated, fidelity_internal_calls=fidelity)
            ) == emit_solidity(lower(contract, fidelity_internal_calls=fidelity))


def test_obligation_under_two_guards_is_refused():
    mirrored = TWO_GUARDS.replace(
        "{b,s}[x]({b,s}O(pay)) & {b,s}O(pay)", "{b,s}O(pay) & {b,s}[x]({b,s}O(pay))"
    )
    assert mirrored != TWO_GUARDS
    for src in (TWO_GUARDS, mirrored):
        with pytest.raises(
            LowerError,
            match=r"cannot lower: \{b,s\} pay is obliged under two different guards",
        ) as refused:
            lower(parse(src))
        assert refused.value.report is None


_DECLARED = re.compile(
    r"^contract (\w+) \{$"
    r"|^    (?:address public|uint public|bool private|ContractState public) (\w+)\b"
    r"|^    (?:enum|event|modifier|function) (\w+)\b",
    re.M,
)
# declared by every generated contract, and reserved for it
_FIXED_MEMBERS = {"ContractState", "state", "Notify", "atState", "checkFinalization"}
# agents whose names differ only in the case of their initial
CASE_ONLY_AGENTS = "agents a, A;\nactions go, x;\n{a,A}[go]({A,a}O(x));\n"


def _assert_names_sound(ir):
    text = emit_solidity(ir)
    declared = [
        next(name for name in m.groups() if name)
        for m in _DECLARED.finditer(text)
    ]
    functions = [fn.name for fn in ir.functions]
    assert [n for n in declared if n in functions] == functions
    twice = [n for n, count in Counter(declared).items() if count > 1]
    assert twice == [], text
    assert not (set(declared) - _FIXED_MEMBERS) & _RESERVED_NAMES
    assert len(set(ir.states)) == len(ir.states)
    assert not set(ir.states) & _RESERVED_NAMES
    # every flag is set or read inside some function
    bodies = "\n".join(
        line for line in text.splitlines() if line.startswith("        ")
    )
    for flag in re.findall(r"^    bool private (\w+)", text, re.M):
        assert re.search(rf"\b{flag}\b", bodies), (flag, text)


def test_emitted_names_are_declared_once_and_not_reserved():
    rng = random.Random(31337)
    inputs = [
        (load("purchase_fixed.rcl"), False),
        (load("purchase_conflicted.rcl"), True),
        (parse(REPEATED), False),
        (parse(WATCH_FLAG), False),
        (parse(WATCH_PROMOTION), False),
        (parse(CASE_ONLY_AGENTS), False),
    ]
    for _ in range(150):
        contract = random_lowerable(rng)
        inputs += [(contract, False), (repeat_tail_obligations(rng, contract), False)]
    for contract, allow in inputs:
        for fidelity in (False, True):
            _assert_names_sound(
                lower(contract, allow_conflicts=allow, fidelity_internal_calls=fidelity))


def test_clashing_names_are_declared_once():
    # each fallback of the member and state names runs on these draws; some
    # are refused for a contract or role name, never for a conflict
    rng = random.Random(90210)
    lowered = 0
    for _ in range(200):
        contract = random_clashing(rng)
        for fidelity in (False, True):
            try:
                ir = lower(contract, allow_conflicts=True, fidelity_internal_calls=fidelity)
            except LowerError as refused:
                assert refused.report is None
                continue
            lowered += 1
            _assert_names_sound(ir)
    assert lowered > 200


# the repr of each lowered machine, or the refusal, over seeded draws of
# generators in both modes; printed as one sha256
_DIGEST_SCRIPT = textwrap.dedent("""
    import hashlib, random
    from contractgen import (merged_contract, random_clashing, random_contract,
                             random_flow, random_lowerable, under_one_box)
    from rclc.codegen import LowerError, lower

    digest = hashlib.sha256()
    for generator, count, allow in (%s):
        rng = random.Random(4242)
        for _ in range(count):
            contract = generator(rng)
            for fidelity in (False, True):
                try:
                    ir = lower(contract, allow_conflicts=allow,
                               fidelity_internal_calls=fidelity)
                    digest.update(repr(ir).encode())
                except LowerError as refused:
                    digest.update(f"{refused} {refused.report}".encode())
    print(digest.hexdigest())
""")
LOWERING_DIGEST = "666e8097141d25ed7ad61ec2ee961b351f31d624503be23af3407992d2321c61"
# arbitrary clause trees, which hold permissions anywhere: as drawn, where
# most are refused for their top level, and under one root box
PERMISSION_DIGEST = "cfdb4ff5801292bcbbd03f9b8703124efb87525d6cd277adfbccb8eca0a09454"


def _lowering_digests(draws):
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    return {
        subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT % draws],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for seed in ("0", "1", "2")
    }


def test_lowering_digest_is_pinned():
    draws = "(random_lowerable, 100, False), (random_flow, 100, True), (random_clashing, 300, True)"
    assert _lowering_digests(draws) == {LOWERING_DIGEST}


def test_permission_digest_is_pinned():
    draws = """
        (random_contract, 200, True),
        (lambda rng: merged_contract(rng, 2, 10), 100, True),
        (lambda rng: under_one_box(rng, random_contract(rng)), 200, True),
        (lambda rng: under_one_box(rng, merged_contract(rng, 2, 10)), 100, True),
    """
    assert _lowering_digests(draws) == {PERMISSION_DIGEST}


def test_permissions_count_in_the_shape_of_a_body():
    # a permission adds no code, but it is a clause of its body: beside
    # the box on y it ends the chain at the root, which gives no S2
    head = "agents a, b; actions x, y, z;\n"
    flow = "{a,b}[x]({a,b}O(y) & {a,b}[y]({b,a}O(z))%s);"
    assert lower(parse(head + flow % " & {b,a}P(z)")).states == ("Created", "S1", "Finalized")
    assert lower(parse(head + flow % "")).states == ("Created", "S1", "S2", "Finalized")
    # nor does a house rule guard a permission beside its prohibition
    rule = head + "{a,b}[y]({b,a}O(z));\n{a,b}[!z]*({a,b}F(x) & {a,b}P(y));"
    with pytest.raises(LowerError, match="a negated watch must guard exactly one prohibition"):
        lower(parse(rule), allow_conflicts=True)
    # one at the top level and one beside a link's obligation add nothing
    permitted = head + "{a,b}P(z);\n{a,b}[x]({b,a}O(y) & {a,b}P(z));"
    bare = head + "{a,b}[x]({b,a}O(y));"
    assert emit_solidity(lower(parse(permitted))) == emit_solidity(lower(parse(bare)))


def test_a_flow_deeper_than_the_recursion_limit_lowers():
    # each box's event is promoted, and its sibling is terminal
    depth = 1500
    ir = lower(deep_flow(depth))
    assert ir.warnings == ()
    assert len(ir.states) == depth + 3 and len(ir.functions) == 2 * depth + 3
    assert ir.function("e1499").effects[0] == SetState(ir.states[-2])
    assert ir.function("f").state_guard == ir.finalization_state == ir.states[-2]


def test_modifiers_of_agents_differing_in_case_are_distinct():
    ir = lower(parse(CASE_ONLY_AGENTS))
    text = emit_solidity(ir)
    assert "modifier onlyA() {" in text and "modifier onlyA2() {" in text
    assert "function x() external onlyA2 atState(ContractState.S1)" in text
    # the role-name check sees the suffixed name
    with pytest.raises(LowerError, match="agent a's role name 'onlyA2' is reserved"):
        lower(parse(CASE_ONLY_AGENTS.replace("x;\n", "x;\nrole a = onlyA2;\n")))


def _solidity_reader():
    """perfbench's reference interpreter of the emitted Solidity, loaded
    from its file, plus one form it skips: the role modifier of a private
    function, which Solidity runs against the outer caller when another
    function calls it."""
    spec = importlib.util.spec_from_file_location(
        "solref", FIXTURES.parent / "perfbench" / "solref.py"
    )
    solref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(solref)
    sender_is = "msg.sender == "

    class Reader(solref.Fixture):
        def __init__(self, sol, bindings, amounts):
            super().__init__(sol, bindings, amounts)
            for private, _payable, modifiers, body in self.functions.values():
                if private:
                    body[:0] = [
                        f'require({sender_is}{self.roles[m][0]}, "{self.roles[m][1]}");'
                        for m in modifiers
                        if m in self.roles
                    ]

        def _call(self, machine, caller, function, value, balance):
            self.caller = caller
            return super()._call(machine, caller, function, value, balance)

        def _term(self, term, env):
            if term.startswith(sender_is):
                return self.caller == self.bindings[term[len(sender_is):]]
            return super()._term(term, env)

    return Reader


def _random_script(rng, ir, amounts, calls):
    accounts = [agent for _role, agent in ir.roles]
    script = []
    for _ in range(calls):
        fn = rng.choice(ir.functions)
        caller = fn.agent if rng.random() < 0.7 else rng.choice(accounts)
        value = 0
        if fn.value_guard and rng.random() < 0.8:
            value = amounts[fn.value_guard]
        elif rng.random() < 0.1:
            value = rng.choice([1, 1000])
        script.append((caller, fn.name, value))
    return script


def test_simulator_agrees_with_a_reading_of_the_emitted_solidity():
    reader = _solidity_reader()
    rng = random.Random(8086)
    contracts = [load("purchase_fixed.rcl"), load("purchase_conflicted.rcl")]
    contracts += [random_lowerable(rng) for _ in range(100)]
    contracts += [random_flow(rng) for _ in range(100)]
    for contract in contracts:
        for fidelity in (False, True):
            ir = lower(contract, allow_conflicts=True, fidelity_internal_calls=fidelity)
            bindings = {role: agent for role, agent in ir.roles}
            amounts = {param: 10 * (i + 1) for i, param in enumerate(ir.params)}
            script = _random_script(rng, ir, amounts, 40)
            world, records = run_script(ir, script, bindings, amounts, 100)
            reference = reader(emit_solidity(ir), bindings, amounts)
            machine = reference.start()
            balances = dict.fromkeys(bindings.values(), 100)
            for (caller, function, value), record in zip(script, records):
                machine, outcome = reference.call(
                    machine, caller, function, value, balances[caller]
                )
                if outcome[0]:
                    balances[caller] -= value
                assert outcome == (record.ok, record.revert_message), (
                    emit_solidity(ir), script, records
                )
            flags = frozenset(flag for flag, value in world.flag_values if value)
            assert machine == (world.current_state, flags)
