"""Simulator tests: deployment, guard order, trace fidelity,
conservation, atomicity, monotonicity, and co-simulation against the
contract's own transition semantics."""

import random
from pathlib import Path

import pytest

from rclc.codegen import lower
from rclc.parser import parse_contract
from rclc.simulator import (
    SimError,
    call,
    co_simulate,
    deploy,
    parse_script,
    render_trace,
    run_script,
)

from contractgen import random_lowerable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BIND = {"buyer": "b", "seller": "s", "bank": "k", "carrier": "c"}
AMOUNTS = {"paymentAmount": 100, "shippingCosts": 10}


def load(name):
    result = parse_contract((FIXTURES / name).read_text(), file=name)
    assert result.ok, result.errors
    return result.contract


def fixed_ir():
    return lower(load("purchase_fixed.rcl"))


def conflicted_ir():
    return lower(load("purchase_conflicted.rcl"), allow_conflicts=True)


def total_money(world) -> int:
    return sum(balance for _account, balance in world.accounts) + world.contract_balance


# -- deploy -------------------------------------------------------------

def test_deploy_fresh_world():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    assert world.current_state == "Created"
    assert all(not v for _f, v in world.flag_values)
    assert world.event_log == () and world.call_log == ()
    assert world.balance("b") == 1000
    assert world.contract_balance == 0


def test_deploy_rejects_shared_account():
    bad = dict(BIND, carrier="b")
    with pytest.raises(SimError, match="share one account"):
        deploy(fixed_ir(), bad, AMOUNTS)


def test_deploy_rejects_missing_binding():
    bad = {k: v for k, v in BIND.items() if k != "carrier"}
    with pytest.raises(SimError, match="no account bound for role 'carrier'"):
        deploy(fixed_ir(), bad, AMOUNTS)


def test_deploy_rejects_missing_amount():
    with pytest.raises(SimError, match="shippingCosts"):
        deploy(fixed_ir(), BIND, {"paymentAmount": 100})


def test_deploy_rejects_unknown_extras():
    with pytest.raises(SimError, match="unknown role"):
        deploy(fixed_ir(), dict(BIND, auditor="z"), AMOUNTS)
    with pytest.raises(SimError, match="unknown parameter"):
        deploy(fixed_ir(), BIND, dict(AMOUNTS, gasPrice=1))


# -- single calls -------------------------------------------------------

def test_wrong_role_reverts_with_modifier_message():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, record = call(world, "s", "buyProduct")
    assert not record.ok
    assert record.revert_message == "Apenas o Comprador (b)"
    assert world.current_state == "Created"


def test_wrong_state_reverts():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, record = call(world, "b", "payProduct", 100)
    assert not record.ok
    assert record.revert_message == "Estado invalido para essa acao"


def test_wrong_value_reverts():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, _ = call(world, "b", "buyProduct")
    world, record = call(world, "b", "payProduct", 99)
    assert not record.ok
    assert record.revert_message == "Valor do pagamento incorreto"
    assert world.balance("b") == 1000  # nothing moved


def test_value_moves_into_contract():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, _ = call(world, "b", "buyProduct")
    world, record = call(world, "b", "payProduct", 100)
    assert record.ok
    assert world.balance("b") == 900
    assert world.contract_balance == 100
    assert world.current_state == "ProductPaid"
    assert record.events == (
        ("buyer", "bank", "2. Comprador pagou o produto ao banco."),
    )


def test_insufficient_funds_reverts_first():
    world = deploy(fixed_ir(), BIND, AMOUNTS, initial_balance=50)
    world, _ = call(world, "b", "buyProduct")
    # the role guard would also fail, but funds are checked first
    world, record = call(world, "s", "payProduct", 100)
    assert record.revert_message == "insufficient funds"


def test_non_payable_rejects_value():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, record = call(world, "b", "buyProduct", 5)
    assert record.revert_message == "buyProduct is not payable"


def test_unknown_function_and_account_are_errors():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    with pytest.raises(SimError, match="unknown function"):
        call(world, "b", "selfDestruct")
    with pytest.raises(SimError, match="unknown account"):
        call(world, "mallory", "buyProduct")


def test_repeat_guard_blocks_second_call():
    ir = fixed_ir()
    script = parse_script(
        "b buyProduct\nb payProduct value=100\nk notifyProductPayment\n"
        "s sendProduct\ns sendProduct\n"
    )
    world, records = run_script(ir, script, BIND, AMOUNTS)
    assert records[3].ok
    assert not records[4].ok
    assert records[4].revert_message == "Produto ja foi enviado"


# -- scripts and traces -------------------------------------------------

def script_calls(name):
    return parse_script((FIXTURES / "scripts" / name).read_text())


def test_conflicted_run_stalls_at_delivery():
    world, records = run_script(
        conflicted_ir(), script_calls("conflicted_run.txt"), BIND, AMOUNTS
    )
    assert [r.ok for r in records] == [True] * 5 + [False]
    assert records[-1].function == "deliverProduct"
    assert records[-1].revert_message == (
        "Frete nao foi pago pelo vendedor a transportadora"
    )
    assert world.current_state == "PaymentNotified"


def test_corrected_run_finalizes():
    world, records = run_script(
        fixed_ir(), script_calls("corrected_run.txt"), BIND, AMOUNTS
    )
    assert all(r.ok for r in records)
    assert len(records) == 12
    assert world.current_state == "Finalized"
    assert world.contract_balance == 110


def test_trace_is_byte_stable():
    ir = conflicted_ir()
    script = script_calls("conflicted_run.txt")
    first = render_trace(run_script(ir, script, BIND, AMOUNTS)[0])
    second = render_trace(run_script(ir, script, BIND, AMOUNTS)[0])
    assert first == second
    assert 'deliverProduct -> REVERT "Frete nao foi pago' in first
    assert "final state: PaymentNotified" in first
    assert "  contract = 110" in first


def test_empty_script_leaves_world_at_deploy():
    ir = fixed_ir()
    world, records = run_script(ir, [], BIND, AMOUNTS)
    assert records == []
    assert world == deploy(ir, BIND, AMOUNTS)


def test_parse_script_rejects_garbage():
    with pytest.raises(SimError, match="line 2"):
        parse_script("b buyProduct\nb payProduct value=ten\n")
    with pytest.raises(SimError, match="line 1"):
        parse_script("b\n")
    assert parse_script("# only a comment\n\n") == []
    # "²" and "٣" pass str.isdigit(); int() rejects the first and reads
    # the second as 3, so only ASCII digits are taken
    for value in ("²", "٣"):
        with pytest.raises(SimError, match=f"line 1: expected value=<n>, found 'value={value}'"):
            parse_script(f"b payProduct value={value}\n")


# -- invariants over random scripts --------------------------------------

def random_scripts(rng, ir, n):
    accounts = ["b", "s", "k", "c"]
    functions = [fn.name for fn in ir.functions]
    values = [0, 0, 0, 10, 100, 7]
    for _ in range(n):
        yield [
            (rng.choice(accounts), rng.choice(functions), rng.choice(values))
            for _ in range(rng.randint(1, 20))
        ]


def test_conservation_atomicity_monotonicity_over_random_scripts():
    rng = random.Random(20260819)
    ir = fixed_ir()
    state_index = {name: i for i, name in enumerate(ir.states)}
    for script in random_scripts(rng, ir, 200):
        world = deploy(ir, BIND, AMOUNTS)
        expected_total = total_money(world)
        for account, function, value in script:
            before = world
            world, record = call(world, account, function, value)
            assert total_money(world) == expected_total
            assert (
                state_index[world.current_state]
                >= state_index[before.current_state]
            )
            if not record.ok:
                # a revert changes nothing but the call log
                assert world.accounts == before.accounts
                assert world.contract_balance == before.contract_balance
                assert world.current_state == before.current_state
                assert world.flag_values == before.flag_values
                assert world.event_log == before.event_log
                assert world.call_log == before.call_log + (record,)


def test_fidelity_internal_call_reverts_whole_transaction():
    src = """
    agents a, b;
    actions x, y, w, z;
    inline {b,a}z;

    {a,b}[x]({a,b}O(y) & {b,a}O(w) & {a,b}[y]({b,a}O(z)));
    """
    result = parse_contract(src)
    assert result.ok
    ir = lower(result.contract, fidelity_internal_calls=True)
    assert ir.function("z").private
    bindings = {role: agent for role, agent in ir.roles}
    world = deploy(ir, bindings, {})
    world, record = call(world, "a", "x")
    assert record.ok
    # y itself passes, but its internal call to z runs with a as the
    # caller against z's b-only guard; the whole call must unwind,
    # leaving y's flag unset
    world, record = call(world, "a", "y")
    assert not record.ok
    assert record.revert_message == "only b may call this"
    assert not world.flag("yDone")
    # and a stranger cannot reach the private function directly
    _world, record = call(world, "b", "z")
    assert not record.ok
    assert record.revert_message == "z is private"


# -- co-simulation -------------------------------------------------------

def test_corrected_full_run_conforms():
    contract = load("purchase_fixed.rcl")
    ir = lower(contract)
    world, _ = run_script(ir, script_calls("corrected_run.txt"), BIND, AMOUNTS)
    assert co_simulate(contract, world) == []


def test_conflicted_stalled_run_conforms():
    contract = load("purchase_conflicted.rcl")
    ir = lower(contract, allow_conflicts=True)
    world, _ = run_script(ir, script_calls("conflicted_run.txt"), BIND, AMOUNTS)
    assert co_simulate(contract, world) == []


def test_partial_corrected_run_conforms():
    contract = load("purchase_fixed.rcl")
    ir = lower(contract)
    script = script_calls("corrected_run.txt")[:7]
    world, _ = run_script(ir, script, BIND, AMOUNTS)
    assert world.current_state == "ProductDelivered"
    assert co_simulate(contract, world) == []


def test_random_lowerable_full_runs_conform():
    rng = random.Random(99)
    for _ in range(30):
        contract = random_lowerable(rng)
        ir = lower(contract)
        bindings = {role: agent for role, agent in ir.roles}
        world = deploy(ir, bindings, {})
        for fn in ir.functions:
            world, record = call(world, fn.agent, fn.name)
            assert record.ok, (fn.name, record.revert_message)
        assert world.current_state == "Finalized"
        assert co_simulate(contract, world) == []


def test_random_scripts_never_break_conformity():
    # arbitrary call soup: whatever the machine lets through must be a
    # trace the source semantics accepts
    rng = random.Random(4242)
    contract = load("purchase_fixed.rcl")
    ir = lower(contract)
    for script in random_scripts(rng, ir, 50):
        world, _ = run_script(ir, script, BIND, AMOUNTS)
        issues = [
            i for i in co_simulate(contract, world) if "rejects" in i
        ]
        assert issues == []
