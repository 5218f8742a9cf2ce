"""Simulator tests: deployment, guard order, trace fidelity,
conservation, atomicity, monotonicity, and co-simulation against the
contract's own transition semantics."""

import copy
import pickle
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from rclc.codegen import CallFn, EmitEvent, MachineIR, SetFlag, SetState, lower
from rclc.parser import parse_contract
from rclc.simulator import (
    MAX_VALUE,
    CallRecord,
    EventEntry,
    SimError,
    World,
    call,
    co_simulate,
    deploy,
    parse_script,
    parse_uint256,
    render_trace,
    run_script,
)

import rclc.simulator
from contractgen import random_flow, random_lowerable
from reference import reference_parse_script, reference_render_trace

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


def test_deploy_rejects_a_negative_initial_balance():
    with pytest.raises(SimError) as raised:
        deploy(fixed_ir(), BIND, AMOUNTS, initial_balance=-1)
    assert str(raised.value) == "initial balance must be non-negative"
    assert deploy(fixed_ir(), BIND, AMOUNTS, initial_balance=0).balance("b") == 0


def test_deploy_rejects_a_negative_amount():
    # a uint amount is never negative; the corrected run would otherwise
    # get past buyProduct with paymentAmount=-100
    with pytest.raises(SimError, match="amount parameter 'paymentAmount' must be non-negative"):
        deploy(fixed_ir(), BIND, dict(AMOUNTS, paymentAmount=-100))
    assert deploy(fixed_ir(), BIND, dict(AMOUNTS, paymentAmount=0)).amount_of["paymentAmount"] == 0


@pytest.mark.parametrize("beyond", [MAX_VALUE + 1, 10**5000], ids=["2**256", "10**5000"])
def test_deploy_and_call_refuse_values_beyond_uint256(beyond):
    # each would give a World whose trace cannot print its balances
    ir = fixed_ir()
    with pytest.raises(SimError) as raised:
        deploy(ir, BIND, dict(AMOUNTS, shippingCosts=beyond))
    assert str(raised.value) == "amount parameter 'shippingCosts' must be at most 2**256 - 1"
    with pytest.raises(SimError) as raised:
        deploy(ir, BIND, AMOUNTS, initial_balance=beyond)
    assert str(raised.value) == "initial balance must be at most 2**256 - 1"
    world = deploy(ir, BIND, AMOUNTS)
    for _ in range(2):  # misuse is never stored: it raises every time
        with pytest.raises(SimError) as raised:
            call(world, "b", "payProduct", beyond)
        assert str(raised.value) == "call value must be at most 2**256 - 1"
        assert world._snapshot.refusals == {} and world.call_log == ()
    # up to the bound, every such World runs and renders
    top = deploy(ir, BIND, dict(AMOUNTS, shippingCosts=MAX_VALUE), initial_balance=MAX_VALUE)
    top, _ = call(top, "b", "buyProduct")
    top, record = call(top, "b", "payProduct", MAX_VALUE)
    assert record.revert_message == "Valor do pagamento incorreto"
    assert f"call b payProduct value={MAX_VALUE} -> REVERT" in render_trace(top)
    _, record = call(world, "b", "payProduct", MAX_VALUE)
    assert record.revert_message == "insufficient funds"


@pytest.mark.parametrize("account", ["", "a b", "\tb", "b#2", "#"])
def test_deploy_rejects_an_account_no_script_line_can_name(account):
    # a script line splits on whitespace and ends at '#', so no line
    # could ever call as this account
    with pytest.raises(SimError) as raised:
        deploy(fixed_ir(), dict(BIND, seller=account), AMOUNTS)
    assert str(raised.value) == (
        f"role 'seller' is bound to {account!r}, which no script line can name"
    )


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


def test_co_simulate_names_each_divergence():
    # runs of one machine held against contracts it does not implement: one
    # without its first event, one that owes more, one that owes less
    def contract(text):
        return parse_contract("agents a, b;\n" + text).contract

    ir = lower(contract("actions x, y;\n{a,b}[x]({b,a}O(y));\n"))
    started, _ = call(deploy(ir, {"a": "a", "b": "b"}, {}), "a", "x")
    finished, _ = call(started, "b", "y")
    assert (started.current_state, finished.current_state) == ("S1", "Finalized")
    assert co_simulate(contract("actions y;\n{b,a}O(y);\n"), started) == [
        "call x performed {a,b} x, which the contract rejects: event {a,b} x does not resolve",
    ]
    owes_more = contract("actions x, y, z;\n{a,b}[x]({b,a}O(y) & {b,a}O(z));\n")
    assert co_simulate(owes_more, finished) == [
        "machine is Finalized but obligations remain: O {b,a} z",
    ]
    owes_less = contract("actions x;\n{a,b}[x]({b,a}F(x));\n")
    assert co_simulate(owes_less, started) == [
        "all obligations are discharged but the machine is in S1, not Finalized",
    ]


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


# -- the call log against the copying reference ---------------------------
# `RefWorld` and `reference_call` are the simulator as it was before the
# call log became a shared chain: each call copies both logs into fresh
# tuples, which costs time linear in the log. Kept verbatim apart from
# the names, as the reference the chained `call` must agree with.

@dataclass(frozen=True)
class RefWorld:
    ir: MachineIR = field(compare=False, repr=False)
    bindings: tuple[tuple[str, str], ...]  # (role name, account)
    amounts: tuple[tuple[str, int], ...]  # (param, value)
    accounts: tuple[tuple[str, int], ...]  # (account, balance)
    contract_balance: int
    current_state: str
    flag_values: tuple[tuple[str, bool], ...]
    event_log: tuple[EventEntry, ...] = ()
    call_log: tuple[CallRecord, ...] = ()


class _RefRevert(Exception):
    pass


class _RefDraft:
    """Mutable working copy that a revert simply discards."""

    def __init__(self, world: RefWorld):
        self.accounts = dict(world.accounts)
        self.contract_balance = world.contract_balance
        self.state = world.current_state
        self.flags = dict(world.flag_values)
        self.events: list[EventEntry] = []


def reference_call(
    world: RefWorld, caller: str, function: str, value: int = 0
) -> tuple[RefWorld, CallRecord]:
    ir = world.ir
    try:
        fn = ir.function(function)
    except KeyError:
        raise SimError(f"unknown function '{function}'") from None
    bindings = dict(world.bindings)
    amounts = dict(world.amounts)
    accounts = dict(world.accounts)
    if caller not in accounts:
        raise SimError(f"unknown account '{caller}'")
    if value < 0:
        raise SimError("call value must be non-negative")

    draft = _RefDraft(world)

    def run(fn, value: int) -> None:
        # role and state guards mirror the emitted modifiers
        if caller != bindings[fn.role_guard]:
            raise _RefRevert(dict(ir.role_messages)[fn.agent])
        if fn.state_guard is not None and draft.state != fn.state_guard:
            raise _RefRevert(ir.state_message)
        if fn.value_guard is not None and value != amounts[fn.value_guard]:
            raise _RefRevert(fn.value_message)
        for flag, wanted, message in fn.flag_preconditions:
            if draft.flags[flag] != wanted:
                raise _RefRevert(message)
        for effect in fn.effects:
            if isinstance(effect, SetState):
                draft.state = effect.state
            elif isinstance(effect, SetFlag):
                draft.flags[effect.flag] = True
            elif isinstance(effect, EmitEvent):
                draft.events.append(
                    (effect.sender, effect.receiver, effect.message)
                )
            elif isinstance(effect, CallFn):
                # internal call: same caller identity, same call value
                run(ir.function(effect.name), value)
        if fn.finalize and ir.finalization_state is not None:
            if draft.state == ir.finalization_state and all(
                draft.flags[f] for f in ir.finalization_flags
            ):
                draft.state = "Finalized"

    try:
        if fn.private:
            raise _RefRevert(f"{function} is private")
        if value > draft.accounts[caller]:
            raise _RefRevert("insufficient funds")
        if fn.value_guard is None and value > 0:
            raise _RefRevert(f"{function} is not payable")
        draft.accounts[caller] -= value
        draft.contract_balance += value
        run(fn, value)
    except _RefRevert as r:
        record = CallRecord(caller, function, value, ok=False, revert_message=str(r))
        return replace(world, call_log=world.call_log + (record,)), record

    record = CallRecord(
        caller, function, value, ok=True, events=tuple(draft.events)
    )
    new_world = replace(
        world,
        accounts=tuple(draft.accounts.items()),
        contract_balance=draft.contract_balance,
        current_state=draft.state,
        flag_values=tuple(draft.flags.items()),
        event_log=world.event_log + tuple(draft.events),
        call_log=world.call_log + (record,),
    )
    return new_world, record


def mixed_script(rng, ir, accounts, base, length):
    """`length` calls: the base script in order, each next call taken
    with probability 1/2, between random calls that mostly revert, with
    a few unknown functions and accounts."""
    functions = [fn.name for fn in ir.functions]
    values = [0, 0, 0, 10, 100, 7, 10**6]
    script, pending = [], list(base)
    while len(script) < length:
        roll = rng.random()
        if pending and rng.random() < 0.5:
            script.append(pending.pop(0))
        elif roll < 0.02:
            script.append((rng.choice(accounts + ["mallory"]), "nosuch", 0))
        elif roll < 0.04:
            script.append(("mallory", rng.choice(functions), 0))
        else:
            script.append(
                (rng.choice(accounts), rng.choice(functions), rng.choice(values))
            )
    return script


def assert_same_fold(ir, bindings, amounts, script, trace_every=1):
    """Fold `script` through `call` and `reference_call` side by side and
    compare after every step; the traces, `render_trace` against
    `reference_render_trace`, only after every `trace_every`-th call and
    the last."""
    world = deploy(ir, bindings, amounts)
    ref = RefWorld(
        ir, world.bindings, world.amounts, world.accounts,
        world.contract_balance, world.current_state, world.flag_values,
    )
    for step, (account, function, value) in enumerate(script):
        try:
            ref, ref_record = reference_call(ref, account, function, value)
        except SimError as expected:
            with pytest.raises(SimError, match=f"^{expected}$"):
                call(world, account, function, value)
            continue
        world, record = call(world, account, function, value)
        assert record == ref_record, step
        assert world.current_state == ref.current_state
        assert world.flag_values == ref.flag_values
        assert world.accounts == ref.accounts
        assert world.contract_balance == ref.contract_balance
        assert world.call_log == ref.call_log
        assert world.event_log == ref.event_log
        if step % trace_every == 0 or step == len(script) - 1:
            assert render_trace(world) == reference_render_trace(ref)
    return world


def test_call_agrees_with_the_copying_reference():
    rng = random.Random(1848)
    accounts = ["b", "s", "k", "c"]
    targets = [
        (fixed_ir(), script_calls("corrected_run.txt")),
        (conflicted_ir(), script_calls("conflicted_run.txt")),
        (
            lower(load("purchase_conflicted.rcl"), allow_conflicts=True,
                  fidelity_internal_calls=True),
            script_calls("conflicted_run.txt"),
        ),
    ]
    for ir, base in targets:
        for _ in range(15):
            length = rng.randint(1, 60)
            assert_same_fold(ir, BIND, AMOUNTS, mixed_script(rng, ir, accounts, base, length))
    for _ in range(40):
        contract = random_lowerable(rng)
        ir = lower(contract)
        bindings = {role: agent for role, agent in ir.roles}
        base = [(fn.agent, fn.name, 0) for fn in ir.functions]
        script = mixed_script(rng, ir, list(bindings.values()), base, rng.randint(1, 40))
        assert_same_fold(ir, bindings, {}, script)
    # nested flows, payable annotations and, in fidelity mode, internal
    # calls whose callee reverts after the caller's effects have run
    for _ in range(40):
        contract = random_flow(rng)
        for fidelity in (False, True):
            ir = lower(contract, allow_conflicts=True, fidelity_internal_calls=fidelity)
            bindings = {role: agent for role, agent in ir.roles}
            amounts = {param: 10 for param in ir.params}
            base = [(fn.agent, fn.name, amounts.get(fn.value_guard, 0))
                    for fn in ir.functions if not fn.private]
            script = mixed_script(rng, ir, list(bindings.values()), base, rng.randint(40, 80))
            assert_same_fold(ir, bindings, amounts, script)
    ir, base = targets[0]
    long_script = mixed_script(rng, ir, accounts, base, 3200)
    world = assert_same_fold(ir, BIND, AMOUNTS, long_script, trace_every=100)
    assert len(world.call_log) >= 3000 and world.current_state == "Finalized"


def assert_frozen(world):
    """`world` refuses assignment and deletion of every field and view,
    and its class, fields and repr are the documented ones."""
    assert World._fields == ("_snapshot", "calls")
    assert World.__slots__ == ("_snapshot", "calls", "__dict__")
    read = ("ir", "account_of", "amount_of", "balance_of", "contract_balance",
            "current_state", "flag_of")
    views = ("bindings", "amounts", "accounts", "flag_values")
    for name in World._fields + read + views + ("call_log", "event_log", "x"):
        with pytest.raises(AttributeError):
            setattr(world, name, None)
        with pytest.raises(AttributeError):
            delattr(world, name)
    shown = ("bindings", "amounts", "accounts", "contract_balance", "current_state",
             "flag_values", "event_log", "call_log")
    fields = ", ".join(f"{name}={getattr(world, name)!r}" for name in shown)
    assert repr(world) == f"World({fields})"


def test_a_revert_world_is_a_fresh_value(monkeypatch):
    ir = fixed_ir()
    script = mixed_script(
        random.Random(77), ir, ["b", "s", "k", "c"], script_calls("corrected_run.txt"), 200,
    )
    script = [c for c in script if c[0] != "mallory" and c[1] != "nosuch"]
    world = deploy(ir, BIND, AMOUNTS)
    assert_frozen(world)
    sites = {"deploy"}
    for account, function, value in script:
        # cache the parent's logs first: the child must not inherit them
        call_log, event_log = world.call_log, world.event_log
        decided = (account, function, value) in world._snapshot.refusals
        child, record = call(world, account, function, value)
        assert child.call_log == call_log + (record,)
        assert child.event_log == event_log + record.events
        assert world.call_log is call_log and world.event_log is event_log
        assert_frozen(child)
        sites.add("success" if record.ok else "memo hit" if decided else "fresh revert")
        world = child
    assert world.current_state == "Finalized"
    for site, clone in (("pickle", pickle.loads(pickle.dumps(world))), ("copy", copy.copy(world))):
        assert clone is not world and clone == world
        assert_frozen(clone)
        sites.add(site)
    assert sites == {"deploy", "success", "fresh revert", "memo hit", "pickle", "copy"}
    # `deploy` and `call` are the only constructors
    with pytest.raises(TypeError):
        World(world._snapshot, world.calls)

    # run_script folds through the module binding, which the benchmark's
    # tracer patches to count calls and reverts
    seen = []
    original = rclc.simulator.call

    def counting(world, caller, function, value=0):
        seen.append((caller, function, value))
        return original(world, caller, function, value)

    monkeypatch.setattr(rclc.simulator, "call", counting)
    final, records = run_script(ir, script, BIND, AMOUNTS)
    assert seen == script
    assert len(records) == len(script)
    assert final == world


def test_call_record_is_a_named_tuple():
    record = CallRecord("b", "buyProduct", 0, ok=False, revert_message="no")
    assert record == ("b", "buyProduct", 0, False, "no", ())
    assert record.events == () and record._replace(ok=True).ok
    assert repr(record) == (
        "CallRecord(caller='b', function='buyProduct', value=0, ok=False, "
        "revert_message='no', events=())"
    )


# -- equality of long runs ----------------------------------------------

def test_long_worlds_compare_by_value_without_recursion():
    ir = fixed_ir()
    script = mixed_script(
        random.Random(8000), ir, ["b", "s", "k", "c"],
        script_calls("corrected_run.txt"), 8000,
    )
    script = [c for c in script if c[0] != "mallory" and c[1] != "nosuch"]
    assert len(script) > 7500
    first, _ = run_script(ir, script, BIND, AMOUNTS)
    second, _ = run_script(ir, script, BIND, AMOUNTS)
    assert first is not second and first.calls is not second.calls
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert repr(first).startswith("World(bindings=")
    # the same calls but for the first, which reverts for another reason
    assert script[0] == ("b", "buyProduct", 0)
    changed, _ = run_script(ir, [("s", "buyProduct", 0)] + script, BIND, AMOUNTS)
    other, _ = run_script(ir, [("k", "buyProduct", 0)] + script, BIND, AMOUNTS)
    assert changed.call_log[0] != other.call_log[0]
    assert changed.call_log[1:] == other.call_log[1:]
    assert changed.event_log == other.event_log
    assert changed != other
    assert changed != first


def test_long_worlds_pickle_and_copy_without_recursion():
    # the chained log is passed flat, so an 8000-call World round-trips
    # at the default recursion limit
    ir = fixed_ir()
    script = mixed_script(
        random.Random(8001), ir, ["b", "s", "k", "c"],
        script_calls("corrected_run.txt"), 8000,
    )
    script = [c for c in script if c[0] != "mallory" and c[1] != "nosuch"]
    world, _ = run_script(ir, script, BIND, AMOUNTS)
    assert len(world.call_log) > 7500 and world.current_state == "Finalized"
    for clone in (
        pickle.loads(pickle.dumps(world)), copy.copy(world), copy.deepcopy(world),
    ):
        assert clone is not world and clone == world
        assert hash(clone) == hash(world) and repr(clone) == repr(world)
        assert render_trace(clone) == render_trace(world)
        # the clone runs on like the original
        assert call(clone, "b", "buyProduct") == call(world, "b", "buyProduct")


# -- parse and render against the references -------------------------------

_TAILS = ["value=0", "value=10", "value=100", "value=007", f"value={MAX_VALUE}",
          f"value=000{MAX_VALUE}", "value=", "value=x", "value=²", "value=٣", "valu=3",
          "value=-1", "value=1_0", "=5", "extra"]
_GAPS = [" ", "\t", "  \t", "　", "\xa0"]
_ENDS = ["\n", "\r\n", "\r", "\x0c", " "]


def noisy_line(rng, accounts, functions):
    """One script line, without its end: a comment, a blank or
    whitespace-only line, tabs and other whitespace, a `value=` tail, and
    now and then a malformed line of each kind."""
    roll = rng.random()
    if roll < 0.1:
        words = []
    elif roll < 0.13:
        words = [rng.choice(accounts)]
    elif roll < 0.16:
        words = [rng.choice(accounts), rng.choice(functions), "value=1", "x"]
    elif roll < 0.6:
        words = [rng.choice(accounts), rng.choice(functions)]
    else:
        tails = _TAILS[:6] if rng.random() < 0.9 else _TAILS
        words = [rng.choice(accounts), rng.choice(functions), rng.choice(tails)]
    gap = rng.choice(_GAPS)
    line = rng.choice(["", gap]) + gap.join(words) + rng.choice(["", gap])
    comment = rng.random()
    if comment < 0.15:
        line += rng.choice(["# note", "#", "#b buyProduct", " # value=x y z"])
    elif comment < 0.2 and words:
        line = line.replace(words[-1], words[-1] + "#glued", 1)
    return line


def noisy_script(rng, accounts, functions, length=None, distinct=None):
    """Script text of `length` noisy lines (1 to 30 when not given), each
    with its own kind of line end. Two in five lines repeat an earlier
    one, malformed lines too; with `distinct`, every line is one of that
    many."""
    pool = [noisy_line(rng, accounts, functions) for _ in range(distinct or 0)]
    lines = []
    for _ in range(length or rng.randint(1, 30)):
        if pool:
            lines.append(rng.choice(pool))
        elif lines and rng.random() < 0.4:
            lines.append(rng.choice(lines))
        else:
            lines.append(noisy_line(rng, accounts, functions))
    ends = [rng.choice(_ENDS) for _ in lines]
    if rng.random() < 0.5:
        ends[-1] = ""
        lines[-1] = lines[-1].rstrip(" ")
    return "".join(line + end for line, end in zip(lines, ends))


def parsed(parse, text):
    try:
        return parse(text)
    except SimError as error:
        return str(error)


def test_parse_script_agrees_with_the_reference():
    # each distinct line is parsed once, so a bad line that repeats must
    # still be reported where it first occurs
    rng = random.Random(1907)
    ir = fixed_ir()
    accounts = ["b", "s", "k", "c", "mallory"]
    functions = [fn.name for fn in ir.functions] + ["nosuch"]
    kinds = set()

    def agree(text):
        got = parsed(parse_script, text)
        assert got == parsed(reference_parse_script, text), repr(text[:2000])
        if isinstance(got, str):
            kinds.add("bad value" if "expected value=<n>" in got else "bad line")
            lineno = int(got.split(":")[0].removeprefix("script line "))
            lines = text.splitlines()
            if lines.count(lines[lineno - 1]) > 1:
                kinds.add("repeated bad line")
        else:
            kinds.add("calls" if got else "no calls")

    for _ in range(3000):
        agree(noisy_script(rng, accounts, functions))
    assert kinds == {"calls", "no calls", "bad value", "bad line", "repeated bad line"}
    # thousands of lines, few of them distinct
    kinds.clear()
    for distinct in (1, 2, 3, 4, 6, 8, 12, 16):
        agree(noisy_script(rng, accounts, functions, rng.randint(2000, 5000), distinct))
    assert {"calls", "repeated bad line"} <= kinds
    # a malformed line first seen after valid ones, then repeated
    for bad in ("b buyProduct value=x", "b buyProduct value=1 x", "b"):
        text = f"b buyProduct\n\n# note\n{bad}\nb buyProduct\n{bad}\n{bad}  # again\n" * 3
        agree(text)
        assert parsed(parse_script, text).startswith("script line 4: ")


def test_parse_uint256_reads_ascii_digits_up_to_max_value():
    assert [parse_uint256(t) for t in ("0", "007", "000", str(MAX_VALUE))] == [0, 7, 0, MAX_VALUE]
    assert parse_uint256("0" * 5000 + "7") == 7
    for text in ("", "-1", "+1", "１", "1_0", " 1", "1 ", "٣", "0x10"):
        with pytest.raises(ValueError):
            parse_uint256(text)
    for text in (str(MAX_VALUE + 1), "9" * 79, "9" * 5000):
        with pytest.raises(OverflowError):
            parse_uint256(text)


def test_parse_script_rejects_values_beyond_uint256():
    assert parse_script(f"b payProduct value={MAX_VALUE}\n") == [("b", "payProduct", MAX_VALUE)]
    assert parse_script("b payProduct value=" + "0" * 5000 + "7\n") == [("b", "payProduct", 7)]
    assert parse_script("b payProduct value=000\n") == [("b", "payProduct", 0)]
    for digits in (str(MAX_VALUE + 1), "9" * 79, "9" * 5000):
        with pytest.raises(SimError) as raised:
            parse_script(f"b buyProduct\nb payProduct value={digits}\n")
        assert str(raised.value) == "script line 2: value=<n> must be at most 2**256 - 1"


def test_script_text_to_trace_matches_the_references():
    # parse, fold and render seeded scripts of calls with and without
    # value over nested flows in both lowering modes
    rng = random.Random(2718)
    for _ in range(25):
        contract = random_flow(rng)
        for fidelity in (False, True):
            ir = lower(contract, allow_conflicts=True, fidelity_internal_calls=fidelity)
            bindings = {role: agent for role, agent in ir.roles}
            amounts = {param: 10 for param in ir.params}
            base = [(fn.agent, fn.name, amounts.get(fn.value_guard, 0))
                    for fn in ir.functions if not fn.private]
            script = mixed_script(rng, ir, list(bindings.values()), base, rng.randint(40, 120))
            script = [c for c in script if c[0] != "mallory" and c[1] != "nosuch"]
            text = "".join(
                f"{account}\t{function}{f' value={value}' if value else ''}"
                + rng.choice(["", "  # call"]) + rng.choice(["\n", "\r\n"])
                for account, function, value in script
            )
            calls = parse_script(text)
            assert calls == reference_parse_script(text) == script
            world, records = run_script(ir, calls, bindings, amounts)
            assert world.call_log == tuple(records)
            assert any(r.ok and r.events for r in records)
            assert render_trace(world) == reference_render_trace(world)


# -- refusals decided once per snapshot ---------------------------------------

def test_a_refused_triple_is_decided_again_after_a_success():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, early = call(world, "b", "payProduct", 100)
    world, again = call(world, "b", "payProduct", 100)
    assert again is early and early.revert_message == "Estado invalido para essa acao"
    world, record = call(world, "b", "buyProduct")
    assert record.ok
    world, paid = call(world, "b", "payProduct", 100)
    assert paid.ok and world.current_state == "ProductPaid"
    assert world.balance("b") == 900


def test_refusals_tell_apart_triples_that_differ_only_in_value():
    world = deploy(fixed_ir(), BIND, AMOUNTS)
    world, _ = call(world, "b", "buyProduct")
    world, wrong = call(world, "b", "payProduct", 99)
    assert wrong.revert_message == "Valor do pagamento incorreto"
    world, right = call(world, "b", "payProduct", 100)
    assert right.ok and world.contract_balance == 100
    # not payable: 1 and True are equal keys, but each record keeps its value
    world, one = call(world, "b", "buyProduct", 1)
    world, true = call(world, "b", "buyProduct", True)
    assert one.revert_message == true.revert_message == "buyProduct is not payable"
    assert type(one.value) is int and type(true.value) is bool


def test_refusals_are_not_shared_across_deployments():
    ir = fixed_ir()
    # b holds no role here, so buyProduct reverts on the role guard
    elsewhere = deploy(ir, dict(BIND, buyer="x", seller="b"), AMOUNTS)
    elsewhere, refused = call(elsewhere, "b", "buyProduct")
    assert refused.revert_message == "Apenas o Comprador (b)"
    world, record = call(deploy(ir, BIND, AMOUNTS), "b", "buyProduct")
    assert record.ok and world.current_state != elsewhere.current_state


def test_an_internal_call_revert_is_decided_once():
    src = """
    agents a, b;
    actions x, y, w, z;
    inline {b,a}z;

    {a,b}[x]({a,b}O(y) & {b,a}O(w) & {a,b}[y]({b,a}O(z)));
    """
    result = parse_contract(src)
    assert result.ok
    ir = lower(result.contract, fidelity_internal_calls=True)
    world = deploy(ir, {role: agent for role, agent in ir.roles}, {})
    world, _ = call(world, "a", "x")
    after_x = world
    world, first = call(world, "a", "y")
    world, second = call(world, "a", "y")
    assert second is first and first.revert_message == "only b may call this"
    assert world.flag_values == after_x.flag_values
    assert world.call_log == after_x.call_log + (first, first)
    # misuse is never stored: it raises every time
    for _ in range(2):
        with pytest.raises(SimError, match="unknown account"):
            call(world, "mallory", "y")
        with pytest.raises(SimError, match="non-negative"):
            call(world, "a", "y", -1)


def test_a_pickled_or_copied_world_runs_on_like_the_original():
    ir = fixed_ir()
    script = mixed_script(
        random.Random(31), ir, ["b", "s", "k", "c"], script_calls("corrected_run.txt"), 600,
    )
    script = [c for c in script if c[0] != "mallory" and c[1] != "nosuch"]
    half = len(script) // 2

    def run_on(world):
        records = []
        for account, function, value in script[half:]:
            world, record = call(world, account, function, value)
            records.append(record)
        return world, records

    world, _ = run_script(ir, script[:half], BIND, AMOUNTS)
    # the clones start with no refusals; the original has decided some
    clones = [pickle.loads(pickle.dumps(world)), copy.copy(world), copy.deepcopy(world)]
    final, records = run_on(world)
    assert final.current_state == "Finalized"
    for clone in clones:
        clone_final, clone_records = run_on(clone)
        assert clone_records == records
        assert clone_final == final and render_trace(clone_final) == render_trace(final)
