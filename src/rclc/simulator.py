"""Desk-scale execution of the generated state machine.

A World holds named accounts with integer balances, the contract's own
balance, the current state, the flag assignment, and the log of calls
made. Calls are pure: `call` returns a fresh World and the record of
what happened. A reverted call changes nothing but the call log.

Every World, whether deployed, after a successful call or after a
revert, comes from the one constructor. The call log is stored as a
persistent chain of (previous, record) pairs, newest first, which every
later World shares, so a call costs the same however many calls came
before it. `World.call_log` and `World.event_log` are tuples built from
the chain when first read and then kept; the event log is the
successful calls' events in call order. Equality, hashing, repr, pickle
and copy read those tuples, never the chain.

Guard evaluation order per call: private, caller funds, payability,
role, state, call value, flag preconditions in declaration order. The
first failing guard reverts with its message. `call` checks them
against the World itself, so a reverted call builds nothing but its
record and a World that passes on its parent's balances, state and
flags. Only a call that passes its guards gets a mutable working copy.
Internal calls (fidelity mode) check the callee's role, state, value
and flag guards, through the same function, against that copy; they
run with the original caller's identity, so a role-guarded callee
inspects the outer caller, and any revert inside unwinds the whole call.

Money only flows in: a payable call moves the call value from the
caller to the contract balance, and no generated function pays out, so
the sum of all balances is constant across any call.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .ast import Frozen
from .codegen import CallFn, EmitEvent, FunctionIR, MachineIR, SetFlag, SetState
from .semantics import ContractSemantics, StepError

__all__ = [
    "SimError",
    "CallRecord",
    "World",
    "deploy",
    "call",
    "parse_script",
    "run_script",
    "render_trace",
    "co_simulate",
]

EventEntry = tuple  # (sender role, receiver role, message)


_set = object.__setattr__  # writes a field of a Frozen value


class SimError(Exception):
    """Misuse of the simulator itself: unknown functions or accounts,
    bad bindings, malformed scripts. Distinct from a revert, which is a
    normal, recorded outcome."""


class CallRecord(NamedTuple):
    caller: str
    function: str
    value: int
    ok: bool
    revert_message: str | None = None
    events: tuple[EventEntry, ...] = ()


class World(Frozen):
    """Built by `deploy` and `call` only. Two Worlds are equal when
    everything but the IR is: the `_shown` views and both logs.

    Each datum is held once, in a dict that is never mutated, so a World
    shares it with its parent wherever a call leaves it unchanged:
    role -> account, parameter -> amount, account -> balance and
    flag -> value. `bindings`, `amounts`, `accounts` and `flag_values`
    are read-only tuple views of those dicts. `calls` is the log's
    chain, newest first.

    Unlike the other `Frozen` values, a World has no slots but an
    instance dict, set whole by `__init__`: `call_log` and `event_log`
    are cached there when first read, and one dict write per call costs
    less than one slot write per field."""

    _fields = (
        "ir", "account_of", "amount_of", "balance_of", "contract_balance",
        "current_state", "flag_of", "calls",
    )
    _shown = (
        "bindings", "amounts", "accounts", "contract_balance",
        "current_state", "flag_values", "event_log", "call_log",
    )
    _key = attrgetter(*_shown)

    def __init__(self, ir: MachineIR, account_of: dict[str, str], amount_of: dict[str, int],
                 balance_of: dict[str, int], contract_balance: int, current_state: str,
                 flag_of: dict[str, bool], calls: tuple | None = None):
        _set(self, "__dict__", {
            "ir": ir, "account_of": account_of, "amount_of": amount_of,
            "balance_of": balance_of, "contract_balance": contract_balance,
            "current_state": current_state, "flag_of": flag_of, "calls": calls,
        })

    bindings = property(lambda self: tuple(self.account_of.items()))
    amounts = property(lambda self: tuple(self.amount_of.items()))
    accounts = property(lambda self: tuple(self.balance_of.items()))
    flag_values = property(lambda self: tuple(self.flag_of.items()))

    @cached_property
    def call_log(self) -> tuple[CallRecord, ...]:
        records: list[CallRecord] = []
        node = self.calls
        while node is not None:
            node, record = node
            records.append(record)
        records.reverse()
        return tuple(records)

    @cached_property
    def event_log(self) -> tuple[EventEntry, ...]:
        # a reverted record carries no events, so this is exactly what
        # the successful calls emitted, in order
        return tuple(event for record in self.call_log for event in record.events)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._shown, self._key(self)))
        return f"World({fields})"

    def __reduce__(self):
        # the flat log, not the chain, whose nesting would exhaust the
        # recursion limit of pickle and deepcopy on a long run
        fields = [getattr(self, name) for name in self._fields[:-1]]
        return _rebuild, (self.call_log, *fields)

    def balance(self, account: str) -> int:
        return self.balance_of[account]

    def flag(self, name: str) -> bool:
        return self.flag_of[name]


def _rebuild(call_log: tuple[CallRecord, ...], *fields) -> World:
    """The World that `World.__reduce__` took apart."""
    calls = None
    for record in call_log:
        calls = (calls, record)
    return World(*fields, calls)


def deploy(
    ir: MachineIR,
    bindings: dict[str, str],
    amounts: dict[str, int],
    initial_balance: int = 1000,
) -> World:
    """Create a fresh World in the Created state.

    Every role must be bound to its own account, one a script line can
    name, and every amount parameter given a non-negative value;
    leftovers in either map are rejected."""
    role_names = [role for role, _agent in ir.roles]
    for role in role_names:
        if role not in bindings:
            raise SimError(f"no account bound for role '{role}'")
    for role in bindings:
        if role not in role_names:
            raise SimError(f"binding for unknown role '{role}'")
    accounts = [bindings[role] for role in role_names]
    for role, account in zip(role_names, accounts):
        # a script line splits on whitespace and ends at '#'
        if not account or "#" in account or any(c.isspace() for c in account):
            raise SimError(
                f"role '{role}' is bound to {account!r}, which no script line can name"
            )
    if len(set(accounts)) != len(accounts):
        raise SimError("two roles share one account; bind distinct accounts")
    for param in ir.params:
        if param not in amounts:
            raise SimError(f"no value given for amount parameter '{param}'")
        if amounts[param] < 0:
            raise SimError(f"amount parameter '{param}' must be non-negative")
    for param in amounts:
        if param not in ir.params:
            raise SimError(f"value given for unknown parameter '{param}'")
    if initial_balance < 0:
        raise SimError("initial balance must be non-negative")
    account_of = {role: bindings[role] for role in role_names}
    amount_of = {p: int(amounts[p]) for p in ir.params}
    balance_of = dict.fromkeys(accounts, initial_balance)
    flag_of = {f: False for f, _comment in ir.flags}
    return World(ir, account_of, amount_of, balance_of, 0, ir.states[0], flag_of)


class _Revert(Exception):
    pass


def _refusal(world: World, fn: FunctionIR, caller: str, value: int, state: str,
             flags: dict[str, bool]) -> str | None:
    """The message of the first of `fn`'s role, state, call value and flag
    guards that fails in `state` under `flags`, or None when all pass.
    The role and state guards mirror the emitted modifiers."""
    if caller != world.account_of[fn.role_guard]:
        return world.ir.role_message(fn.agent)
    if fn.state_guard is not None and state != fn.state_guard:
        return world.ir.state_message
    if fn.value_guard is not None and value != world.amount_of[fn.value_guard]:
        return fn.value_message
    for flag, wanted, message in fn.flag_preconditions:
        if flags[flag] != wanted:
            return message
    return None


class _Draft:
    """Mutable working copy of one call that passed its guards, with the
    call value already moved; a revert in an internal call discards it."""

    def __init__(self, world: World, caller: str, value: int):
        self.world = world
        self.caller = caller
        self.value = value
        self.accounts = dict(world.balance_of)
        self.accounts[caller] -= value
        self.contract_balance = world.contract_balance + value
        self.state = world.current_state
        self.flags = dict(world.flag_of)
        self.events: list[EventEntry] = []

    def run(self, fn: FunctionIR) -> None:
        """Apply the effects of `fn`, whose guards have passed."""
        ir = self.world.ir
        for effect in fn.effects:
            if isinstance(effect, SetState):
                self.state = effect.state
            elif isinstance(effect, SetFlag):
                self.flags[effect.flag] = True
            elif isinstance(effect, EmitEvent):
                self.events.append((effect.sender, effect.receiver, effect.message))
            elif isinstance(effect, CallFn):
                # internal call: same caller identity, same call value
                callee = ir.function(effect.name)
                message = _refusal(self.world, callee, self.caller, self.value,
                                   self.state, self.flags)
                if message is not None:
                    raise _Revert(message)
                self.run(callee)
        if fn.finalize and ir.finalization_state is not None:
            if self.state == ir.finalization_state and all(
                self.flags[f] for f in ir.finalization_flags
            ):
                self.state = "Finalized"


def call(
    world: World, caller: str, function: str, value: int = 0
) -> tuple[World, CallRecord]:
    """Execute one call. Reverts are recorded, not raised; only misuse
    (unknown function or account, negative value) raises SimError."""
    try:
        fn = world.ir.function(function)
    except KeyError:
        raise SimError(f"unknown function '{function}'") from None
    balance = world.balance_of.get(caller)
    if balance is None:
        raise SimError(f"unknown account '{caller}'")
    if value < 0:
        raise SimError("call value must be non-negative")

    # the transaction's own guards, which an internal call does not face
    if fn.private:
        message = f"{function} is private"
    elif value > balance:
        message = "insufficient funds"
    elif fn.value_guard is None and value > 0:
        message = f"{function} is not payable"
    else:
        message = _refusal(world, fn, caller, value, world.current_state, world.flag_of)
    if message is None:
        draft = _Draft(world, caller, value)
        try:
            draft.run(fn)
        except _Revert as r:
            message = str(r)
        else:
            record = CallRecord(caller, function, value, True, None, tuple(draft.events))
            return World(
                world.ir, world.account_of, world.amount_of, draft.accounts,
                draft.contract_balance, draft.state, draft.flags, (world.calls, record),
            ), record
    # a revert passes its parent's state on; the fresh World caches no log
    record = CallRecord(caller, function, value, False, message)
    return World(
        world.ir, world.account_of, world.amount_of, world.balance_of,
        world.contract_balance, world.current_state, world.flag_of, (world.calls, record),
    ), record


def parse_script(text: str) -> list[tuple[str, str, int]]:
    """One call per line: `<account> <function> [value=<n>]`. Blank
    lines and `#` comments are skipped."""
    calls: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 2:
            account, function = parts
            value = 0
        elif len(parts) == 3:
            account, function, tail = parts
            digits = tail[6:]
            if not (tail.startswith("value=") and digits.isascii() and digits.isdigit()):
                raise SimError(
                    f"script line {lineno}: expected value=<n>, found '{tail}'"
                )
            value = int(digits)
        else:
            raise SimError(
                f"script line {lineno}: expected '<account> <function> "
                f"[value=<n>]', found '{line}'"
            )
        calls.append((account, function, value))
    return calls


def run_script(
    ir: MachineIR,
    script: list[tuple[str, str, int]],
    bindings: dict[str, str],
    amounts: dict[str, int],
    initial_balance: int = 1000,
) -> tuple[World, list[CallRecord]]:
    """Deploy and fold the script through `call`. Reverts never stop
    the run; they are recorded like any other outcome."""
    world = deploy(ir, bindings, amounts, initial_balance)
    records: list[CallRecord] = []
    for account, function, value in script:
        world, record = call(world, account, function, value)
        records.append(record)
    return world, records


def render_trace(world: World) -> str:
    """Deterministic text trace of a finished run: one line per call
    with its events indented, then the final state, flags, balances."""
    out: list[str] = []
    for record in world.call_log:
        head = f"call {record.caller} {record.function}"
        if record.value:
            head += f" value={record.value}"
        if record.ok:
            out.append(f"{head} -> OK")
            for sender, receiver, message in record.events:
                out.append(f"  event {sender} -> {receiver}: {message}")
        else:
            out.append(f'{head} -> REVERT "{record.revert_message}"')
    out.append("")
    out.append(f"final state: {world.current_state}")
    out.append("flags:")
    for flag, value in world.flag_values:
        out.append(f"  {flag} = {'true' if value else 'false'}")
    out.append("balances:")
    for account, balance in world.accounts:
        out.append(f"  {account} = {balance}")
    out.append(f"  contract = {world.contract_balance}")
    return "\n".join(out) + "\n"


def co_simulate(contract, world: World) -> list[str]:
    """Replay the world's successful calls against the transition semantics
    of `contract`, or of its `ContractSemantics`, and compare endpoints.

    Returns a list of discrepancies (empty means the run conforms):
    every successful call must map to an accepted transition, and the
    machine must sit in Finalized exactly when no obligation is left
    active."""
    sem = ContractSemantics.of(contract)
    state = sem.initial_state()
    issues: list[str] = []
    for record in world.call_log:
        if not record.ok:
            continue
        fn = world.ir.function(record.function)
        if fn.event is None:
            continue
        try:
            state = sem.step(state, fn.event)
        except StepError as exc:
            issues.append(
                f"call {record.function} performed {fn.event[0]} "
                f"{fn.event[1]}, which the contract rejects: {exc}"
            )
    open_obligations = sorted(
        str(n) for n in state.active if n.kind == "O"
    )
    finalized = world.current_state == "Finalized"
    if finalized and open_obligations:
        issues.append(
            "machine is Finalized but obligations remain: "
            + "; ".join(open_obligations)
        )
    if not finalized and not open_obligations:
        issues.append(
            "all obligations are discharged but the machine is in "
            f"{world.current_state}, not Finalized"
        )
    return issues
