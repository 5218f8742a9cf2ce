"""Desk-scale execution of the generated state machine.

A World holds named accounts with integer balances, the contract's own
balance, the current state, the flag assignment, and the log of calls
made. Calls are pure: `call` returns a fresh World and the record of
what happened. A reverted call changes nothing but the call log.

A World is two parts: a snapshot of everything a call reads or changes
(the IR, the role bindings, the amounts, the balances, the state and
the flags) and the call log. Every World, whether deployed, after a
call, a revert or an unpickling, comes from one builder that sets those
two slots; World has no constructor of its own. The call log is stored
as a persistent chain of (previous, record) pairs, newest first, which
every later World shares, so a call costs the same however many calls
came before it. `World.call_log` and `World.event_log` are tuples built
from the chain when first read and then kept; the event log is the
successful calls' events in call order. Equality, hashing, repr, pickle
and copy read those tuples, never the chain.

Only a successful call builds a new snapshot. A revert builds its World
from its parent's snapshot and one new chain node, and its record goes
into the snapshot's refusals, keyed by (caller, function, value): the
outcome of a call depends on nothing else, so the same triple against
the same snapshot reuses the record without checking a guard again: a
repeated refused call costs a lookup and one log node. Misuse raises
before anything is stored, and a new snapshot starts with no refusals.

A script repeats its lines: `parse_script` parses each distinct line
once and reports the first bad line by the number where it first occurs.

Guard evaluation order per call: private, caller funds, payability,
role, state, call value, flag preconditions in declaration order. The
first failing guard reverts with its message. `call` checks them
against the snapshot itself; only a call that passes its guards gets a
mutable working copy. Internal calls (fidelity mode) check the callee's
role, state, value and flag guards, through the same function, against
that copy; they run with the original caller's identity, so a
role-guarded callee inspects the outer caller, and any revert inside
unwinds the whole call.

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
    "MAX_VALUE",
    "SimError",
    "CallRecord",
    "World",
    "deploy",
    "call",
    "parse_script",
    "parse_uint256",
    "run_script",
    "render_trace",
    "co_simulate",
]

EventEntry = tuple  # (sender role, receiver role, message)

# The largest amount, balance or call value a script or the CLI accepts:
# the generated contract takes each as a uint256. Every balance, and so
# every sum of them, then stays far below the digit limit of int -> str.
MAX_VALUE = 2**256 - 1


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


class _Snapshot:
    """What a call reads or changes, shared by every World a revert
    leaves it to. Each datum is held once, in a dict that is never
    mutated, so a successful call shares it with its parent wherever it
    leaves it unchanged: role -> account, parameter -> amount, account ->
    balance and flag -> value. `refusals`, the one dict that grows, maps
    (caller, function, value) to the record of the call that reverted
    against this snapshot."""

    __slots__ = ("ir", "account_of", "amount_of", "balance_of", "contract_balance",
                 "current_state", "flag_of", "refusals")

    def __init__(self, ir: MachineIR, account_of: dict[str, str], amount_of: dict[str, int],
                 balance_of: dict[str, int], contract_balance: int, current_state: str,
                 flag_of: dict[str, bool]):
        self.ir = ir
        self.account_of = account_of
        self.amount_of = amount_of
        self.balance_of = balance_of
        self.contract_balance = contract_balance
        self.current_state = current_state
        self.flag_of = flag_of
        self.refusals: dict[tuple[str, str, int], CallRecord] = {}


def _from_snapshot(name: str) -> property:
    return property(attrgetter(f"_snapshot.{name}"))


class World(Frozen):
    """Built by `deploy` and `call` only. Two Worlds are equal when
    everything but the IR is: the `_shown` views and both logs.

    A World is its snapshot and `calls`, the log's chain, newest first.
    `ir`, `account_of`, `amount_of`, `balance_of`, `contract_balance`,
    `current_state` and `flag_of` read the snapshot; `bindings`,
    `amounts`, `accounts` and `flag_values` are read-only tuple views of
    its dicts.

    Unlike the other `Frozen` values, a World also has an instance
    dict: `call_log` and `event_log` are cached there when first read."""

    __slots__ = ("_snapshot", "calls", "__dict__")
    _fields = ("_snapshot", "calls")
    _shown = (
        "bindings", "amounts", "accounts", "contract_balance",
        "current_state", "flag_values", "event_log", "call_log",
    )
    _key = attrgetter(*_shown)

    ir = _from_snapshot("ir")
    account_of = _from_snapshot("account_of")
    amount_of = _from_snapshot("amount_of")
    balance_of = _from_snapshot("balance_of")
    contract_balance = _from_snapshot("contract_balance")
    current_state = _from_snapshot("current_state")
    flag_of = _from_snapshot("flag_of")

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
        # recursion limit of pickle and deepcopy on a long run; the
        # refusals are not kept, since a call decides them again
        s = self._snapshot
        fields = (s.ir, s.account_of, s.amount_of, s.balance_of, s.contract_balance,
                  s.current_state, s.flag_of)
        return _rebuild, (self.call_log, *fields)

    def balance(self, account: str) -> int:
        return self._snapshot.balance_of[account]

    def flag(self, name: str) -> bool:
        return self._snapshot.flag_of[name]


_new = object.__new__
_set_snapshot = World._snapshot.__set__
_set_calls = World.calls.__set__


def _world(snapshot: _Snapshot, calls: tuple | None) -> World:
    """Every World is built here: its two slots set directly."""
    world = _new(World)
    _set_snapshot(world, snapshot)
    _set_calls(world, calls)
    return world


def _rebuild(call_log: tuple[CallRecord, ...], *fields) -> World:
    """The World that `World.__reduce__` took apart."""
    calls = None
    for record in call_log:
        calls = (calls, record)
    return _world(_Snapshot(*fields), calls)


def deploy(
    ir: MachineIR,
    bindings: dict[str, str],
    amounts: dict[str, int],
    initial_balance: int = 1000,
) -> World:
    """Create a fresh World in the Created state.

    Every role must be bound to its own account, one a script line can
    name, and every amount parameter given a value from 0 to MAX_VALUE,
    as the initial balance is; leftovers in either map are rejected."""
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
        if amounts[param] > MAX_VALUE:
            raise SimError(f"amount parameter '{param}' must be at most 2**256 - 1")
    for param in amounts:
        if param not in ir.params:
            raise SimError(f"value given for unknown parameter '{param}'")
    if initial_balance < 0:
        raise SimError("initial balance must be non-negative")
    if initial_balance > MAX_VALUE:
        raise SimError("initial balance must be at most 2**256 - 1")
    account_of = {role: bindings[role] for role in role_names}
    amount_of = {p: int(amounts[p]) for p in ir.params}
    balance_of = dict.fromkeys(accounts, initial_balance)
    flag_of = {f: False for f, _comment in ir.flags}
    return _world(_Snapshot(ir, account_of, amount_of, balance_of, 0, ir.states[0], flag_of), None)


class _Revert(Exception):
    pass


def _refusal(snapshot: _Snapshot, fn: FunctionIR, caller: str, value: int, state: str,
             flags: dict[str, bool]) -> str | None:
    """The message of the first of `fn`'s role, state, call value and flag
    guards that fails in `state` under `flags`, or None when all pass.
    The role and state guards mirror the emitted modifiers."""
    if caller != snapshot.account_of[fn.role_guard]:
        return snapshot.ir.role_message(fn.agent)
    if fn.state_guard is not None and state != fn.state_guard:
        return snapshot.ir.state_message
    if fn.value_guard is not None and value != snapshot.amount_of[fn.value_guard]:
        return fn.value_message
    for flag, wanted, message in fn.flag_preconditions:
        if flags[flag] != wanted:
            return message
    return None


class _Draft:
    """Mutable working copy of one call that passed its guards, with the
    call value already moved; a revert in an internal call discards it."""

    def __init__(self, snapshot: _Snapshot, caller: str, value: int):
        self.snapshot = snapshot
        self.caller = caller
        self.value = value
        self.accounts = dict(snapshot.balance_of)
        self.accounts[caller] -= value
        self.contract_balance = snapshot.contract_balance + value
        self.state = snapshot.current_state
        self.flags = dict(snapshot.flag_of)
        self.events: list[EventEntry] = []

    def run(self, fn: FunctionIR) -> None:
        """Apply the effects of `fn`, whose guards have passed."""
        ir = self.snapshot.ir
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
                message = _refusal(self.snapshot, callee, self.caller, self.value,
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
    (unknown function or account, a value below 0 or above MAX_VALUE)
    raises SimError."""
    snapshot = world._snapshot
    key = (caller, function, value)
    record = snapshot.refusals.get(key)
    # an int key only: True == 1 and 1.0 == 1, but their records differ
    if record is not None and value.__class__ is int:
        return _world(snapshot, (world.calls, record)), record
    ir = snapshot.ir
    try:
        fn = ir.function(function)
    except KeyError:
        raise SimError(f"unknown function '{function}'") from None
    balance = snapshot.balance_of.get(caller)
    if balance is None:
        raise SimError(f"unknown account '{caller}'")
    if value < 0:
        raise SimError("call value must be non-negative")
    if value > MAX_VALUE:
        raise SimError("call value must be at most 2**256 - 1")

    # the transaction's own guards, which an internal call does not face
    if fn.private:
        message = f"{function} is private"
    elif value > balance:
        message = "insufficient funds"
    elif fn.value_guard is None and value > 0:
        message = f"{function} is not payable"
    else:
        message = _refusal(snapshot, fn, caller, value, snapshot.current_state,
                           snapshot.flag_of)
    if message is None:
        draft = _Draft(snapshot, caller, value)
        try:
            draft.run(fn)
        except _Revert as r:
            message = str(r)
        else:
            record = CallRecord(caller, function, value, True, None, tuple(draft.events))
            return _world(_Snapshot(
                ir, snapshot.account_of, snapshot.amount_of, draft.accounts,
                draft.contract_balance, draft.state, draft.flags,
            ), (world.calls, record)), record
    record = CallRecord(caller, function, value, False, message)
    if value.__class__ is int:
        snapshot.refusals[key] = record
    # a revert passes its parent's snapshot on; the fresh World caches no log
    return _world(snapshot, (world.calls, record)), record


def parse_uint256(text: str) -> int:
    """`text` read as a uint256, as a script's value=<n> and the CLI's
    amounts and balance are: ASCII digits, leading zeros allowed. Raises
    ValueError for any other text (int() takes '-1', '１' and '1_0') and
    OverflowError for a value above MAX_VALUE."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a uint256 in ASCII digits: {text!r}")
    digits = text.lstrip("0") or "0"
    # MAX_VALUE has 78 digits; a longer numeral is never converted, as int()
    # takes time quadratic in its length and may refuse more than 4300 digits
    value = int(digits) if len(digits) <= 78 else MAX_VALUE + 1
    if value > MAX_VALUE:
        raise OverflowError("a uint256 is at most 2**256 - 1")
    return value


def parse_script(text: str) -> list[tuple[str, str, int]]:
    """One call per line: `<account> <function> [value=<n>]`, with n at
    most MAX_VALUE. Blank lines and `#` comments are skipped. A repeated
    line is parsed once, and a bad one reported where it first occurs."""
    lines = text.splitlines()
    parsed: dict[str, tuple[str, str, int] | None] = {}
    for line in dict.fromkeys(lines):
        code = line.split("#", 1)[0] if "#" in line else line
        parts = code.split()
        if not parts:
            parsed[line] = None
            continue
        if len(parts) == 2:
            account, function = parts
            value = 0
        elif len(parts) == 3:
            account, function, tail = parts
            try:
                value = parse_uint256(tail[6:] if tail.startswith("value=") else "")
            except ValueError:
                raise SimError(
                    f"script line {lines.index(line) + 1}: expected value=<n>, found '{tail}'"
                ) from None
            except OverflowError:
                raise SimError(
                    f"script line {lines.index(line) + 1}: value=<n> must be at most 2**256 - 1"
                ) from None
        else:
            raise SimError(
                f"script line {lines.index(line) + 1}: expected '<account> <function> "
                f"[value=<n>]', found '{code.strip()}'"
            )
        parsed[line] = (account, function, value)
    return list(filter(None, map(parsed.__getitem__, lines)))


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
    lines: dict[CallRecord, str] = {}  # a record's lines, rendered once
    for record in world.call_log:
        line = lines.get(record)
        if line is None:
            caller, function, value, ok, message, events = record
            head = f"call {caller} {function}"
            if value:
                head += f" value={value}"
            if ok:
                line = "\n".join([f"{head} -> OK", *(
                    f"  event {sender} -> {receiver}: {text}"
                    for sender, receiver, text in events
                )])
            else:
                line = f'{head} -> REVERT "{message}"'
            lines[record] = line
        out.append(line)
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
