"""Lowering to a state-machine IR and Solidity emission.

`lower` runs in phases, each reading only what the ones before it built.
The first three share one pass over the analysis' clause rows, which
`ContractSemantics.clause_rows` yields in source pre-order, one per
clause, permissions included; the pass does not recurse:

  sort       the top level holds one root box; a negated watch guarding
             one prohibition is a house rule; standing bans and
             permissions produce no code;
  chain      the maximal run of singly-nested boxes from the root
             becomes the state enum (Created, one state per link,
             Finalized at the end); each link is a state-advancing
             function, so two links guarding one event are refused;
  flow       below the innermost link, each obligation, box and nested
             watch is recorded with the box enclosing it; the record
             enters boxes and stops at a nested watch, which is dropped
             with a warning together with everything under it; a body's
             shape counts its permissions, which produce no code;
  names      from that record, in a fixed order: each obliged event gets
             one function and, unless promoted, a boolean flag, each
             named by its annotation or its action, with fallbacks
             spelled out only when that first choice is taken; an event
             whose first box holds two or more immediate obligations is
             promoted to a state-advancing function opening a new
             cluster, with a state of its own; a house rule
             `{x,y}[!a]*({u,v}F(b))` becomes a flag precondition on the
             function performing ({u,v}, b): the flag of ({x,y}, a) must
             already be set (a placeholder flag no function ever sets is
             synthesized, with a warning, when no obligation matches;
             if only private callees would read it, it is not declared
             and the warning says the rule has no effect);
  functions  the chain links, then each obligation's first site: a
             function role-guarded by its performer and state-guarded by
             the cluster it activates in; a box that does not open a
             cluster wraps its body behind its event's flag (a
             placeholder, with a warning, when nothing obliges the
             event); an event obliged again under the same state and
             flags reuses its function, and under other guards is
             refused; obligations no box waits on are terminal, and a
             synthesized checkFinalization advances to Finalized once
             the last cluster is reached and every terminal flag is set.

An action whose name contains "pay", performed by the buyer role or
toward the bank role, is payable and guarded against its amount
parameter; the `payable` annotation overrides the heuristic. Every
function emits a Notify event, numbered in emission order unless the
message table provides the text.

Requires in a function body keep a fixed order: value guard, enclosing
box flags outermost first, house-rule flags, and the function's own
repeat guard last. Effects run as: state change or flag set, event
emission, finalization check.

`fidelity_internal_calls` reproduces a hand-written idiom: an
`inline {x,y} a;` annotation turns that function private, strips its
guards down to the role check, and makes its enclosing guard's function
call it directly. The role check then sees the outer caller's identity,
so the pair can never complete; a warning says so. An inline function
with no enclosing guard function is built as in the default mode, with
a warning. The default mode ignores `inline` and emits every function
as externally callable.
"""

from __future__ import annotations

import re

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    Frozen,
    IterBox,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    Value,
)
from .checker import CheckReport, check
from .semantics import ContractSemantics, Event

__all__ = [
    "LowerError",
    "SetState",
    "SetFlag",
    "EmitEvent",
    "CallFn",
    "FunctionIR",
    "MachineIR",
    "lower",
    "emit_solidity",
]


class LowerError(Exception):
    """Lowering refused. `report` is the CheckReport when the refusal is
    for normative conflicts, None for a contract shape that cannot be
    lowered."""

    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


_set = object.__setattr__  # writes a field of a Frozen value


class SetState(Frozen):
    __slots__ = _fields = ("state",)

    def __init__(self, state: str):
        _set(self, "state", state)


class SetFlag(Frozen):
    __slots__ = _fields = ("flag",)

    def __init__(self, flag: str):
        _set(self, "flag", flag)


class EmitEvent(Frozen):
    __slots__ = _fields = ("sender", "receiver", "message")

    def __init__(self, sender: str, receiver: str, message: str):
        _set(self, "sender", sender)  # role name, resolves to an address field
        _set(self, "receiver", receiver)
        _set(self, "message", message)


class CallFn(Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class FunctionIR(Frozen):
    __slots__ = _fields = (
        "name", "agent", "role_guard", "state_guard", "value_guard", "value_message",
        "flag_preconditions", "effects", "event", "finalize", "private", "comments",
    )

    def __init__(self, name: str, agent: str, role_guard: str, state_guard: str | None,
                 value_guard: str | None, value_message: str | None,
                 flag_preconditions: tuple[tuple[str, bool, str], ...],
                 effects: tuple[object, ...], event: Event | None, finalize: bool = False,
                 private: bool = False, comments: tuple[str, ...] = ()):
        _set(self, "name", name)
        _set(self, "agent", agent)  # performer agent id
        _set(self, "role_guard", role_guard)  # role name (address field)
        _set(self, "state_guard", state_guard)
        _set(self, "value_guard", value_guard)  # amount param the call value must equal
        _set(self, "value_message", value_message)
        # (flag, required value, failure message); a (f, False, m) entry is
        # the function's own repeat guard
        _set(self, "flag_preconditions", flag_preconditions)
        _set(self, "effects", effects)
        _set(self, "event", event)  # the (pair, action) a successful call performs
        _set(self, "finalize", finalize)
        _set(self, "private", private)
        _set(self, "comments", comments)


class MachineIR(Value):
    """The lowered machine; equality ignores its private lookup maps."""

    _fields = (
        "name", "roles", "role_messages", "state_message", "states", "flags", "params",
        "functions", "finalization_state", "finalization_flags", "warnings",
    )
    __slots__ = _fields + ("_by_name", "_role_message")

    def __init__(self, name: str, roles: tuple[tuple[str, str], ...],
                 role_messages: tuple[tuple[str, str], ...], state_message: str,
                 states: tuple[str, ...], flags: tuple[tuple[str, str], ...],
                 params: tuple[str, ...], functions: tuple[FunctionIR, ...],
                 finalization_state: str | None, finalization_flags: tuple[str, ...],
                 warnings: tuple[str, ...] = ()):
        self.name = name
        self.roles = roles  # (role name, agent id), agent order
        self.role_messages = role_messages  # (agent id, modifier message)
        self.state_message = state_message
        self.states = states  # Created ... Finalized
        self.flags = flags  # (flag name, declaration comment)
        self.params = params  # amount parameter names
        self.functions = functions
        self.finalization_state = finalization_state
        self.finalization_flags = finalization_flags
        self.warnings = warnings
        # lower() gives every function its own name
        self._by_name = {fn.name: fn for fn in functions}
        self._role_message = dict(role_messages)

    def function(self, name: str) -> FunctionIR:
        return self._by_name[name]

    def role_message(self, agent: str) -> str:
        """The message of the modifier that guards `agent`'s functions."""
        return self._role_message[agent]


def _cap(name: str) -> str:
    return name[0].upper() + name[1:] if name else name


def _given(table: dict[str, str], flag: str, default: str) -> str:
    """`table`'s message for `flag`, else the flag's name and `default`,
    spelled only then; an annotated empty message stays empty."""
    message = table.get(flag) if table else None
    return flag + default if message is None else message


def _is_inline(meta: Meta, pair: AgentPair, action: str) -> bool:
    return (
        (pair.performer, pair.counterparty, action) in meta.inline
        or (None, None, action) in meta.inline
    )


# Names no generated function or flag may take: Solidity keywords,
# reserved words, units, types and the globals the emitted code calls,
# then the members every generated contract declares. lower() refuses
# contract and role names among these, names states from them, and adds
# the contract's name, role fields and only* modifiers for members.
_RESERVED_NAMES = frozenset(
    """
    abstract address after alias anonymous apply as assembly auto bool break
    byte bytes calldata case catch constant constructor continue contract
    copyof days default define delete do else emit enum error ether event
    external fallback false final finney fixed for function global gwei hours
    if immutable implements import in indexed inline int interface internal
    is let library macro mapping match memory minutes modifier mutable new
    null of override partial payable pragma private promise public pure
    receive reference relocatable return returns revert sealed seconds
    sizeof static storage string struct super supports switch szabo this
    true try type typedef typeof ufixed uint unchecked unicode using var
    view virtual weeks wei while years
    abi addmod assert block blockhash ecrecover gasleft keccak256 msg mulmod
    now require ripemd160 selfdestruct sha256 tx
    state ContractState Notify atState checkFinalization
    """.split()
) | {f"{t}{n}" for t in ("int", "uint") for n in range(8, 257, 8)} | {
    f"bytes{n}" for n in range(1, 33)
}


class _Namer:
    """Hands out unique identifiers, falling back through candidates and
    finally to a numeric suffix. `reserved` is shared, never copied; the
    names handed out, and any given as `taken`, go in a set of its own."""

    def __init__(self, reserved: frozenset[str] = frozenset(), taken=()):
        self.reserved = reserved
        self.taken = set(taken)

    def take(self, name: str) -> bool:
        """Claim `name` if it is free; say whether it was."""
        if name in self.reserved or name in self.taken:
            return False
        self.taken.add(name)
        return True

    def prefer(self, given: str | None, first: str) -> str | None:
        """Claim `given` if it is set and free, else `first` if it is
        free; None, claiming nothing, when neither is."""
        if given and self.take(given):
            return given
        return first if self.take(first) else None

    def claim(self, *candidates: str) -> str:
        for name in candidates:
            if name and self.take(name):
                return name
        base = next(c for c in reversed(candidates) if c)
        n = 2
        while not self.take(f"{base}{n}"):
            n += 1
        return f"{base}{n}"


def lower(
    contract: Contract | ContractSemantics,
    allow_conflicts: bool = False,
    fidelity_internal_calls: bool = False,
) -> MachineIR:
    """Lower a conflict-free contract to a state machine (see the module
    docstring for the mapping). Conflicted input is rejected, with the
    report attached to the LowerError, unless `allow_conflicts` is set."""
    sem = ContractSemantics.of(contract)
    report = check(sem)
    if report.conflicts and not allow_conflicts:
        where = ", ".join(f"{c.pair} {c.action}" for c in report.conflicts)
        raise LowerError(
            f"contract has normative conflicts ({where}); resolve them or "
            "lower with allow_conflicts",
            report,
        )

    contract = sem.contract
    meta = contract.meta
    warnings: list[str] = []
    # -- sort, chain and flow: one pass over the clause rows -------------------
    rules: list[tuple[Event, Event]] = []  # (watched, banned) per house rule
    links: list[Event] = []  # the chain's guard events, root first
    tail = linked = None  # the last link's row; whether its body holds the next
    # each obligation, box and nested watch below the chain, with the index
    # of the box whose body holds it (-1 for the last link's body)
    sites: list[tuple[Clause, int]] = []
    site_of: dict[int, int] = {}  # row of a box the flow enters -> its site
    first_box: dict[Event, Box] = {}
    for row, node, up in sem.clause_rows():
        kind = type(node)
        if up in site_of:
            if kind is Prohibition or kind is Permission:
                continue  # no code for a ban or a permission in the flow
            sites.append((node, site_of[up]))
            if kind is Box:
                site_of[row] = len(sites) - 1
                first_box.setdefault((node.pair, node.action), node)
            continue
        if up < 0:
            if kind is IterBox and not node.positive:
                if len(node.body) != 1 or type(node.body[0]) is not Prohibition:
                    raise LowerError(
                        "cannot lower: a negated watch must guard exactly one "
                        "prohibition to act as a house rule"
                    )
                ban = node.body[0]
                rules.append(((node.pair, node.action), (ban.pair, ban.action)))
                continue
            if kind is Prohibition or kind is Permission:
                continue  # a standing ban or a permission
            if kind is not Box:
                raise LowerError(
                    f"cannot lower: unsupported top-level {kind.__name__.lower()} "
                    "clause; restructure the contract so a single outermost "
                    "guard wraps the flow"
                )
            if links:
                raise LowerError(
                    "cannot lower: more than one top-level box; restructure "
                    "the contract so a single outermost guard wraps the flow"
                )
        elif not (up == tail and linked and kind is Box):
            continue  # beside a link on its own event, or under a house rule or nested watch
        # the root box, or a box alone in its link's body beside an
        # obligation on its own event: the next link of the chain
        links.append((node.pair, node.action))
        tail, body = row, node.body
        linked = (len(body) == 2 and {type(part) for part in body} == {Obligation, Box}
                  and (body[0].pair, body[0].action) == (body[1].pair, body[1].action))
        if not linked:
            site_of[row] = -1
    if not links:
        raise LowerError(
            "cannot lower: the contract needs a single top-level box chain; "
            "wrap the flow in one outermost guard"
        )
    contract_name = meta.contract_name or "GeneratedContract"
    if contract_name in _RESERVED_NAMES:
        raise LowerError(
            f"cannot lower: contract name '{contract_name}' is reserved in the "
            "generated contract; choose another contract name"
        )
    role_of = {a.name: meta.roles.get(a.name, a.name) for a in contract.agents}
    roles = tuple((role_of[a.name], a.name) for a in contract.agents)
    modifiers = set(_modifier_names(roles).values())
    agent_of: dict[str, str] = {}
    for role, agent in roles:
        if role in _RESERVED_NAMES or role in modifiers:
            raise LowerError(
                f"cannot lower: agent {agent}'s role name '{role}' is reserved "
                "in the generated contract; choose another role name"
            )
        if role in agent_of:
            raise LowerError(
                f"cannot lower: agents {agent_of[role]} and {agent} share the "
                f"role name '{role}'; give each agent its own role"
            )
        agent_of[role] = agent
    if contract_name in agent_of or contract_name in modifiers:
        raise LowerError(
            f"cannot lower: contract name '{contract_name}' is also a role or "
            "modifier name in the generated contract; choose another contract name"
        )

    # -- names, claimed in a fixed order ---------------------------------------
    # functions, flags and amount parameters share one namespace in the
    # emitted contract; an empty annotation table is never looked up, and
    # the fallbacks are spelled out only when the first free choice is taken
    member_namer = _Namer(_RESERVED_NAMES, (*agent_of, *modifiers, contract_name))
    funcs, flag_names, state_names = meta.funcs, meta.flags, meta.states

    def fn_name(pair: AgentPair, action: str) -> str:
        name = member_namer.prefer(funcs and meta.lookup(funcs, pair, action), action)
        if name is None:
            counterparty = _cap(role_of[pair.counterparty])
            name = member_namer.claim(
                action + counterparty, action + _cap(role_of[pair.performer]) + counterparty
            )
        return name

    fn_name_of: dict[Event, str] = {}
    for pair, action in links:
        if (pair, action) in fn_name_of:
            raise LowerError(
                f"cannot lower: {pair} {action} guards two links of the box "
                "chain, which would need two functions of one name; guard it "
                "in one place"
            )
        fn_name_of[pair, action] = fn_name(pair, action)
    flag_of: dict[Event, str] = {}
    flags: list[tuple[str, str]] = []  # (flag, declaration comment)
    comment_of: dict[Event, str] = {}  # the `// {x,y} O(a)` comment of each obligation
    promoted: list[Event] = []
    for node, _parent in sites:
        event = (node.pair, node.action)
        if not isinstance(node, Obligation) or event in fn_name_of:
            continue  # a chain link or an earlier site names this function
        fn_name_of[event] = fn_name(*event)
        comment = comment_of[event] = "// {%s,%s} O(%s)" % (*node.pair, node.action)
        box = first_box.get(event)
        if box is not None and sum(isinstance(c, Obligation) for c in box.body) >= 2:
            promoted.append(event)
        else:
            done = f"{node.action}Done"
            flag = member_namer.prefer(flag_names and meta.lookup(flag_names, *event), done)
            if flag is None:
                flag = member_namer.claim(done + _cap(role_of[node.pair.counterparty]))
            flag_of[event] = flag
            flags.append((flag, comment))
    chain_events = set(links)
    advancing = chain_events.union(promoted)

    state_namer = _Namer(_RESERVED_NAMES, ("Created", "Finalized"))
    states = ["Created"]
    unnamed = 0
    for pair, action in links + promoted:
        given = state_names and meta.lookup(state_names, pair, action)
        unnamed += not given
        states.append(state_namer.claim(given or f"S{unnamed}"))
    promo_state_of = dict(zip(promoted, states[len(links) + 1:]))
    states.append("Finalized")

    placeholders: set[str] = set()

    def placeholder(event: Event, comment: str, given: str = "") -> str:
        """Declare a flag for `event` that no function sets."""
        flag = flag_of[event] = member_namer.claim(given, f"{event[1]}Done")
        flags.append((flag, f"// {event[0]} {comment} (no setter)"))
        placeholders.add(flag)
        return flag

    rule_flags_of: dict[Event, list[str]] = {}
    unset_rules: dict[str, tuple[int, str]] = {}  # placeholder -> its warning's index and head
    for watch, target in rules:
        if target not in fn_name_of:
            warnings.append(
                f"house rule bans {target[0]} {target[1]}, which no "
                "obligation or guard performs; rule dropped"
            )
            continue
        flag = flag_of.get(watch)
        if flag is None:
            given = meta.lookup(meta.flags, *watch) or ""
            flag = placeholder(watch, f"[!{watch[1]}]*", given)
            head = f"house rule watches {watch[0]} {watch[1]}, which no obligation performs"
            unset_rules[flag] = (len(warnings), head)
            warnings.append(f"{head}; flag {flag} can never be set")
        rule_flags_of.setdefault(target, []).append(flag)

    # fidelity mode: the guard function that calls each inline function,
    # None when no guard function encloses its first site
    caller_of: dict[Event, str | None] = {}
    calls_of: dict[str, list[CallFn]] = {}
    if fidelity_internal_calls:
        for event in links:
            if _is_inline(meta, *event):
                caller_of[event] = None
        for node, parent in sites:
            if isinstance(node, Obligation) and _is_inline(meta, node.pair, node.action):
                guard = sites[parent][0] if parent >= 0 else None
                caller_of.setdefault(
                    (node.pair, node.action),
                    guard and fn_name_of.get((guard.pair, guard.action)),
                )
        for event, caller in caller_of.items():
            if caller is not None:
                calls_of.setdefault(caller, []).append(CallFn(fn_name_of[event]))

    bank_agents = {a for a, r in role_of.items() if r == "bank"}
    buyer_agents = {a for a, r in role_of.items() if r == "buyer"}
    param_of: dict[str, str] = {}  # wanted name -> claimed member name
    payables, messages, valuemsgs = meta.payables, meta.messages, meta.valuemsgs
    required, repeats = meta.requires, meta.repeats

    def payable_param(pair: AgentPair, action: str) -> str | None:
        wanted = payables and meta.lookup(payables, pair, action)
        if not wanted and "pay" in action and (
            pair.counterparty in bank_agents or pair.performer in buyer_agents
        ):
            wanted = f"{action}Amount"
        if not wanted:
            return None
        if wanted not in param_of:
            param_of[wanted] = member_namer.claim(wanted)
        return param_of[wanted]

    # -- functions: the chain links, then each obligation's first site ------
    functions: list[FunctionIR] = []
    terminal_flags: list[str] = []

    def build(
        event: Event,
        state_guard: str,
        box_flags: tuple[str, ...],
        change: SetState | SetFlag,
        comment: str,
        repeat_flag: str | None = None,
        finalize: bool = False,
    ) -> None:
        pair, action = event
        name = fn_name_of[event]
        param = payable_param(pair, action)
        rule_flags = rule_flags_of.get(event)
        requires = []
        comments = (comment,)
        if box_flags or rule_flags:
            guards = box_flags + tuple(rule_flags) if rule_flags else box_flags
            requires = [(flag, True, _given(required, flag, " required"))
                        for flag in dict.fromkeys(guards)]
            if rule_flags:
                comments += (f"// house rule guard: {', '.join(rule_flags)}",)
        if repeat_flag is not None:
            requires.append((repeat_flag, False, _given(repeats, repeat_flag, " already set")))
        caller = caller_of.get(event)
        if caller is not None:
            warnings.append(
                f"fidelity: {name} is private and called from {caller}; its "
                "role guard sees the outer caller, so the call always reverts"
            )
            # a private callee keeps only its role guard, and claims no other
            state_guard, requires, comments = None, (), (comment,)
        elif event in caller_of:
            warnings.append(
                f"fidelity: inline {name} has no enclosing guard function to "
                "call it from; annotation ignored"
            )
        performer, counterparty = role_of[pair.performer], role_of[pair.counterparty]
        message = messages and meta.lookup(messages, pair, action) or (
            f"{len(functions) + 1}. {performer} performed {action} toward {counterparty}."
        )
        value_message = (
            valuemsgs and meta.lookup(valuemsgs, pair, action) or f"wrong value for {param}"
        ) if param else None
        effects = (change, EmitEvent(performer, counterparty, message), *calls_of.get(name, ()))
        functions.append(
            FunctionIR(
                name, pair.performer, performer, state_guard, param, value_message,
                tuple(requires), effects, event, finalize, caller is not None, comments,
            )
        )

    for i, (pair, action) in enumerate(links):
        build((pair, action), states[i], (), SetState(states[i + 1]), f"// {pair} [{action}]")

    # site index -> (state, box flags) the body of that box runs under
    under = {-1: (states[len(links)], ())}
    guards_of: dict[Event, tuple[str, tuple[str, ...]]] = {}
    for i, (node, parent) in enumerate(sites):
        state, box_flags = under[parent]
        event = (node.pair, node.action)
        if isinstance(node, IterBox):
            warnings.append(
                f"nested watch on {node.pair} {node.action} has no "
                "state-machine counterpart; dropped"
            )
        elif isinstance(node, Box):
            if event in advancing:
                # a fresh cluster without box flags, in the state the
                # guard's promoted function advances to, wherever in the
                # body that function is built
                under[i] = (promo_state_of.get(event, state), ())
                continue
            flag = flag_of.get(event)
            if flag is None:
                flag = placeholder(event, f"[{node.action}]")
                warnings.append(
                    f"guard {node.pair} {node.action} matches no "
                    "obligation; functions behind it can never run"
                )
            under[i] = (state, box_flags + (flag,))
        elif event not in chain_events:  # realized by the chain link itself
            if event in guards_of:
                if guards_of[event] != (state, box_flags):
                    raise LowerError(
                        f"cannot lower: {node.pair} {node.action} is obliged "
                        "under two different guards, which would need two "
                        "functions of one name; oblige it in one place"
                    )
                continue  # the first occurrence's function serves both
            guards_of[event] = (state, box_flags)
            comment = comment_of[event]
            if event in advancing:
                build(event, state, box_flags, SetState(promo_state_of[event]), comment)
            else:
                terminal = event not in first_box
                if terminal:
                    terminal_flags.append(flag_of[event])
                build(event, state, box_flags, SetFlag(flag_of[event]), comment,
                      flag_of[event], terminal)

    if placeholders:  # a placeholder no function reads is not declared
        read = {flag for fn in functions for flag, _value, _message in fn.flag_preconditions}
        flags = [entry for entry in flags if entry[0] in read or entry[0] not in placeholders]
        for flag, (at, head) in unset_rules.items():
            if flag not in read:  # its readers were private callees, whose requires are stripped
                warnings[at] = f"{head}; the rule has no effect"
    if not terminal_flags:
        warnings.append("no terminal obligations; the Finalized state is unreachable")
    role_messages = tuple(
        (
            agent,
            meta.rolemsgs.get(agent, f"only {role_of[agent]} may call this"),
        )
        for _role, agent in roles
    )
    return MachineIR(
        name=contract_name,
        roles=roles,
        role_messages=role_messages,
        state_message=meta.statemsg or "wrong state for this action",
        states=tuple(states),
        flags=tuple(flags),
        params=tuple(param_of.values()),
        functions=tuple(functions),
        finalization_state=states[-2] if terminal_flags else None,
        finalization_flags=tuple(dict.fromkeys(terminal_flags)),
        warnings=tuple(warnings),
    )


# -- emission ----------------------------------------------------------------

def _modifier_names(roles: tuple[tuple[str, str], ...]) -> dict[str, str]:
    """Modifier per agent: only<Initial>, spelled out on collisions, with a
    numeric suffix for agents that differ only in the case of the initial."""
    by_initial: dict[str, list[str]] = {}
    for _role, agent in roles:
        by_initial.setdefault(agent[0].upper(), []).append(agent)
    names: dict[str, str] = {}
    for initial, agents in by_initial.items():
        if len(agents) == 1:
            names[agents[0]] = f"only{initial}"
        else:
            namer = _Namer()
            for agent in agents:
                names[agent] = namer.claim(f"only{_cap(agent)}")
    return names


# what a plain Solidity string literal cannot hold as it is: a backslash,
# a quote and every character outside printable ASCII
_UNSAFE_RE = re.compile(r'[\\"]|[^ -~]')
_NAMED = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(match: re.Match) -> str:
    char = match.group()
    return _NAMED.get(char) or "".join(f"\\x{byte:02x}" for byte in char.encode())


def _esc(text: str) -> str:
    """The body of a plain Solidity string literal holding `text`'s UTF-8
    bytes. Such a literal takes printable ASCII only, so a line break,
    tab or other control character is escaped, and a non-ASCII character
    becomes one `\\xNN` per UTF-8 byte."""
    if text.isascii() and text.isprintable():  # most messages; cheaper than the regex
        return text.replace("\\", "\\\\").replace('"', '\\"')
    return _UNSAFE_RE.sub(_escape, text)


def emit_solidity(ir: MachineIR) -> str:
    """Render the IR as Solidity text. The output is deterministic:
    LF line endings, four-space indents, one trailing newline."""
    mods = _modifier_names(ir.roles)
    out: list[str] = []
    w = out.append

    w("// SPDX-License-Identifier: MIT")
    w("pragma solidity ^0.8.0;")
    w("")
    w(f"contract {ir.name} {{")
    for role, _agent in ir.roles:
        w(f"    address public {role};")
    for param in ir.params:
        w(f"    uint public {param};")
    w("")
    w("    enum ContractState {")
    for i, state in enumerate(ir.states):
        comma = "," if i < len(ir.states) - 1 else ""
        w(f"        {state}{comma}")
    w("    }")
    w("    ContractState public state;")
    w("")
    for flag, comment in ir.flags:
        w(f"    bool private {flag} = false; {comment}")
    if ir.flags:
        w("")
    w(
        "    event Notify(address indexed sender, address indexed receiver, "
        "string message);"
    )
    w("")
    for role, agent in ir.roles:
        w(f"    modifier {mods[agent]}() {{")
        w(f'        require(msg.sender == {role}, "{_esc(ir.role_message(agent))}");')
        w("        _;")
        w("    }")
    w("")
    w("    constructor(")
    ctor = [f"address _{role}" for role, _agent in ir.roles]
    ctor += [f"uint _{param}" for param in ir.params]
    for i, piece in enumerate(ctor):
        comma = "," if i < len(ctor) - 1 else ""
        w(f"        {piece}{comma}")
    w("    ) {")
    for role, _agent in ir.roles:
        w(f"        {role} = _{role};")
    for param in ir.params:
        w(f"        {param} = _{param};")
    w("        state = ContractState.Created;")
    w("    }")
    w("")
    w("    modifier atState(ContractState _requiredState) {")
    w(f'        require(state == _requiredState, "{_esc(ir.state_message)}");')
    w("        _;")
    w("    }")

    for fn in ir.functions:
        w("")
        for comment in fn.comments:
            w(f"    {comment}")
        sig = [f"function {fn.name}()"]
        sig.append("private" if fn.private else "external")
        if fn.value_guard:
            sig.append("payable")
        sig.append(mods[fn.agent])
        if fn.state_guard:
            sig.append(f"atState(ContractState.{fn.state_guard})")
        w(f"    {' '.join(sig)} {{")
        if fn.value_guard:
            w(
                f"        require(msg.value == {fn.value_guard}, "
                f'"{_esc(fn.value_message)}");'
            )
        for flag, wanted, message in fn.flag_preconditions:
            cond = flag if wanted else f"!{flag}"
            w(f'        require({cond}, "{_esc(message)}");')
        for effect in fn.effects:
            if isinstance(effect, SetState):
                w(f"        state = ContractState.{effect.state};")
            elif isinstance(effect, SetFlag):
                w(f"        {effect.flag} = true;")
            elif isinstance(effect, EmitEvent):
                w(
                    f"        emit Notify({effect.sender}, {effect.receiver}, "
                    f'"{_esc(effect.message)}");'
                )
            elif isinstance(effect, CallFn):
                w(f"        {effect.name}();")
        if fn.finalize:
            w("        checkFinalization();")
        w("    }")

    if ir.finalization_state and ir.finalization_flags:
        w("")
        w("    function checkFinalization() private {")
        w(f"        if (state == ContractState.{ir.finalization_state}) {{")
        w(f"            if ({' && '.join(ir.finalization_flags)}) {{")
        w("                state = ContractState.Finalized;")
        w("            }")
        w("        }")
        w("    }")
    w("}")
    return "\n".join(out) + "\n"
