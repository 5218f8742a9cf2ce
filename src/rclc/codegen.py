"""Lowering to a state-machine IR and Solidity emission.

The mapping, in the order it is applied:

  chain      the maximal run of singly-nested boxes from the root
             becomes the state enum (Created, one state per link,
             Finalized at the end); each link is a state-advancing
             function;
  functions  every obligation becomes one function, role-guarded by its
             performer and state-guarded by the cluster it activates in;
             an event obliged again under the same state and flags
             reuses that function, and under other guards is refused;
  flags      sibling obligations in one cluster each set a boolean
             flag; a box guarded by such an event wraps its body behind
             that flag, except that a box holding two or more immediate
             obligations promotes its guard event to a state-advancing
             function opening a new cluster; obligations no box ever
             waits on are terminal, and a synthesized checkFinalization
             advances to Finalized once the last cluster is reached and
             every terminal flag is set;
  rules      a house rule `{x,y}[!a]*({u,v}F(b))` becomes a flag
             precondition on the function performing ({u,v}, b): the
             flag of ({x,y}, a) must already be set (a placeholder flag
             no function ever sets is synthesized, with a warning, when
             no obligation matches);
  payable    an action whose name contains "pay", performed by the
             buyer role or toward the bank role, is payable and guarded
             against its amount parameter; the `payable` annotation
             overrides the heuristic;
  messages   every function emits a Notify event, numbered in emission
             order unless the message table provides the text.

Requires in a function body keep a fixed order: value guard, enclosing
box flags outermost first, house-rule flags, and the function's own
repeat guard last. Effects run as: state change or flag set, event
emission, finalization check.

`fidelity_internal_calls` reproduces a hand-written idiom: an
`inline {x,y} a;` annotation turns that function private, strips its
guards down to the role check, and makes its enclosing guard's function
call it directly. The role check then sees the outer caller's identity,
so the pair can never complete; a warning says so. The default mode
ignores `inline` and emits every function as externally callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    IterBox,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    iter_clauses,
)
from .checker import CheckReport, check
from .semantics import Event

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


@dataclass(frozen=True)
class SetState:
    state: str


@dataclass(frozen=True)
class SetFlag:
    flag: str


@dataclass(frozen=True)
class EmitEvent:
    sender: str  # role name, resolves to an address field
    receiver: str
    message: str


@dataclass(frozen=True)
class CallFn:
    name: str


@dataclass
class FunctionIR:
    name: str
    agent: str  # performer agent id
    role_guard: str  # role name (address field)
    state_guard: str | None
    value_guard: str | None  # amount param the call value must equal
    value_message: str | None
    # (flag, required value, failure message); a (f, False, m) entry is
    # the function's own repeat guard
    flag_preconditions: tuple[tuple[str, bool, str], ...]
    effects: tuple[object, ...]
    event: Event | None  # the (pair, action) a successful call performs
    finalize: bool = False
    private: bool = False
    comments: tuple[str, ...] = ()


@dataclass
class MachineIR:
    name: str
    roles: tuple[tuple[str, str], ...]  # (role name, agent id), agent order
    role_messages: tuple[tuple[str, str], ...]  # (agent id, modifier message)
    state_message: str
    states: tuple[str, ...]  # Created ... Finalized
    flags: tuple[tuple[str, str], ...]  # (flag name, declaration comment)
    params: tuple[str, ...]  # amount parameter names
    functions: tuple[FunctionIR, ...]
    finalization_state: str | None
    finalization_flags: tuple[str, ...]
    warnings: tuple[str, ...] = ()
    _by_name: dict[str, FunctionIR] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # lower() gives every function its own name
        self._by_name = {fn.name: fn for fn in self.functions}

    def function(self, name: str) -> FunctionIR:
        return self._by_name[name]


def _cap(name: str) -> str:
    return name[0].upper() + name[1:] if name else name


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
    finally to a numeric suffix."""

    def __init__(self, reserved=()):
        self.taken = set(reserved)

    def claim(self, *candidates: str) -> str:
        for name in candidates:
            if name and name not in self.taken:
                self.taken.add(name)
                return name
        base = next(c for c in reversed(candidates) if c)
        n = 2
        while f"{base}{n}" in self.taken:
            n += 1
        self.taken.add(f"{base}{n}")
        return f"{base}{n}"


def lower(
    contract: Contract,
    allow_conflicts: bool = False,
    fidelity_internal_calls: bool = False,
) -> MachineIR:
    """Lower a conflict-free contract to a state machine (see the module
    docstring for the mapping). Conflicted input is rejected, with the
    report attached to the LowerError, unless `allow_conflicts` is set."""
    report = check(contract)  # validates the contract as a side effect
    if report.conflicts and not allow_conflicts:
        where = ", ".join(f"{c.pair} {c.action}" for c in report.conflicts)
        raise LowerError(
            f"contract has normative conflicts ({where}); resolve them or "
            "lower with allow_conflicts",
            report,
        )

    meta = contract.meta
    warnings: list[str] = []

    # -- sort the top level: one root box, house rules, ignorables ------
    root_box: Box | None = None
    rules: list[tuple[AgentPair, str, AgentPair, str]] = []
    for clause in contract.clauses:
        if isinstance(clause, Box):
            if root_box is not None:
                raise LowerError(
                    "cannot lower: more than one top-level box; restructure "
                    "the contract so a single outermost guard wraps the flow"
                )
            root_box = clause
        elif isinstance(clause, IterBox) and not clause.positive:
            if len(clause.body) == 1 and isinstance(clause.body[0], Prohibition):
                ban = clause.body[0]
                rules.append((clause.pair, clause.action, ban.pair, ban.action))
            else:
                raise LowerError(
                    "cannot lower: a negated watch must guard exactly one "
                    "prohibition to act as a house rule"
                )
        elif isinstance(clause, (Prohibition, Permission)):
            continue  # standing bans and permissions produce no code
        else:
            raise LowerError(
                f"cannot lower: unsupported top-level "
                f"{type(clause).__name__.lower()} clause; restructure the "
                "contract so a single outermost guard wraps the flow"
            )
    if root_box is None:
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

    # -- global indexes --------------------------------------------------
    # Every obligation and box lies under root_box: the sort above refuses
    # any other top-level clause that could hold one.
    box_by_event: dict[Event, Box] = {}
    obligations: list[Obligation] = []
    for part, _path in iter_clauses(contract):
        if isinstance(part, Obligation):
            obligations.append(part)
        elif isinstance(part, Box):
            box_by_event.setdefault((part.pair, part.action), part)

    def promoted(box: Box) -> bool:
        immediate = [c for c in box.body if isinstance(c, Obligation)]
        return len(immediate) >= 2

    # -- the chain ----------------------------------------------------------
    chain: list[Box] = [root_box]
    while True:
        parts = chain[-1].body
        obs = [p for p in parts if isinstance(p, Obligation)]
        boxes = [p for p in parts if isinstance(p, Box)]
        if (
            len(parts) == 2
            and len(obs) == 1
            and len(boxes) == 1
            and (obs[0].pair, obs[0].action) == (boxes[0].pair, boxes[0].action)
        ):
            chain.append(boxes[0])
        else:
            break
    chain_events = {(b.pair, b.action) for b in chain}
    chain_ids = {id(b) for b in chain}

    state_namer = _Namer(_RESERVED_NAMES | {"Created", "Finalized"})
    state_counter = [0]

    def state_name(event: Event) -> str:
        given = meta.lookup(meta.states, event[0], event[1])
        if given:
            return state_namer.claim(given)
        state_counter[0] += 1
        return state_namer.claim(f"S{state_counter[0]}")

    states: list[str] = ["Created"]
    for link in chain:
        states.append(state_name((link.pair, link.action)))

    # -- name assignment ------------------------------------------------------
    # functions, flags and amount parameters share one namespace in the
    # emitted contract
    member_namer = _Namer(_RESERVED_NAMES | set(agent_of) | modifiers | {contract_name})
    fn_name_of: dict[Event, str] = {}
    flag_of: dict[Event, str] = {}
    advancing: set[Event] = set(chain_events)

    def fn_candidates(pair: AgentPair, action: str) -> tuple[str, ...]:
        given = meta.lookup(meta.funcs, pair, action)
        return (
            given or "",
            action,
            action + _cap(role_of[pair.counterparty]),
            action + _cap(role_of[pair.performer]) + _cap(role_of[pair.counterparty]),
        )

    for link in chain:
        fn_name_of[(link.pair, link.action)] = member_namer.claim(
            *fn_candidates(link.pair, link.action)
        )
    for ob in obligations:
        event = (ob.pair, ob.action)
        if event in fn_name_of:
            continue  # a chain guard doubles as this obligation's function
        fn_name_of[event] = member_namer.claim(*fn_candidates(ob.pair, ob.action))
        box = box_by_event.get(event)
        if box is not None and promoted(box):
            advancing.add(event)
        else:
            given = meta.lookup(meta.flags, ob.pair, ob.action)
            flag_of[event] = member_namer.claim(
                given or "",
                f"{ob.action}Done",
                f"{ob.action}Done{_cap(role_of[ob.pair.counterparty])}",
            )

    flag_order: list[Event] = [
        e
        for e in dict.fromkeys((ob.pair, ob.action) for ob in obligations)
        if e in flag_of
    ]

    # -- house-rule preconditions, placeholder flags ----------------------------
    rule_flags_of: dict[Event, list[str]] = {}
    phantom_flags: list[tuple[str, str]] = []
    for watch_pair, watch_action, target_pair, target_action in rules:
        target = (target_pair, target_action)
        if target not in fn_name_of:
            warnings.append(
                f"house rule bans {target_pair} {target_action}, which no "
                "obligation or guard performs; rule dropped"
            )
            continue
        source = (watch_pair, watch_action)
        flag = flag_of.get(source)
        if flag is None:
            given = meta.lookup(meta.flags, watch_pair, watch_action)
            flag = member_namer.claim(given or "", f"{watch_action}Done")
            flag_of[source] = flag
            phantom_flags.append(
                (flag, f"// {watch_pair} [!{watch_action}]* (no setter)")
            )
            warnings.append(
                f"house rule watches {watch_pair} {watch_action}, which no "
                f"obligation performs; flag {flag} can never be set"
            )
        rule_flags_of.setdefault(target, []).append(flag)

    # -- message and payability helpers ------------------------------------------
    bank_agents = {a for a, r in role_of.items() if r == "bank"}
    buyer_agents = {a for a, r in role_of.items() if r == "buyer"}

    param_of: dict[str, str] = {}  # wanted name -> claimed member name

    def payable_param(pair: AgentPair, action: str) -> str | None:
        wanted = meta.lookup(meta.payables, pair, action)
        if not wanted and "pay" in action and (
            pair.counterparty in bank_agents or pair.performer in buyer_agents
        ):
            wanted = f"{action}Amount"
        if not wanted:
            return None
        if wanted not in param_of:
            param_of[wanted] = member_namer.claim(wanted)
        return param_of[wanted]

    functions: list[FunctionIR] = []
    params: list[str] = []
    promo_state_of: dict[Event, str] = {}
    inline_links: list[tuple[str, str]] = []  # (caller fn, callee fn)
    terminal_flags: list[str] = []

    def message_for(pair: AgentPair, action: str) -> str:
        given = meta.lookup(meta.messages, pair, action)
        if given:
            return given
        return (
            f"{len(functions) + 1}. {role_of[pair.performer]} performed "
            f"{action} toward {role_of[pair.counterparty]}."
        )

    def build(
        pair: AgentPair,
        action: str,
        state_guard: str | None,
        box_flags: list[str],
        effects: list[object],
        comment: str,
        repeat_flag: str | None,
        finalize: bool,
        enclosing_fn: str | None,
    ) -> None:
        event = (pair, action)
        requires: list[tuple[str, bool, str]] = []
        seen = set()
        for flag in box_flags + rule_flags_of.get(event, []):
            if flag in seen:
                continue
            seen.add(flag)
            requires.append(
                (flag, True, meta.requires.get(flag, f"{flag} required"))
            )
        if repeat_flag is not None:
            requires.append(
                (
                    repeat_flag,
                    False,
                    meta.repeats.get(repeat_flag, f"{repeat_flag} already set"),
                )
            )
        param = payable_param(pair, action)
        if param and param not in params:
            params.append(param)
        comments = [comment]
        if rule_flags_of.get(event):
            comments.append(
                f"// house rule guard: {', '.join(rule_flags_of[event])}"
            )
        fn = FunctionIR(
            name=fn_name_of[event],
            agent=pair.performer,
            role_guard=role_of[pair.performer],
            state_guard=state_guard,
            value_guard=param,
            value_message=(
                (meta.lookup(meta.valuemsgs, pair, action)
                 or f"wrong value for {param}")
                if param
                else None
            ),
            flag_preconditions=tuple(requires),
            effects=tuple(effects),
            event=event,
            finalize=finalize,
            comments=tuple(comments),
        )
        if fidelity_internal_calls and _is_inline(meta, pair, action):
            fn.private = True
            fn.state_guard = None
            fn.flag_preconditions = ()
            if enclosing_fn:
                inline_links.append((enclosing_fn, fn.name))
                warnings.append(
                    f"fidelity: {fn.name} is private and called from "
                    f"{enclosing_fn}; its role guard sees the outer caller, "
                    "so the call always reverts"
                )
            else:
                fn.private = False
                warnings.append(
                    f"fidelity: inline {fn.name} has no enclosing guard "
                    "function to call it from; annotation ignored"
                )
        functions.append(fn)

    for i, link in enumerate(chain):
        build(
            link.pair,
            link.action,
            states[i],
            [],
            [
                SetState(states[i + 1]),
                EmitEvent(
                    role_of[link.pair.performer],
                    role_of[link.pair.counterparty],
                    message_for(link.pair, link.action),
                ),
            ],
            f"// {link.pair} [{link.action}]",
            repeat_flag=None,
            finalize=False,
            enclosing_fn=None,
        )

    # event -> (state, box flags) of the function built for it
    guards_of: dict[Event, tuple[str, tuple[str, ...]]] = {}

    def process_cluster(
        body: tuple[Clause, ...],
        cluster_state: str,
        box_flags: list[str],
        enclosing_fn: str | None,
    ) -> None:
        for part in body:
            if isinstance(part, Obligation):
                event = (part.pair, part.action)
                if event in chain_events:
                    continue  # realized by the chain function itself
                guards = (cluster_state, tuple(box_flags))
                if event in guards_of:
                    if guards_of[event] != guards:
                        raise LowerError(
                            f"cannot lower: {part.pair} {part.action} is obliged "
                            "under two different guards, which would need two "
                            "functions of one name; oblige it in one place"
                        )
                    continue  # the first occurrence's function serves both
                guards_of[event] = guards
                emit = EmitEvent(
                    role_of[part.pair.performer],
                    role_of[part.pair.counterparty],
                    message_for(part.pair, part.action),
                )
                if event in advancing:
                    new_state = state_name(event)
                    states.append(new_state)
                    promo_state_of[event] = new_state
                    build(
                        part.pair, part.action, cluster_state, box_flags,
                        [SetState(new_state), emit],
                        f"// {part.pair} O({part.action})",
                        repeat_flag=None, finalize=False,
                        enclosing_fn=enclosing_fn,
                    )
                else:
                    flag = flag_of[event]
                    terminal = box_by_event.get(event) is None
                    if terminal:
                        terminal_flags.append(flag)
                    build(
                        part.pair, part.action, cluster_state, box_flags,
                        [SetFlag(flag), emit],
                        f"// {part.pair} O({part.action})",
                        repeat_flag=flag, finalize=terminal,
                        enclosing_fn=enclosing_fn,
                    )
            elif isinstance(part, Box):
                if id(part) in chain_ids:
                    continue
                event = (part.pair, part.action)
                if event in advancing:
                    # the guard's own function opened a fresh cluster
                    process_cluster(
                        part.body,
                        promo_state_of.get(event, cluster_state),
                        [],
                        fn_name_of.get(event),
                    )
                else:
                    flag = flag_of.get(event)
                    if flag is None:
                        flag = member_namer.claim(f"{part.action}Done")
                        flag_of[event] = flag
                        phantom_flags.append(
                            (flag, f"// {part.pair} [{part.action}] (no setter)")
                        )
                        warnings.append(
                            f"guard {part.pair} {part.action} matches no "
                            "obligation; functions behind it can never run"
                        )
                    process_cluster(
                        part.body,
                        cluster_state,
                        box_flags + [flag],
                        fn_name_of.get(event),
                    )
            elif isinstance(part, IterBox):
                warnings.append(
                    f"nested watch on {part.pair} {part.action} has no "
                    "state-machine counterpart; dropped"
                )
            # permissions and prohibitions lower to nothing here

    process_cluster(chain[-1].body, states[len(chain)], [], None)
    states.append("Finalized")

    for caller_name, callee_name in inline_links:
        for fn in functions:
            if fn.name == caller_name:
                fn.effects = fn.effects + (CallFn(callee_name),)

    flag_decls: list[tuple[str, str]] = []
    for event in flag_order:
        flag_decls.append((flag_of[event], f"// {event[0]} O({event[1]})"))
    flag_decls.extend(phantom_flags)

    finalization_state: str | None = states[-2] if len(states) > 1 else None
    if not terminal_flags:
        finalization_state = None
        warnings.append(
            "no terminal obligations; the Finalized state is unreachable"
        )

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
        flags=tuple(flag_decls),
        params=tuple(params),
        functions=tuple(functions),
        finalization_state=finalization_state,
        finalization_flags=tuple(dict.fromkeys(terminal_flags)),
        warnings=tuple(warnings),
    )


# -- emission ----------------------------------------------------------------

def _modifier_names(roles: tuple[tuple[str, str], ...]) -> dict[str, str]:
    """Modifier per agent: only<Initial>, spelled out on collisions."""
    by_initial: dict[str, list[str]] = {}
    for _role, agent in roles:
        by_initial.setdefault(agent[0].upper(), []).append(agent)
    names: dict[str, str] = {}
    for initial, agents in by_initial.items():
        if len(agents) == 1:
            names[agents[0]] = f"only{initial}"
        else:
            for agent in agents:
                names[agent] = f"only{_cap(agent)}"
    return names


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def emit_solidity(ir: MachineIR) -> str:
    """Render the IR as Solidity text. The output is deterministic:
    LF line endings, four-space indents, one trailing newline."""
    mods = _modifier_names(ir.roles)
    role_messages = dict(ir.role_messages)
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
        w(f'        require(msg.sender == {role}, "{_esc(role_messages[agent])}");')
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
