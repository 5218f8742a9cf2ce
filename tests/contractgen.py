"""Seeded random contract builder shared by the test modules.

Two flavors: `random_contract` draws arbitrary clause trees (any operator,
boxes, iterated boxes of either polarity) for parser round-trips and
checker/oracle equivalence, and `merged_contract` joins several draws into
a denser one; `random_lowerable` draws conflict-free single-root-box chains
whose guards all carry matching obligations, the shape the code generator
accepts without synthesizing placeholder flags, and `random_flow` draws
the nested flows, house rules and annotations it handles below the chain.
`random_clashing` draws flows whose names collide on purpose.
`repeat_tail_obligations` restates some of a lowerable contract's
innermost obligations, which must lower to the same machine, and
`under_one_box` puts any draw's clauses under the one root box a
lowering starts from. `permission_positions` tells where a draw holds
permissions, so a test can show its draws hold them everywhere.
"""

from __future__ import annotations

import random

from rclc.ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    Decl,
    IterBox,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    Span,
    iter_clauses,
)
from rclc.codegen import _cap
from rclc.semantics import event_universe

_SPAN = Span(1, 1, 1, 1)

_AGENT_POOL = ["a", "b", "c", "d"]
_ACTION_POOL = ["act1", "act2", "act3", "act4", "act5", "act6"]


def _pair(rng: random.Random, agents: list[str]) -> AgentPair:
    x, y = rng.sample(agents, 2)
    return AgentPair(x, y)


def _conjunction(rng: random.Random, agents: list[str], actions: list[str],
                 depth: int) -> tuple[Clause, ...]:
    choices = ["O", "F", "P"]
    if depth > 0:
        choices += ["box", "iter", "and"]
    kind = rng.choice(choices)
    pair = _pair(rng, agents)
    action = rng.choice(actions)
    if kind == "O":
        return (Obligation(pair, action, _SPAN),)
    if kind == "F":
        return (Prohibition(pair, action, _SPAN),)
    if kind == "P":
        return (Permission(pair, action, _SPAN),)
    if kind == "and":
        left = _conjunction(rng, agents, actions, depth - 1)
        return left + _conjunction(rng, agents, actions, depth - 1)
    body = _conjunction(rng, agents, actions, depth - 1)
    if kind == "box":
        return (Box(pair, action, body, _SPAN),)
    return (IterBox(pair, action, body, rng.random() < 0.5, True, _SPAN),)


def random_contract(rng: random.Random, max_events: int = 10) -> Contract:
    """Arbitrary well-formed contract with a bounded event universe."""
    agents = _AGENT_POOL[: rng.randint(2, 4)]
    actions = _ACTION_POOL[: rng.randint(1, 6)]
    while True:
        n_statements = rng.randint(1, 8)
        clauses = tuple(
            clause
            for _ in range(n_statements)
            for clause in _conjunction(rng, agents, actions, rng.randint(0, 3))
        )
        contract = Contract(
            tuple(Decl(a, _SPAN) for a in agents),
            tuple(Decl(a, _SPAN) for a in actions),
            clauses,
            Meta(),
        )
        if len(event_universe(contract)) <= max_events:
            return contract


def merged_contract(rng: random.Random, parts: int, max_events: int) -> Contract:
    """The clauses of `parts` random contracts under one declaration, for
    denser contracts than one draw gives; each draw declares a prefix of
    the same agent and action pools, so the longest covers them all."""
    while True:
        drawn = [random_contract(rng, max_events) for _ in range(parts)]
        contract = Contract(
            max((c.agents for c in drawn), key=len),
            max((c.actions for c in drawn), key=len),
            tuple(clause for c in drawn for clause in c.clauses),
        )
        if len(event_universe(contract)) <= max_events:
            return contract


def random_lowerable(rng: random.Random) -> Contract:
    """Conflict-free chain contract the code generator can lower.

    Shape: one top-level box chain 1-3 deep; every guard event also
    appears as an obligation; innermost body holds 1-3 extra obligations
    on fresh events. No prohibitions, so no conflicts by construction.
    """
    agents = _AGENT_POOL[: rng.randint(2, 4)]
    n_actions = rng.randint(4, 6)
    actions = _ACTION_POOL[:n_actions]
    free = list(actions)
    rng.shuffle(free)

    depth = rng.randint(1, min(3, n_actions - 1))
    chain = [(_pair(rng, agents), free.pop()) for _ in range(depth)]
    tail_events = [
        (_pair(rng, agents), free.pop())
        for _ in range(rng.randint(1, max(1, len(free))))
    ]

    body = tuple(Obligation(pair, action, _SPAN) for pair, action in tail_events)
    for pair, action in reversed(chain[1:]):
        body = (Obligation(pair, action, _SPAN), Box(pair, action, body, _SPAN))
    root_pair, root_action = chain[0]
    root = Box(root_pair, root_action, body, _SPAN)

    return Contract(
        tuple(Decl(a, _SPAN) for a in agents),
        tuple(Decl(a, _SPAN) for a in actions),
        (root,),
        Meta(),
    )


def repeat_tail_obligations(rng: random.Random, contract: Contract) -> Contract:
    """`contract` (from `random_lowerable`) with 1-3 of its innermost
    obligations obliged again at the end of the same body: the same
    events under the same guards, which adds no function."""

    def restate(box: Box) -> Box:
        if isinstance(box.body[-1], Box):
            return Box(box.pair, box.action, box.body[:-1] + (restate(box.body[-1]),), box.span)
        extra = tuple(rng.choice(box.body) for _ in range(rng.randint(1, 3)))
        return Box(box.pair, box.action, box.body + extra, box.span)

    clauses = (restate(contract.clauses[0]),)
    return Contract(contract.agents, contract.actions, clauses, contract.meta)


def under_one_box(rng: random.Random, contract: Contract) -> Contract:
    """`contract` with its clauses as the body of one top-level box on a
    declared action, so that `lower` reaches the flow of any draw."""
    pair = _pair(rng, [agent.name for agent in contract.agents])
    root = Box(pair, rng.choice(contract.actions).name, contract.clauses, _SPAN)
    return Contract(contract.agents, contract.actions, (root,), contract.meta)


def deep_flow(depth: int) -> Contract:
    """`depth` nested boxes under one root box, three clauses in each body,
    so the chain is the root alone: each box's event is obliged beside it,
    and so is one terminal event. It holds no prohibition."""
    ab = AgentPair("a", "b")
    body = (Obligation(ab, "e", _SPAN), Obligation(ab, "f", _SPAN))
    for level in reversed(range(depth)):
        body = (Obligation(ab, f"e{level}", _SPAN), Obligation(ab, f"f{level}", _SPAN),
                Box(ab, f"e{level}", body, _SPAN))
    actions = [f"{kind}{level}" for level in range(depth) for kind in "ef"] + ["e", "f", "go"]
    return Contract((Decl("a"), Decl("b")), tuple(map(Decl, actions)),
                    (Box(ab, "go", body, _SPAN),))


_FLOW_ACTIONS = _ACTION_POOL + ["act7", "act8", "pay1", "pay2"]


def random_flow(rng: random.Random, actions: list[str] = _FLOW_ACTIONS) -> Contract:
    """Contract with each shape the code generator tells apart below its
    state chain; lower it with allow_conflicts, as a house rule may ban
    an obliged event.

    One root box chain 1-2 deep whose innermost body nests guards up to
    two levels: obligations on fresh events, then guards on one of them
    (promoted when the guard's body holds two or more obligations,
    flagged otherwise), on an event obliged elsewhere, or now and then on
    an event nothing obliges. About 30% of the bodies are shuffled, so a
    guard may precede its obligation. Beside the root sit 0-2 house rules,
    each of which may watch or ban an event nothing obliges. The header
    may give two agents the buyer and bank roles, pay for obligations by
    annotation and mark events inline. `actions` is the pool the events'
    actions come from.
    """
    agents = _AGENT_POOL[: rng.randint(2, 4)]
    fresh = [
        (AgentPair(x, y), action)
        for x in agents
        for y in agents
        if x != y
        for action in actions
    ]
    rng.shuffle(fresh)
    chain = [fresh.pop() for _ in range(rng.randint(1, 2))]
    obliged = chain[1:]

    def body(depth: int) -> tuple[Clause, ...]:
        events = [fresh.pop() for _ in range(rng.randint(1, 3))]
        obliged.extend(events)
        parts: list[Clause] = [Obligation(pair, action, _SPAN) for pair, action in events]
        for _ in range(rng.randint(0, depth)):
            roll = rng.random()
            if roll < 0.75:
                pair, action = rng.choice(events)
            elif roll < 0.9:
                pair, action = rng.choice(obliged)
            else:
                pair, action = fresh.pop()
            parts.append(Box(pair, action, body(depth - 1), _SPAN))
        if rng.random() < 0.3:
            rng.shuffle(parts)
        return tuple(parts)

    inner = body(2)
    for pair, action in reversed(chain[1:]):
        inner = (Obligation(pair, action, _SPAN), Box(pair, action, inner, _SPAN))
    clauses: list[Clause] = [Box(*chain[0], inner, _SPAN)]
    for _ in range(rng.randint(0, 2)):
        watch, target = (
            fresh.pop() if fresh and rng.random() < 0.2 else rng.choice(obliged)
            for _ in range(2)
        )
        ban = Prohibition(*target, _SPAN)
        clauses.append(IterBox(*watch, (ban,), False, True, _SPAN))

    meta = Meta()
    if rng.random() < 0.5:
        buyer, bank = rng.sample(agents, 2)
        meta.roles.update({buyer: "buyer", bank: "bank"})
    for i, (pair, action) in enumerate(rng.sample(obliged, min(len(obliged), rng.randint(0, 2)))):
        meta.payables[(pair.performer, pair.counterparty, action)] = f"amount{i}"
    for pair, action in rng.sample(chain + obliged, rng.randint(0, 2)):
        meta.inline.append((pair.performer, pair.counterparty, action))

    used = {clause.action for clause, _path in iter_clauses(Contract((), (), tuple(clauses)))}
    return Contract(
        tuple(Decl(a, _SPAN) for a in agents),
        tuple(Decl(a, _SPAN) for a in actions if a in used),
        tuple(clauses),
        meta,
    )


# Actions named like what the generated contract declares anyway: reserved
# words and fixed members, `only*` modifiers, a `<action>Done` flag, a
# `<action><Role>` fallback and a `<action>Amount` parameter.
_CLASHING_ACTIONS = [
    "go", "goDone", "goB", "goAB", "emit", "state", "Notify", "onlyA", "onlyB",
    "pay", "payAmount", "payDone",
]
# Names the annotation tables give: taken members, reserved words, the
# fixed states and names given twice.
_CLASHING_NAMES = [
    "go", "goB", "goAB", "goDone", "payAmount", "onlyA", "emit", "Created", "S1", "x", "x",
]


def random_clashing(rng: random.Random) -> Contract:
    """A `random_flow` contract over `_CLASHING_ACTIONS` whose header fills
    every naming table (func, flag, state, payable, message, valuemsg,
    require, repeat, rolemsg) with colliding names, for exact and bare
    keys alike; roles and the contract name may clash too. Lower it with
    allow_conflicts; some draws are refused for a reserved role or
    contract name."""
    contract = random_flow(rng, _CLASHING_ACTIONS)
    meta = contract.meta
    events = sorted({(c.pair, c.action) for c, _path in iter_clauses(contract)})
    tables = (meta.funcs, meta.flags, meta.states, meta.payables, meta.messages,
              meta.valuemsgs)
    for table in tables:
        for pair, action in rng.sample(events, min(len(events), rng.randint(0, 3))):
            key = (pair.performer, pair.counterparty, action)
            if rng.random() < 0.3:
                key = (None, None, action)
            table[key] = rng.choice(_CLASHING_NAMES)
    for name in rng.sample(["goDone", "payDone", "goDoneB", "x"], rng.randint(0, 2)):
        meta.requires[name] = f"{name} first"
        meta.repeats[name] = f"{name} once"
    for agent in rng.sample(contract.agent_names(), rng.randint(0, 2)):
        meta.rolemsgs[agent] = f"{agent} only"
        if rng.random() < 0.3:
            meta.roles[agent] = rng.choice(["pay", "goB", "goDone", "bank", "emit", "onlyB"])
    meta.contract_name = rng.choice([None, "go", "payAmount", "Deal", "if"])
    pair, action = events[0]
    spare = [a for a in contract.agent_names() if a not in pair]
    # never the name of a role field or modifier, which lower refuses
    named = action in meta.roles.values() or action.startswith("only")
    if len(spare) == 2 and not named and rng.random() < 0.5:
        # the contract and the two spare roles take every name the
        # function of one event falls back through
        performer, counterparty = (_cap(meta.roles.get(a, a)) for a in pair)
        meta.contract_name = action
        meta.roles[spare[0]] = action + counterparty
        meta.roles[spare[1]] = action + performer + counterparty
    if rng.random() < 0.3:
        meta.statemsg = "not now"
    return contract


PERMISSION_POSITIONS = {"top", "box", "until", "once"}


def permission_positions(contract: Contract) -> set[str]:
    """Where `contract` holds a permission: at the "top" level, or in the
    body of a "box", an "until" (`[!a]*`) or a "once" (`[a]*`) watch."""
    found = set()
    bodies = [(contract.clauses, "top")]
    while bodies:
        body, where = bodies.pop()
        for clause in body:
            if isinstance(clause, Permission):
                found.add(where)
            elif isinstance(clause, Box):
                bodies.append((clause.body, "box"))
            elif isinstance(clause, IterBox):
                bodies.append((clause.body, "once" if clause.positive else "until"))
    return found
