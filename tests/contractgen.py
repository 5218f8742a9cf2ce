"""Seeded random contract builder shared by the test modules.

Two flavors: `random_contract` draws arbitrary clause trees (any operator,
boxes, iterated boxes of either polarity) for parser round-trips and
checker/oracle equivalence, and `merged_contract` joins several draws into
a denser one; `random_lowerable` draws conflict-free single-root-box chains
whose guards all carry matching obligations, the shape the code generator
accepts without synthesizing placeholder flags.
`repeat_tail_obligations` restates some of a lowerable contract's
innermost obligations, which must lower to the same machine.
"""

from __future__ import annotations

import random
from dataclasses import replace

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
)
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
            return replace(box, body=box.body[:-1] + (restate(box.body[-1]),))
        extra = tuple(rng.choice(box.body) for _ in range(rng.randint(1, 3)))
        return replace(box, body=box.body + extra)

    return replace(contract, clauses=(restate(contract.clauses[0]),))
