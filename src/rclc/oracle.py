"""Independent conflict oracle: exhaustive enumeration of fired sets.

`brute_force_oracle` answers the question `checker.check` answers, with
its own walk of the clause tree and its own interpreter, and shares
nothing with `check` or `semantics`, so it keeps them honest. No
command runs it: tests and the benchmark's output checks load it on
first use, as `rclc.brute_force_oracle` or `rclc.checker`'s name of it.
"""

from __future__ import annotations

import itertools

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    IterBox,
    Obligation,
    Permission,
    Prohibition,
)

__all__ = ["ORACLE_EVENT_BOUND", "brute_force_oracle"]

ORACLE_EVENT_BOUND = 12


def brute_force_oracle(
    contract: Contract, full_permutations: bool = False
) -> set[tuple]:
    """Exhaustively enumerate runs and collect every (pair, action)
    clashing at some point. Self-contained: walks the clause tree with
    its own interpreter and enumerates raw event combinations.

    `full_permutations` additionally replays every ordering of every
    subset prefix by prefix (quadratic blowup on top of exponential;
    capped to 7 events) instead of relying on runs being order-blind.
    """
    universe = sorted(_oracle_universe(contract),
                      key=lambda e: (e[0].performer, e[0].counterparty, e[1]))
    if len(universe) > ORACLE_EVENT_BOUND:
        raise ValueError(
            f"oracle bound exceeded: {len(universe)} events > {ORACLE_EVENT_BOUND}"
        )
    if full_permutations and len(universe) > 7:
        raise ValueError("full permutation mode is capped to 7 events")

    clashing: set[tuple] = set()

    def record(fired: frozenset):
        obliged, forbidden = _oracle_active(contract, fired)
        clashing.update(obliged & forbidden)

    if full_permutations:
        for size in range(len(universe) + 1):
            for subset in itertools.combinations(universe, size):
                for order in itertools.permutations(subset):
                    fired = set()
                    record(frozenset(fired))
                    for event in order:
                        fired.add(event)
                        record(frozenset(fired))
    else:
        for size in range(len(universe) + 1):
            for subset in itertools.combinations(universe, size):
                record(frozenset(subset))
    return clashing


def _oracle_universe(contract: Contract) -> set[tuple[AgentPair, str]]:
    events: set[tuple[AgentPair, str]] = set()
    stack: list[Clause] = list(contract.clauses)
    while stack:
        node = stack.pop()
        events.add((node.pair, node.action))
        if isinstance(node, (Box, IterBox)):
            stack.extend(node.body)
    return events


def _oracle_active(contract: Contract, fired: frozenset) -> tuple[set, set]:
    done_actions = {action for _pair, action in fired}
    obliged: set[tuple] = set()
    forbidden: set[tuple] = set()
    stack: list[Clause] = list(contract.clauses)
    while stack:
        node = stack.pop()
        if isinstance(node, Obligation):
            if (node.pair, node.action) not in fired:
                obliged.add((node.pair, node.action))
        elif isinstance(node, Prohibition):
            if node.action not in done_actions:
                forbidden.add((node.pair, node.action))
        elif isinstance(node, Permission):
            pass
        elif isinstance(node, Box):
            if (node.pair, node.action) in fired:
                stack.extend(node.body)
        elif isinstance(node, IterBox):
            if (node.action in done_actions) == node.positive:
                stack.extend(node.body)
    return obliged, forbidden
