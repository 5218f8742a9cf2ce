"""Conflict search over the reachable state space.

A conflict is an obligation and a prohibition on the same (pair,
action) active in the same reachable state. `check` finds every such
clash by walking the subset lattice in its canonical order
(`semantics.fired_sets`) and reports one entry per origin pair with a
shortest witness trace. `brute_force_oracle` answers the same question
by exhaustive enumeration with its own tiny interpreter; it shares
nothing with the scan and exists to keep `check` honest.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass

from .ast import (
    And,
    Box,
    Clause,
    Contract,
    IterBox,
    Obligation,
    Permission,
    Prohibition,
)
from .semantics import ContractSemantics, Event, Norm, clashes, fired_sets, format_event

__all__ = [
    "Conflict",
    "CheckStats",
    "CheckReport",
    "check",
    "brute_force_oracle",
    "report_to_json",
    "report_to_text",
]

ORACLE_EVENT_BOUND = 12


@dataclass(frozen=True)
class Conflict:
    obligation: Norm
    prohibition: Norm
    witness: tuple[Event, ...]

    @property
    def pair(self):
        return self.obligation.pair

    @property
    def action(self) -> str:
        return self.obligation.action


@dataclass(frozen=True)
class CheckStats:
    states: int
    transitions: int
    wall_ms: float


@dataclass(frozen=True)
class CheckReport:
    conflicts: tuple[Conflict, ...]
    stats: CheckStats

    @property
    def ok(self) -> bool:
        return not self.conflicts


def check(contract: Contract) -> CheckReport:
    """Derive every reachable state, smallest fired set first; report
    each obligation/prohibition origin pair that clashes somewhere, with
    a shortest witness (ties broken by event order). Witnesses are re-run
    through the stepper before being reported, not trusted from the
    scan."""
    begin = time.perf_counter()
    sem = ContractSemantics(contract)
    seen_keys = set()
    conflicts: list[Conflict] = []
    for fired in fired_sets(sem.universe):
        for ob, forbid in clashes(sem.state(frozenset(fired))):
            key = (ob.pair, ob.action, ob.origin, forbid.origin)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            conflicts.append(Conflict(ob, forbid, fired))

    for conflict in conflicts:
        _replay_witness(sem, conflict)

    # the lattice is full: 2^n states, and each of the n events labels
    # the edges out of the half of them where it is unfired
    n = len(sem.universe)
    wall_ms = (time.perf_counter() - begin) * 1000.0
    return CheckReport(
        tuple(conflicts), CheckStats(2**n, n * 2**n // 2, wall_ms)
    )


def _replay_witness(sem: ContractSemantics, conflict: Conflict):
    state = sem.initial_state()
    for event in conflict.witness:
        state = sem.step(state, event)
    if conflict.obligation not in state.active or conflict.prohibition not in state.active:
        raise RuntimeError(
            f"witness replay failed for {conflict.pair} {conflict.action}"
        )


# -- independent oracle ------------------------------------------------

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


def _oracle_universe(contract: Contract) -> set[Event]:
    events: set[Event] = set()
    stack: list[Clause] = list(contract.clauses)
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
            continue
        events.add((node.pair, node.action))
        if isinstance(node, (Box, IterBox)):
            stack.append(node.body)
    return events


def _oracle_active(contract: Contract, fired: frozenset) -> tuple[set, set]:
    done_actions = {action for _pair, action in fired}
    obliged: set[tuple] = set()
    forbidden: set[tuple] = set()
    stack: list[Clause] = list(contract.clauses)
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Obligation):
            if (node.pair, node.action) not in fired:
                obliged.add((node.pair, node.action))
        elif isinstance(node, Prohibition):
            if node.action not in done_actions:
                forbidden.add((node.pair, node.action))
        elif isinstance(node, Permission):
            pass
        elif isinstance(node, Box):
            if (node.pair, node.action) in fired:
                stack.append(node.body)
        elif isinstance(node, IterBox):
            if (node.action in done_actions) == node.positive:
                stack.append(node.body)
    return obliged, forbidden


# -- report rendering --------------------------------------------------

def _span_at(origin, file: str) -> str:
    return f"{file}:{origin.line}:{origin.col}"


def report_to_json(report: CheckReport, file: str = "<input>") -> str:
    payload = {
        "conflicts": [
            {
                "pair": [c.pair.performer, c.pair.counterparty],
                "action": c.action,
                "obligation_at": _span_at(c.obligation.origin, file),
                "prohibition_at": _span_at(c.prohibition.origin, file),
                "witness": [
                    {"pair": [p.performer, p.counterparty], "action": a}
                    for p, a in c.witness
                ],
            }
            for c in report.conflicts
        ],
        "stats": {
            "states": report.stats.states,
            "transitions": report.stats.transitions,
            "wall_ms": round(report.stats.wall_ms, 3),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(report: CheckReport, file: str = "<input>",
                   color: bool = False) -> str:
    red = "\x1b[31m" if color else ""
    green = "\x1b[32m" if color else ""
    reset = "\x1b[0m" if color else ""
    lines = []
    for c in report.conflicts:
        head = f"{red}conflict{reset}" if color else "conflict"
        lines.append(
            f"{_span_at(c.obligation.origin, file)}: {head}: "
            f"{c.pair} is both obliged and forbidden to {c.action}"
        )
        lines.append(f"  obligation at {_span_at(c.obligation.origin, file)}")
        lines.append(f"  prohibition at {_span_at(c.prohibition.origin, file)}")
        if c.witness:
            shown = " -> ".join(format_event(e) for e in c.witness)
            lines.append(f"  witness: {shown}")
        else:
            lines.append("  witness: (initial state)")
    verdict = (
        f"{len(report.conflicts)} conflict(s)" if report.conflicts
        else f"{green}no conflicts{reset}"
    )
    lines.append(
        f"{verdict}, {report.stats.states} states, "
        f"{report.stats.transitions} transitions, "
        f"{report.stats.wall_ms:.1f} ms"
    )
    return "\n".join(lines) + "\n"
