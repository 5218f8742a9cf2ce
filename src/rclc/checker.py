"""Conflict search by path conditions.

A conflict is an obligation and a prohibition on the same (pair,
action) active in the same reachable state. The norm state depends only
on the fired set, so each O/F occurrence is in force exactly under a
conjunction of literals on that set, its path condition. `check` derives
every condition in one walk of the clause tree, decides each O/F pair
by whether the two conditions hold together, and builds the shortest
witness directly, so no state of the 2^n subset lattice is visited.
`brute_force_oracle` answers the same question by exhaustive enumeration
with its own tiny interpreter; it shares nothing with the check and
exists to keep `check` honest.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .ast import (
    Box,
    Clause,
    Contract,
    IterBox,
    Obligation,
    Permission,
    Prohibition,
)
from .semantics import ContractSemantics, Event, Norm, clash_order, format_event

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
    """Report each obligation/prohibition origin pair that clashes in some
    reachable state, with its witness: the first fired set in
    `semantics.fired_sets` order (smallest, then by event index) at which
    the clash shows. Reports follow (witness, `clash_order`), the order a
    walk of the lattice would find them in. Witnesses are re-run through
    the stepper before being reported, not trusted from the construction.
    """
    begin = time.perf_counter()
    sem = ContractSemantics(contract)
    universe = sem.universe
    first_with: dict[str, int] = {}
    for i, (_pair, action) in enumerate(universe):
        first_with.setdefault(action, i)

    obliged: dict[Event, list[tuple[Norm, _Condition]]] = {}
    forbidden: list[tuple[Norm, _Condition]] = []
    for norm, cond in _path_conditions(contract, universe):
        if norm.kind == "O":
            obliged.setdefault((norm.pair, norm.action), []).append((norm, cond))
        else:
            forbidden.append((norm, cond))

    # (obligation, prohibition) -> the least witness as (size, event
    # indices), the rank of a fired set in `fired_sets` order
    least: dict[tuple[Norm, Norm], tuple[int, tuple[int, ...]]] = {}
    for forbid, (f_need, f_banned, f_wanted) in forbidden:
        for ob, (o_need, o_banned, o_wanted) in obliged.get((forbid.pair, forbid.action), ()):
            # The obligation's own literal, its event unfired, needs no
            # test: the prohibition bans that event's action.
            banned = f_banned | o_banned
            wanted = f_wanted | o_wanted
            need = f_need | o_need
            done = {universe[i][1] for i in need}
            if banned & wanted or banned & done:
                continue
            # each watched action not yet performed costs one event, and
            # the lowest-index one is the least choice
            witness = tuple(sorted(need.union(first_with[a] for a in wanted - done)))
            rank = (len(witness), witness)
            if (ob, forbid) not in least or rank < least[ob, forbid]:
                least[ob, forbid] = rank

    conflicts = tuple(
        Conflict(ob, forbid, tuple(universe[i] for i in least[ob, forbid][1]))
        for ob, forbid in sorted(least, key=lambda clash: (least[clash], clash_order(clash)))
    )
    sharing: dict[tuple[Event, ...], list[Conflict]] = {}
    for conflict in conflicts:
        sharing.setdefault(conflict.witness, []).append(conflict)
    for witness, group in sharing.items():
        _replay_witness(sem, witness, group)

    # the lattice is full: 2^n states, and each of the n events labels
    # the edges out of the half of them where it is unfired
    n = len(universe)
    wall_ms = (time.perf_counter() - begin) * 1000.0
    return CheckReport(conflicts, CheckStats(2**n, n * 2**n // 2, wall_ms))


# (events that must have fired, as universe indices; actions no fired
# event may perform; actions some fired event must perform)
_Condition = tuple[frozenset[int], frozenset[str], frozenset[str]]

_TRUE: _Condition = (frozenset(), frozenset(), frozenset())


def _path_conditions(contract: Contract, universe: tuple[Event, ...]):
    """Every obligation and prohibition occurrence with the condition on
    the fired set under which it is in force: each enclosing box's guard
    has fired; the prohibition's action and each enclosing `[!a]*`'s
    action is performed by no fired event; each enclosing `[a]*`'s action
    is performed by some fired event. The walk keeps its own stack."""
    index_of = {event: i for i, event in enumerate(universe)}
    out: list[tuple[Norm, _Condition]] = []
    stack: list[tuple[Clause, _Condition]] = [(c, _TRUE) for c in contract.clauses]
    while stack:
        clause, cond = stack.pop()
        need, banned, wanted = cond
        if isinstance(clause, Obligation):
            out.append((Norm("O", clause.pair, clause.action, clause.span), cond))
        elif isinstance(clause, Prohibition):
            out.append((Norm("F", clause.pair, clause.action, clause.span),
                        (need, banned | {clause.action}, wanted)))
        elif isinstance(clause, Box):
            guard = index_of[(clause.pair, clause.action)]
            inner = (need | {guard}, banned, wanted)
            stack.extend((c, inner) for c in clause.body)
        elif isinstance(clause, IterBox):
            if clause.positive:
                inner = (need, banned, wanted | {clause.action})
            else:
                inner = (need, banned | {clause.action}, wanted)
            stack.extend((c, inner) for c in clause.body)
    return out


def _replay_witness(sem: ContractSemantics, witness: tuple[Event, ...],
                    conflicts: list[Conflict]):
    state = sem.initial_state()
    for event in witness:
        state = sem.step(state, event)
    for conflict in conflicts:
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


# -- report rendering --------------------------------------------------

def _span_at(origin, file: str) -> str:
    return f"{file}:{origin.line}:{origin.col}"


def report_to_json(report: CheckReport, file: str = "<input>") -> str:
    import json

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
