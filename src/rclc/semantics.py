"""Operational semantics: a contract as a finite transition system.

Events are relativized actions (pair, action). Each event fires at most
once, so a run is a growing set of fired events and the whole system is
finite. The norm state is a pure function of that set:

  * a box `{x,y}[a](C)` contributes C once its exact (pair, action) has
    fired, and is otherwise a pending guard;
  * `{x,y}[!a]*(C)` keeps C in force while action `a` is unperformed by
    anyone, and retires it permanently once `a` fires;
  * `[a]*(C)` is the mirrored form: C comes into force once `a` fires;
  * an obligation is active until its exact (pair, action) fires;
  * a prohibition is active until its action fires, performed by any
    pair (the forbidden deed, once done by whoever, is no longer
    awaited; what remains is a breach, which is out of scope here);
  * permissions impose nothing and are dropped.

Because activity depends only on the fired set, firing order can never
matter, which makes the reachable system the subset lattice of the
event universe.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    IterBox,
    Obligation,
    Permission,
    Prohibition,
    Span,
    iter_clauses,
    validate,
)

__all__ = [
    "Event",
    "Norm",
    "NormState",
    "Lts",
    "StepError",
    "ContractSemantics",
    "event_universe",
    "fired_sets",
    "clashes",
    "clash_order",
    "initial_state",
    "enumerate_reachable",
    "dump_lts",
    "lts_to_dot",
]

Event = tuple[AgentPair, str]


class StepError(Exception):
    """An event replayed or not resolvable against the contract."""


def format_event(event: Event) -> str:
    pair, action = event
    return f"{pair} {action}"


@dataclass(frozen=True)
class Norm:
    """An obligation or prohibition in force, tagged with the source
    span of the clause it came from (distinct occurrences stay
    distinct)."""

    kind: str  # "O" | "F"
    pair: AgentPair
    action: str
    origin: Span

    def __str__(self):
        return f"{self.kind} {self.pair} {self.action}"


@dataclass(frozen=True)
class NormState:
    """Snapshot of the contract after some set of events has fired.

    Everything except `fired` is derived; two states over the same
    contract are equal iff their fired sets are.
    """

    fired: frozenset[Event]
    active: frozenset[Norm]
    pending_boxes: frozenset[tuple[Event, tuple[Clause, ...]]]
    # (watched action, guarded body, positive?) for every armed watch
    iter_watch: frozenset[tuple[str, tuple[Clause, ...], bool]]


@dataclass(frozen=True)
class Lts:
    """Reachability-closed transition system, canonically ordered.

    states[0] is the initial state; states follow `fired_sets`, i.e.
    (|fired|, fired as event indices); transitions sort by (source,
    event index).
    """

    states: tuple[NormState, ...]
    transitions: tuple[tuple[int, Event, int], ...]
    universe: tuple[Event, ...]

    @property
    def initial(self) -> NormState:
        return self.states[0]


def event_universe(contract: Contract) -> tuple[Event, ...]:
    """Every distinct (pair, action) occurring anywhere: as the subject
    of a deontic operator, a box guard, or an iterated watch."""
    seen = {(clause.pair, clause.action) for clause, _path in iter_clauses(contract)}
    return tuple(sorted(seen, key=_event_key))


def _event_key(event: Event):
    pair, action = event
    return (pair.performer, pair.counterparty, action)


def fired_sets(universe: tuple[Event, ...]) -> Iterator[tuple[Event, ...]]:
    """Every subset of `universe`, each a tuple in universe order, smallest
    first and, within a size, lexicographic in event indices. This is the
    canonical order of the subset lattice: the order of `Lts.states`.
    Firing order never matters, so the tuple is also a run, and the first
    set showing a clash is a shortest witness; `check` reports exactly
    that set without walking the lattice."""
    for size in range(len(universe) + 1):
        yield from itertools.combinations(universe, size)


def clash_order(clash: tuple[Norm, Norm]):
    """Total order on the clashes within one state: prohibition origin,
    then the clashing (pair, action), then obligation origin. The (pair,
    action) tie-break matters only for norms sharing an origin, which
    parsed contracts never have but hand-built ones may."""
    ob, forbid = clash
    return (forbid.origin.line, forbid.origin.col, forbid.pair, forbid.action,
            ob.origin.line, ob.origin.col)


def clashes(state: NormState) -> list[tuple[Norm, Norm]]:
    """The (obligation, prohibition) pairs on one (pair, action) that are
    both in force in `state`, in `clash_order`."""
    obliged: dict[Event, list[Norm]] = {}
    for norm in state.active:
        if norm.kind == "O":
            obliged.setdefault((norm.pair, norm.action), []).append(norm)
    if not obliged:
        return []
    return sorted(
        (
            (ob, forbid)
            for forbid in state.active
            if forbid.kind == "F"
            for ob in obliged.get((forbid.pair, forbid.action), ())
        ),
        key=clash_order,
    )


class ContractSemantics:
    """State derivation and stepping for one contract."""

    def __init__(self, contract: Contract):
        problems = [i for i in validate(contract) if i.severity == "error"]
        if problems:
            raise ValueError(
                "contract does not validate: " + "; ".join(i.message for i in problems)
            )
        self.contract = contract
        self.universe = event_universe(contract)
        self._known = frozenset(self.universe)

    def initial_state(self) -> NormState:
        return self.state(frozenset())

    def step(self, state: NormState, event: Event) -> NormState:
        if event not in self._known:
            raise StepError(f"event {format_event(event)} does not resolve")
        if event in state.fired:
            raise StepError(f"event {format_event(event)} already fired")
        return self.state(state.fired | {event})

    def state(self, fired: frozenset[Event]) -> NormState:
        """Derive the norm state after exactly `fired` has happened;
        only bodies of boxes whose guard has fired, and of watches in
        force, are descended into. The walk keeps its own stack."""
        fired_actions = {action for _pair, action in fired}
        active: list[Norm] = []
        pending: list[tuple[Event, tuple[Clause, ...]]] = []
        watches: list[tuple[str, tuple[Clause, ...], bool]] = []
        stack = list(self.contract.clauses)
        while stack:
            clause = stack.pop()
            if isinstance(clause, Obligation):
                if (clause.pair, clause.action) not in fired:
                    active.append(Norm("O", clause.pair, clause.action, clause.span))
            elif isinstance(clause, Prohibition):
                if clause.action not in fired_actions:
                    active.append(Norm("F", clause.pair, clause.action, clause.span))
            elif isinstance(clause, Permission):
                pass
            elif isinstance(clause, Box):
                if (clause.pair, clause.action) in fired:
                    stack.extend(clause.body)
                else:
                    pending.append(((clause.pair, clause.action), clause.body))
            elif isinstance(clause, IterBox):
                tripped = clause.action in fired_actions
                if not tripped:
                    watches.append((clause.action, clause.body, clause.positive))
                if tripped if clause.positive else not tripped:
                    stack.extend(clause.body)
        return NormState(fired, frozenset(active), frozenset(pending), frozenset(watches))

    def enumerate_reachable(self) -> Lts:
        """The subset lattice in `fired_sets` order, each fired set derived
        once; any unfired event is enabled in any state, so every state
        has one edge per unfired event, in universe order."""
        universe = self.universe
        index_of = {frozenset(fired): i for i, fired in enumerate(fired_sets(universe))}
        states = tuple(self.state(fired) for fired in index_of)
        edges = tuple(
            (src, event, index_of[state.fired | {event}])
            for src, state in enumerate(states)
            for event in universe
            if event not in state.fired
        )
        return Lts(states, edges, universe)


# Convenience wrappers over a per-contract ContractSemantics.

def initial_state(contract: Contract) -> NormState:
    return ContractSemantics(contract).initial_state()


def enumerate_reachable(contract: Contract) -> Lts:
    return ContractSemantics(contract).enumerate_reachable()


def _norm_sort_key(norm: Norm):
    return (norm.kind, norm.pair.performer, norm.pair.counterparty, norm.action,
            norm.origin.line, norm.origin.col)


def dump_lts(lts: Lts) -> str:
    """Deterministic text dump; golden-file and scan friendly."""
    index_of = {event: i for i, event in enumerate(lts.universe)}
    out = [
        f"lts states={len(lts.states)} transitions={len(lts.transitions)} "
        f"events={len(lts.universe)}"
    ]
    out.append("events")
    for i, event in enumerate(lts.universe):
        out.append(f"  e{i} {format_event(event)}")
    for i, state in enumerate(lts.states):
        fired = ",".join(f"e{index_of[e]}" for e in sorted(state.fired, key=_event_key))
        out.append(f"state {i} fired={{{fired}}}")
        for norm in sorted(state.active, key=_norm_sort_key):
            out.append(f"  {norm}")
        for event, _body in sorted(state.pending_boxes, key=lambda p: _event_key(p[0])):
            out.append(f"  box {format_event(event)}")
        for action, _body, positive in sorted(
            state.iter_watch, key=lambda w: (w[0], w[2])
        ):
            out.append(f"  watch [{action}]*" if positive else f"  watch [!{action}]*")
    out.append("transitions")
    for src, event, dst in lts.transitions:
        out.append(f"  {src} e{index_of[event]} {dst}")
    return "\n".join(out) + "\n"


def lts_to_dot(lts: Lts) -> str:
    """GraphViz rendering; states with an obligation/prohibition clash
    on the same (pair, action) are highlighted."""
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for i, state in enumerate(lts.states):
        attrs = ' style=filled fillcolor="#ffb3b3"' if clashes(state) else ""
        label = f"s{i}"
        lines.append(f'  s{i} [label="{label}"{attrs}];')
    for src, event, dst in lts.transitions:
        lines.append(f'  s{src} -> s{dst} [label="{format_event(event)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
