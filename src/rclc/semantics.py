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

from dataclasses import dataclass

from .ast import (
    AgentPair,
    And,
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
    pending_boxes: frozenset[tuple[Event, Clause]]
    # (watched action, guarded clause, positive?) for every armed watch
    iter_watch: frozenset[tuple[str, Clause, bool]]

    def obligations(self) -> set[Norm]:
        return {n for n in self.active if n.kind == "O"}

    def prohibitions(self) -> set[Norm]:
        return {n for n in self.active if n.kind == "F"}


@dataclass(frozen=True)
class Lts:
    """Reachability-closed transition system, canonically ordered.

    states[0] is the initial state; states sort by (|fired|, fired as
    event indices); transitions sort by (source, event index).
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
    seen = {
        (clause.pair, clause.action)
        for clause, _path in iter_clauses(contract)
        if not isinstance(clause, And)
    }
    return tuple(sorted(seen, key=_event_key))


def _event_key(event: Event):
    pair, action = event
    return (pair.performer, pair.counterparty, action)


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

    def enabled(self, state: NormState) -> list[Event]:
        return [e for e in self.universe if e not in state.fired]

    def state(self, fired: frozenset[Event]) -> NormState:
        """Derive the norm state after exactly `fired` has happened;
        only boxes whose guard has fired are descended into."""
        fired_actions = {action for _pair, action in fired}
        active: list[Norm] = []
        pending: list[tuple[Event, Clause]] = []
        watches: list[tuple[str, Clause, bool]] = []

        def walk(clause: Clause):
            if isinstance(clause, And):
                walk(clause.left)
                walk(clause.right)
            elif isinstance(clause, Obligation):
                if (clause.pair, clause.action) not in fired:
                    active.append(Norm("O", clause.pair, clause.action, clause.span))
            elif isinstance(clause, Prohibition):
                if clause.action not in fired_actions:
                    active.append(Norm("F", clause.pair, clause.action, clause.span))
            elif isinstance(clause, Permission):
                pass
            elif isinstance(clause, Box):
                if (clause.pair, clause.action) in fired:
                    walk(clause.body)
                else:
                    pending.append(((clause.pair, clause.action), clause.body))
            elif isinstance(clause, IterBox):
                tripped = clause.action in fired_actions
                if not tripped:
                    watches.append((clause.action, clause.body, clause.positive))
                if tripped if clause.positive else not tripped:
                    walk(clause.body)

        for clause in self.contract.clauses:
            walk(clause)
        return NormState(fired, frozenset(active), frozenset(pending), frozenset(watches))

    def enumerate_reachable(self) -> Lts:
        """Breadth-first closure of step; any unfired event is enabled
        in any state, so this visits the subset lattice. Each fired set
        is derived once, on first reaching it."""
        initial = self.initial_state()
        order: dict[frozenset[Event], int] = {initial.fired: 0}
        states = [initial]
        edges: list[tuple[int, Event, int]] = []
        frontier = [initial]
        while frontier:
            next_frontier = []
            for state in frontier:
                src = order[state.fired]
                for event in self.enabled(state):
                    fired = state.fired | {event}
                    dst = order.get(fired)
                    if dst is None:
                        dst = len(states)
                        order[fired] = dst
                        succ = self.state(fired)
                        states.append(succ)
                        next_frontier.append(succ)
                    edges.append((src, event, dst))
            frontier = next_frontier
        return _canonicalize(states, edges, self.universe)


def _canonicalize(states, edges, universe) -> Lts:
    index_of = {event: i for i, event in enumerate(universe)}

    def state_key(state: NormState):
        return (len(state.fired), sorted(index_of[e] for e in state.fired))

    ranked = sorted(range(len(states)), key=lambda i: state_key(states[i]))
    remap = {old: new for new, old in enumerate(ranked)}
    new_states = tuple(states[old] for old in ranked)
    new_edges = sorted(
        ((remap[s], ev, remap[d]) for s, ev, d in edges),
        key=lambda t: (t[0], index_of[t[1]]),
    )
    return Lts(new_states, tuple(new_edges), universe)


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
        clash = _has_collision(state)
        attrs = ' style=filled fillcolor="#ffb3b3"' if clash else ""
        label = f"s{i}"
        lines.append(f'  s{i} [label="{label}"{attrs}];')
    for src, event, dst in lts.transitions:
        lines.append(f'  s{src} -> s{dst} [label="{format_event(event)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _has_collision(state: NormState) -> bool:
    obliged = {(n.pair, n.action) for n in state.active if n.kind == "O"}
    return any(
        (n.pair, n.action) in obliged for n in state.active if n.kind == "F"
    )
