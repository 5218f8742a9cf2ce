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
event universe. `ContractSemantics.enumerate_reachable` lists that
lattice for at most MAX_LTS_EVENTS events.

Each `ContractSemantics` lays its clause tree out once as a flat table:
one row per obligation, prohibition, box and watch, in the order a walk
popping the last clause first reaches them, each row holding a kind, the
key it tests (an event index or an action), its prebuilt payload (the
`Norm`, the pending box or the armed watch) and, for a guard, the index
just past its body; the same walk collects the event universe.
Deriving a state is one forward pass over that table that jumps over
the body of every guard not in force; it builds no `Norm` and hashes no
guarded body. The norms in force form a set, but the boxes still
pending and the watches still armed are tuples in walk order, and
`dump_lts` shows each distinct one once. `conditions` is a forward
pass that enters every guard: the conflict check's path conditions.
`replay` checks a whole event sequence as `step` checks one event and
derives the state it reaches once: the check's witness replay.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    Frozen,
    IterBox,
    Obligation,
    Prohibition,
    Span,
    validate,
)

__all__ = [
    "Event",
    "Condition",
    "Norm",
    "NormState",
    "Lts",
    "StepError",
    "InvalidContract",
    "ContractSemantics",
    "event_universe",
    "MAX_LTS_EVENTS",
    "fired_sets",
    "clashes",
    "clash_order",
    "dump_lts",
    "lts_to_dot",
]

Event = tuple[AgentPair, str]

# 2^16 states admit both fixtures
MAX_LTS_EVENTS = 16

_set = object.__setattr__  # writes a field of a Frozen value


class StepError(Exception):
    """An event replayed or not resolvable against the contract."""


class InvalidContract(ValueError):
    """`validate` found errors; `issues` is all it reported, in its order."""

    def __init__(self, issues: list):
        errors = "; ".join(i.message for i in issues if i.severity == "error")
        super().__init__(f"contract does not validate: {errors}")
        self.issues = issues


def format_event(event: Event) -> str:
    pair, action = event
    return f"{pair} {action}"


class Norm(NamedTuple):
    """An obligation or prohibition in force, tagged with the source
    span of the clause it came from (distinct occurrences stay
    distinct). A tuple, so a set of norms hashes in C; it compares equal
    to a plain tuple of its four fields."""

    kind: str  # "O" | "F"
    pair: AgentPair
    action: str
    origin: Span

    def __str__(self):
        return f"{self.kind} {self.pair} {self.action}"


class NormState(Frozen):
    """Snapshot of the contract after some set of events has fired.

    Everything except `fired` is derived; two states over the same
    contract are equal iff their fired sets are.
    """

    __slots__ = _fields = ("fired", "active", "pending_boxes", "iter_watch")

    def __init__(self, fired: frozenset[Event], active: frozenset[Norm],
                 pending_boxes: tuple[tuple[Event, tuple[Clause, ...]], ...],
                 iter_watch: tuple[tuple[str, tuple[Clause, ...], bool], ...]):
        _set(self, "fired", fired)
        _set(self, "active", active)
        # (guard event, guarded body) for every box not yet triggered, and
        # (watched action, guarded body, positive?) for every armed watch, both
        # in walk order; a box or watch written twice verbatim appears twice
        _set(self, "pending_boxes", pending_boxes)
        _set(self, "iter_watch", iter_watch)


class Lts(Frozen):
    """Reachability-closed transition system, canonically ordered.

    states[0] is the initial state; states follow `fired_sets`, i.e.
    (|fired|, fired as event indices); transitions sort by (source,
    event index).
    """

    __slots__ = _fields = ("states", "transitions", "universe")

    def __init__(self, states: tuple[NormState, ...],
                 transitions: tuple[tuple[int, Event, int], ...], universe: tuple[Event, ...]):
        _set(self, "states", states)
        _set(self, "transitions", transitions)
        _set(self, "universe", universe)

    @property
    def initial(self) -> NormState:
        return self.states[0]


def event_universe(contract: Contract | ContractSemantics) -> tuple[Event, ...]:
    """Every distinct (pair, action) occurring anywhere: as the subject
    of a deontic operator, a box guard, or an iterated watch."""
    if isinstance(contract, ContractSemantics):
        return contract.universe
    return _clause_table(contract.clauses)[0]


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


# Row kinds of the clause table: `_UNTIL` is a `[!a]*` watch, `_ONCE` an
# `[a]*` one.
_OBLIGED, _FORBIDDEN, _BOX, _UNTIL, _ONCE = range(5)

_Row = tuple[int, object, object, int]

# A path condition: (events that must have fired, as universe indices;
# actions no fired event may perform; actions some fired event must perform)
Condition = tuple[frozenset[int], frozenset[str], frozenset[str]]


def _clause_table(clauses: tuple[Clause, ...]):
    """The sorted event universe, its index map and the clause tree laid
    out as (kind, key, payload, end) rows, in the order a walk that pops
    the last clause first and descends into every guard reaches them.
    The key is the event index for an obligation or box (the event until
    the walk ends) and the action for a prohibition or watch; the payload
    is the `Norm`, the pending `(event, body)` entry or the armed
    `(action, body, positive)` entry; `end` is the index just past a
    guard's body, 0 for other rows. Permissions get no row. The walk
    keeps its own stack, on which an int closes the guard row at that
    index."""
    table: list[_Row] = []
    seen: set[Event] = set()
    stack: list = list(clauses)
    while stack:
        clause = stack.pop()
        kind = type(clause)
        if kind is int:
            code, key, payload, _end = table[clause]
            table[clause] = (code, key, payload, len(table))
            continue
        event = (clause.pair, clause.action)
        seen.add(event)
        if kind is Obligation:
            norm = Norm("O", clause.pair, clause.action, clause.span)
            table.append((_OBLIGED, event, norm, 0))
        elif kind is Prohibition:
            norm = Norm("F", clause.pair, clause.action, clause.span)
            table.append((_FORBIDDEN, clause.action, norm, 0))
        elif kind is Box:
            stack.append(len(table))
            table.append((_BOX, event, (event, clause.body), 0))
            stack.extend(clause.body)
        elif kind is IterBox:
            stack.append(len(table))
            watch = (clause.action, clause.body, clause.positive)
            table.append((_ONCE if clause.positive else _UNTIL, clause.action, watch, 0))
            stack.extend(clause.body)
    universe = tuple(sorted(seen, key=_event_key))
    index_of = {event: i for i, event in enumerate(universe)}
    for i, (code, key, payload, end) in enumerate(table):
        if code == _OBLIGED or code == _BOX:
            table[i] = (code, index_of[key], payload, end)
    return universe, index_of, tuple(table)


class ContractSemantics:
    """One analysed contract, validated once: its warnings, states, steps
    and path conditions. `check`, `lower` and `co_simulate` share it."""

    def __init__(self, contract: Contract):
        issues = validate(contract)
        if any(i.severity == "error" for i in issues):
            raise InvalidContract(issues)
        self.contract = contract
        self.warnings = tuple(issues)
        self.universe, self._index_of, self._table = _clause_table(contract.clauses)

    @classmethod
    def of(cls, contract: Contract | ContractSemantics) -> ContractSemantics:
        """`contract` if it is already analysed, else its analysis."""
        return contract if isinstance(contract, cls) else cls(contract)

    def initial_state(self) -> NormState:
        return self.state(frozenset())

    def _admit(self, fired: frozenset[Event] | set[Event], event: Event):
        """Raise StepError unless `event` may fire after `fired`: it
        resolves against the contract and has not fired yet."""
        if event not in self._index_of:
            raise StepError(f"event {format_event(event)} does not resolve")
        if event in fired:
            raise StepError(f"event {format_event(event)} already fired")

    def step(self, state: NormState, event: Event) -> NormState:
        self._admit(state.fired, event)
        return self.state(state.fired | {event})

    def replay(self, events: Iterable[Event]) -> NormState:
        """The state a fold of `step` over `events` from the initial
        state reaches, with the same checks on every event in order, but
        derived once: a state depends only on its fired set."""
        fired: set[Event] = set()
        for event in events:
            self._admit(fired, event)
            fired.add(event)
        return self.state(frozenset(fired))

    def state(self, fired: frozenset[Event]) -> NormState:
        """Derive the norm state after exactly `fired` has happened, in
        one forward pass over the clause table: a box whose guard has not
        fired, or a watch not in force, skips the rows of its body. Only
        prebuilt norms, pending boxes and armed watches are collected;
        the last two keep walk order and are never hashed, since a
        guarded body is a whole subtree."""
        # an event outside the universe maps to None, which no row holds
        fired_events = set(map(self._index_of.get, fired))
        fired_actions = {action for _pair, action in fired}
        active: list[Norm] = []
        pending: list[tuple[Event, tuple[Clause, ...]]] = []
        watches: list[tuple[str, tuple[Clause, ...], bool]] = []
        table = self._table
        i, n = 0, len(table)
        while i < n:
            kind, key, payload, end = table[i]
            i += 1
            if kind == _OBLIGED:
                if key not in fired_events:
                    active.append(payload)
            elif kind == _FORBIDDEN:
                if key not in fired_actions:
                    active.append(payload)
            elif kind == _BOX:
                if key not in fired_events:
                    pending.append(payload)
                    i = end
            elif key in fired_actions:  # a tripped watch: only [a]* holds
                if kind == _UNTIL:
                    i = end
            else:  # an armed watch: only [!a]* holds
                watches.append(payload)
                if kind == _ONCE:
                    i = end
        return NormState(fired, frozenset(active), tuple(pending), tuple(watches))

    def conditions(self) -> Iterator[tuple[Norm, Condition]]:
        """Every obligation and prohibition occurrence, in table order, with
        the condition on the fired set under which it is in force: each
        enclosing box's guard has fired; the prohibition's action and each
        enclosing `[!a]*`'s action is performed by no fired event; each
        enclosing `[a]*`'s action is performed by some fired event. Each
        open guard stacks the condition outside it until its `end`."""
        cond: Condition = (frozenset(), frozenset(), frozenset())
        outer: list[tuple[int, Condition]] = []
        for i, (kind, key, payload, end) in enumerate(self._table):
            while outer and outer[-1][0] == i:
                cond = outer.pop()[1]
            need, banned, wanted = cond
            if kind == _OBLIGED:
                yield payload, cond
            elif kind == _FORBIDDEN:
                yield payload, (need, banned | {key}, wanted)
            else:
                outer.append((end, cond))
                if kind == _BOX:
                    cond = (need | {key}, banned, wanted)
                elif kind == _UNTIL:
                    cond = (need, banned | {key}, wanted)
                else:
                    cond = (need, banned, wanted | {key})

    def enumerate_reachable(self) -> Lts:
        """The subset lattice in `fired_sets` order, each fired set derived
        once; any unfired event is enabled in any state, so every state
        has one edge per unfired event, in universe order. More than
        MAX_LTS_EVENTS events raise ValueError before any state is built."""
        universe = self.universe
        if len(universe) > MAX_LTS_EVENTS:
            raise ValueError(
                f"the transition system of {len(universe)} events has 2^{len(universe)} "
                f"states; listing it is limited to {MAX_LTS_EVENTS} events"
            )
        index_of = {frozenset(fired): i for i, fired in enumerate(fired_sets(universe))}
        states = tuple(self.state(fired) for fired in index_of)
        edges = tuple(
            (src, event, index_of[state.fired | {event}])
            for src, state in enumerate(states)
            for event in universe
            if event not in state.fired
        )
        return Lts(states, edges, universe)


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
        # one line per distinct box or watch, as in a set of them
        for event, _body in sorted(set(state.pending_boxes), key=lambda p: _event_key(p[0])):
            out.append(f"  box {format_event(event)}")
        for action, _body, positive in sorted(
            set(state.iter_watch), key=lambda w: (w[0], w[2])
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
