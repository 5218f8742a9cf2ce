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
event universe; `rclc.lts` streams it for `dump-lts`.

Each `ContractSemantics` lays its clause tree out once as a flat table
(`_clause_table`) of prebuilt payloads: each `Norm`, pending box and
armed watch. Deriving a state is one forward pass over it that jumps
over the body of every guard not in force, builds no `Norm` and hashes
no guarded body. The boxes and watches a state keeps are the table's
own payloads, in walk order, so `rclc.lts` can print each distinct one
once per dump. `conditions` is a pass that enters every guard: the
conflict check's path conditions. `replay` checks an event sequence as
`step` checks one event and derives its state once: the witness replay.
"""

from __future__ import annotations

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
    "StepError",
    "InvalidContract",
    "ContractSemantics",
    "event_universe",
    "clash_order",
]

Event = tuple[AgentPair, str]

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


def event_universe(contract: Contract | ContractSemantics) -> tuple[Event, ...]:
    """Every distinct (pair, action) occurring anywhere: as the subject
    of a deontic operator, a box guard, or an iterated watch."""
    if isinstance(contract, ContractSemantics):
        return contract.universe
    return _clause_table(contract.clauses)[0]


def clash_order(clash: tuple[Norm, Norm]):
    """Total order on the clashes within one state: prohibition origin,
    then the clashing (pair, action), then obligation origin. The (pair,
    action) tie-break matters only for norms sharing an origin, which
    parsed contracts never have but hand-built ones may."""
    ob, forbid = clash
    return (forbid.origin.line, forbid.origin.col, forbid.pair, forbid.action,
            ob.origin.line, ob.origin.col)


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
    universe = tuple(sorted(seen))  # by performer, counterparty, action
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
