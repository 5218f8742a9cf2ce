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
  * permissions impose nothing: no state holds one.

Because activity depends only on the fired set, firing order can never
matter, which makes the reachable system the subset lattice of the
event universe; `rclc.lts` streams it for `dump-lts`.

The first `ContractSemantics` of a contract turns its clause tree's
`ast.layout` into a flat table (`_clause_table`) of prebuilt payloads, a
row per layout row: each `Norm`, pending box, armed watch and
permission. Deriving a state is one forward pass over it that jumps over
the body of every guard not in force, builds no `Norm` and hashes no
guarded body. A state keeps the table's own boxes and watches, so
`rclc.lts` prints each distinct one once. `conditions` gives the check's
path conditions; `holds` tests a norm up the layout's parent links at a
fired set `admit` checked; `clause_rows` gives `lower` each row's clause.

The table, with what `holds` and `initial_state` build from it, depends
on the clause tuple alone, so the contract keeps it beside its layout
(`ast.derived`), which `validate` reads too, and every later analysis
of that contract shares both: `validate` → `check` → `lower` on one
`Contract` walks its clauses once and builds one table. What reads the
names or the annotations is not kept. Each analysis runs the gate, and
`validate` runs then only where an error is possible: the header fails
`ast.header_is_clean` (annotations included), or an event of the
universe names an undeclared agent or action or pairs an agent with
itself. Otherwise `warnings` runs it on first read, so `check`, `lower`
and `co_simulate` handed a `Contract` never do, and the CLI, which
prints the warnings, still validates once per command.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import count
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    Obligation,
    Permission,
    Prohibition,
    Span,
    ValidationIssue,
    derived,
    header_is_clean,
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
]

Event = tuple[AgentPair, str]

_new = tuple.__new__  # bypasses the named tuples' Python-level __new__
_event = attrgetter("pair", "action")  # a clause's event


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


class NormState(NamedTuple):
    """Snapshot of the contract after some set of events has fired.

    Everything except `fired` is derived; two states over the same
    contract are equal iff their fired sets are. A tuple, like `Norm`.
    """

    fired: frozenset[Event]
    active: frozenset[Norm]
    # (guard event, body) per untriggered box and (action, body, positive?)
    # per armed watch, in source order; one written twice appears twice
    pending_boxes: tuple[tuple[Event, tuple[Clause, ...]], ...]
    iter_watch: tuple[tuple[str, tuple[Clause, ...], bool], ...]


def event_universe(contract: Contract | ContractSemantics) -> tuple[Event, ...]:
    """Every distinct (pair, action) occurring anywhere: as the subject
    of a deontic operator, a box guard, or an iterated watch."""
    if isinstance(contract, ContractSemantics):
        return contract.universe
    return _table_of(contract).universe


# Row kinds of the clause table: norms, a permission, which imposes
# nothing, then guards; `_UNTIL` is a `[!a]*` watch, `_ONCE` an `[a]*` one.
_OBLIGED, _FORBIDDEN, _PERMITTED, _BOX, _UNTIL, _ONCE = range(6)

# A path condition: (events that must have fired, as universe indices;
# actions no fired event may perform; actions some fired event must perform)
Condition = tuple[frozenset[int], frozenset[str], frozenset[str]]


class _Table:
    """The clause table of one clause tuple, built by `_clause_table` and
    kept on its `Contract` (`ast.derived`), so every `ContractSemantics`
    of that contract shares it: the sorted event universe, its index map,
    one (kind, key, payload, end) row per row of the clauses' `layout`,
    that layout's nodes and parent links, and what `holds` and
    `initial_state` build on first use. The key is an obligation's or
    box's event index and a prohibition's or watch's action; the payload
    the `Norm`, pending `(event, body)` or armed `(action, body,
    positive)`; `end` the row past the node's subtree. A permission's key
    and payload are None."""

    __slots__ = ("universe", "index_of", "rows", "nodes", "parents", "rows_of", "initial")

    def __init__(self, universe, index_of, rows, nodes, parents):
        self.universe, self.index_of, self.rows = universe, index_of, rows
        self.nodes, self.parents = nodes, parents
        self.rows_of = None  # built by `holds`
        self.initial = None  # built by `initial_state`


def _clause_table(lay) -> _Table:
    """The `_Table` of `lay`, a clause tuple's `layout`."""
    nodes, parents, _places, ends = lay
    events = list(map(_event, nodes))
    universe = tuple(sorted(set(events)))  # by performer, counterparty, action
    index_of = dict(zip(universe, range(len(universe))))
    rows: list[tuple[int, object, object, int]] = []
    for clause, event, end in zip(nodes, events, ends):
        kind = type(clause)
        pair, action = event
        if kind is Obligation:
            rows.append((_OBLIGED, index_of[event], _new(Norm, ("O", pair, action, clause.span)),
                         end))
        elif kind is Prohibition:
            rows.append((_FORBIDDEN, action, _new(Norm, ("F", pair, action, clause.span)), end))
        elif kind is Permission:
            rows.append((_PERMITTED, None, None, end))
        elif kind is Box:
            rows.append((_BOX, index_of[event], (event, clause.body), end))
        else:
            watch = (action, clause.body, clause.positive)
            rows.append((_ONCE if clause.positive else _UNTIL, action, watch, end))
    return _Table(universe, index_of, tuple(rows), nodes, parents)


def _table_of(contract: Contract) -> _Table:
    """`contract`'s clause table, built once and kept with its layout."""
    kept = derived(contract)
    table = kept.table
    if table is None:
        table = kept.table = _clause_table(kept.layout)
    return table


def _resolves(agents: set[str], actions: set[str], universe: tuple[Event, ...]) -> bool:
    """Whether each event relates two distinct declared agents by a
    declared action."""
    for (performer, counterparty), action in universe:
        if (performer == counterparty or performer not in agents
                or counterparty not in agents or action not in actions):
            return False
    return True


class ContractSemantics:
    """One analysed contract: its states, steps and path conditions, and
    its warnings. `check`, `lower` and `co_simulate` share it.

    Its clause table is the one its `Contract` keeps, built by the first
    analysis from the contract's one layout and shared by every later
    one. The gate is not kept: `validate` runs at construction only when
    the header or the event universe could hold an error, and an error
    raises `InvalidContract`. Otherwise `warnings` runs it on first read
    and keeps what it found.
    """

    def __init__(self, contract: Contract):
        self.contract = contract
        shared = self._shared = _table_of(contract)
        self.universe, self._index_of, self._table = shared.universe, shared.index_of, shared.rows
        agents, actions = contract.agent_names(), contract.action_names()
        if not (header_is_clean(contract, agents, actions)
                and _resolves(set(agents), set(actions), self.universe)):
            issues = validate(contract)
            if any(i.severity == "error" for i in issues):
                raise InvalidContract(issues)
            self.warnings = tuple(issues)

    @cached_property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        """Every issue `validate` reports, all of them warnings."""
        return tuple(validate(self.contract))

    @classmethod
    def of(cls, contract: Contract | ContractSemantics) -> ContractSemantics:
        """`contract` if it is already analysed, else its analysis."""
        return contract if isinstance(contract, cls) else cls(contract)

    def initial_state(self) -> NormState:
        """The state before any event fires, built once and shared."""
        initial = self._shared.initial
        if initial is None:
            initial = self._shared.initial = self.state(frozenset())
        return initial

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

    def admit(self, events: Iterable[Event]) -> tuple[set[int], set[str]]:
        """Check `events` in order as `step` checks each one; return the
        fired set's event indices and actions, which `holds` reads."""
        events = tuple(events)
        fired = set(map(self._index_of.get, events))
        if None in fired or len(fired) < len(events):
            seen: set[Event] = set()
            for event in events:  # raises where `step` would
                self._admit(seen, event)
                seen.add(event)
        return fired, set(map(itemgetter(1), events))

    def holds(self, norm: Norm, fired: tuple[set[int], set[str]]) -> bool:
        """`norm in self.state(F).active`, F the fired set `admit` gave:
        whether a row carrying `norm` passes its own literal and every
        enclosing guard's, as `state` tests them."""
        shared = self._shared
        rows_of = shared.rows_of
        if rows_of is None:
            rows_of = shared.rows_of = {}
            for i, (kind, _key, norm_at, _end) in enumerate(self._table):
                if kind <= _FORBIDDEN:
                    rows_of.setdefault(norm_at, []).append(i)
        events, actions = fired
        table, parent = self._table, shared.parents
        for i in rows_of.get(norm, ()):
            kind, key, _payload, _end = table[i]
            if key in (events if kind == _OBLIGED else actions):
                continue  # discharged
            i = parent[i]
            while i >= 0:
                kind, key, _payload, _end = table[i]
                if kind == _BOX:
                    if key not in events:
                        break
                elif (key in actions) != (kind == _ONCE):
                    break
                i = parent[i]
            else:
                return True
        return False

    def state(self, fired: frozenset[Event]) -> NormState:
        """The norm state after exactly `fired`, in one pass over the
        table; pending boxes and watches keep source order, never hashed."""
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
            elif kind == _PERMITTED:
                pass
            elif key in fired_actions:  # a tripped watch: only [a]* holds
                if kind == _UNTIL:
                    i = end
            else:  # an armed watch: only [!a]* holds
                watches.append(payload)
                if kind == _ONCE:
                    i = end
        return _new(NormState, (fired, frozenset(active), tuple(pending), tuple(watches)))

    def clause_rows(self) -> Iterator[tuple[int, Clause, int]]:
        """(row, clause, its guard's row or -1 at the top) per row of the
        table, permissions included, in source pre-order."""
        return zip(count(), self._shared.nodes, self._shared.parents)

    def conditions(self) -> Iterator[tuple[Norm, Condition]]:
        """Every obligation and prohibition occurrence, in source order, with
        the condition on the fired set under which it is in force: each
        enclosing box's guard has fired; no fired event performs the
        prohibition's action or an enclosing `[!a]*`'s; some fired event
        performs each enclosing `[a]*`'s. Each open guard stacks the
        condition outside it until its `end`."""
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
            elif kind != _PERMITTED:
                outer.append((end, cond))
                if kind == _BOX:
                    cond = (need | {key}, banned, wanted)
                elif kind == _UNTIL:
                    cond = (need, banned | {key}, wanted)
                else:
                    cond = (need, banned, wanted | {key})
