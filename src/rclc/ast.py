"""Syntax tree for relativized contracts.

A contract declares its agents and actions, then states clauses. Every
deontic clause is relativized to an ordered pair of agents written
``{performer, counterparty}``. Clause forms:

    {x,y} O(a)        obligation of x toward y to perform a
    {x,y} F(a)        prohibition
    {x,y} P(a)        permission
    {x,y} [a](C)      C comes in force after x performs a for y
    {x,y} [!a]*(C)    C is in force until a is performed
    {x,y} [a]*(C)     accepted variant: C comes in force once a fires

A conjunction `C1 & C2 & ...` is a tuple of clauses. A guard's body is
one, and so is `Contract.clauses`, which holds the clauses of every
top-level statement in order. A tree is therefore only as deep as its
guard nesting, which the parser caps at `parser.MAX_NESTING`.

Nodes are immutable values; equality is structural and ignores source
spans, so a pretty-printed and re-parsed contract compares equal.

`layout` is the one pre-order walk of a clause tree. A `Contract` keeps
what it derives in a `Derived` (`derived`): its layout and the clause
table `rclc.semantics` builds from it, for as long as `clauses` holds the
same tuple, and what `validate` found (`kept_findings`), for as long as
`agents`, `actions` and `clauses` hold the same tuples and the contract
carries no annotation. So `validate`, `iter_clauses` and every
`ContractSemantics` of a contract share one walk and one validation.
Nothing is kept for a field that is a list, which may change in place,
nor are findings kept for an annotated contract, whose `Meta` tables are
dicts. `validate` spells a path, such as `clauses[0].body[1]`, only for
an issue on it. Its test of the header, `header_is_clean`, skips the
per-name checks when they can find nothing; a `ContractSemantics` that
finds no kept findings asks it too.

The value classes of the package (nodes, reports, IR and `World`) sit
on one base, `Value`: equal when of the same class with equal compared
fields (`_key`), hashed on those, and printed like a dataclass.
`Frozen` adds a `__setattr__` and `__delattr__` that raise
`AttributeError`, so its `__init__` writes through `object.__setattr__`.
All are slotted but `World`, which keeps an instance dict to cache its
logs in. Neither uses the dataclass machinery, whose import would cost
every command's start.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import NamedTuple

__all__ = [
    "Span",
    "AgentPair",
    "Value",
    "Frozen",
    "Decl",
    "Clause",
    "Obligation",
    "Prohibition",
    "Permission",
    "Box",
    "IterBox",
    "Meta",
    "ANNOTATIONS",
    "Contract",
    "layout",
    "Derived",
    "derived",
    "kept_findings",
    "ValidationIssue",
    "validate",
    "header_is_clean",
    "pretty_print",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# n names each ended by a comma, holding n commas, match if each is one
_IDENTS_RE = re.compile(r"(?:[A-Za-z][A-Za-z0-9_]*,)*\Z")


class Span(NamedTuple):
    """Half-open source range, 1-based lines and columns. A tuple, so a
    token costs no dataclass set-up; it compares equal to a plain tuple
    of the same four numbers."""

    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


_NO_SPAN = Span(0, 0, 0, 0)


class AgentPair(NamedTuple):
    """Ordered pair: who owes the conduct and to whom it is owed. A
    tuple, so events hash and compare in C; it compares equal to a plain
    (performer, counterparty) tuple and sorts like one."""

    performer: str
    counterparty: str

    def __str__(self):
        return "{%s,%s}" % (self.performer, self.counterparty)


class Value:
    """Base of the slotted value classes. A subclass lists its fields in
    constructor order in `_fields`, which the repr prints. `_key`, an
    `operator.attrgetter`, reads the compared ones: all of `_fields`
    unless the class names fewer. A mutable value is unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" in vars(cls) and "_key" not in vars(cls):
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """An immutable, hashable `Value`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __reduce__(self):  # copy and pickle through the constructor
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


_set = object.__setattr__  # writes a field of a Frozen value


class Decl(Frozen):
    """A declared agent or action name."""

    __slots__ = _fields = ("name", "span")
    _key = attrgetter("name")

    def __init__(self, name: str, span: Span = _NO_SPAN):
        _set(self, "name", name)
        _set(self, "span", span)


class Clause(Frozen):
    """Base class for clause nodes."""

    __slots__ = ()


class _Leaf(Clause):
    __slots__ = _fields = ("pair", "action", "span")
    _key = attrgetter("pair", "action")

    def __init__(self, pair: AgentPair, action: str, span: Span = _NO_SPAN):
        _set(self, "pair", pair)
        _set(self, "action", action)
        _set(self, "span", span)


class Obligation(_Leaf):
    __slots__ = ()


class Prohibition(_Leaf):
    __slots__ = ()


class Permission(_Leaf):
    __slots__ = ()


class Box(Clause):
    """``{x,y}[a](body)``: body comes in force once the guard event fires."""

    __slots__ = _fields = ("pair", "action", "body", "span")
    _key = attrgetter("pair", "action", "body")

    def __init__(self, pair: AgentPair, action: str, body: tuple[Clause, ...],
                 span: Span = _NO_SPAN):
        _set(self, "pair", pair)
        _set(self, "action", action)
        _set(self, "body", body)
        _set(self, "span", span)


class IterBox(Clause):
    """Iterated guard ``{x,y}[!a]*(body)`` or the positive ``{x,y}[a]*(body)``.

    The negative form keeps body in force from activation until the watched
    action is performed, then discharges it for good. The positive form is
    accepted for compatibility and activates body once the action fires.
    ``starred`` records whether the ``*`` was actually written; a negated
    guard without it is normalized to the iterated reading and flagged by
    validate().
    """

    __slots__ = _fields = ("pair", "action", "body", "positive", "starred", "span")
    _key = attrgetter("pair", "action", "body", "positive", "starred")

    def __init__(self, pair: AgentPair, action: str, body: tuple[Clause, ...],
                 positive: bool = False, starred: bool = True, span: Span = _NO_SPAN):
        _set(self, "pair", pair)
        _set(self, "action", action)
        _set(self, "body", body)
        _set(self, "positive", positive)
        _set(self, "starred", starred)
        _set(self, "span", span)


# Annotation tables are keyed by (performer, counterparty, action); the
# pair halves are None for entries written without an explicit pair.
Key = tuple  # (str | None, str | None, str)


class Meta(Value):
    """Header annotations used by code generation and reporting.

    All tables are optional; generation falls back to derived defaults.
    Each table left out is a fresh, empty one.
    """

    __slots__ = _fields = (
        "contract_name", "roles", "states", "flags", "funcs", "payables", "messages",
        "requires", "repeats", "rolemsgs", "valuemsgs", "statemsg", "inline",
    )

    def __init__(self, contract_name: str | None = None, roles: dict[str, str] | None = None,
                 states: dict[Key, str] | None = None, flags: dict[Key, str] | None = None,
                 funcs: dict[Key, str] | None = None, payables: dict[Key, str] | None = None,
                 messages: dict[Key, str] | None = None, requires: dict[str, str] | None = None,
                 repeats: dict[str, str] | None = None, rolemsgs: dict[str, str] | None = None,
                 valuemsgs: dict[Key, str] | None = None, statemsg: str | None = None,
                 inline: list[Key] | None = None):
        self.contract_name = contract_name
        self.roles = {} if roles is None else roles
        self.states = {} if states is None else states
        self.flags = {} if flags is None else flags
        self.funcs = {} if funcs is None else funcs
        self.payables = {} if payables is None else payables
        self.messages = {} if messages is None else messages
        self.requires = {} if requires is None else requires
        self.repeats = {} if repeats is None else repeats
        self.rolemsgs = {} if rolemsgs is None else rolemsgs
        self.valuemsgs = {} if valuemsgs is None else valuemsgs
        self.statemsg = statemsg
        self.inline = [] if inline is None else inline

    def lookup(self, table: dict, pair: AgentPair | None, action: str):
        """Exact (pair, action) entry first, bare action entry second."""
        if pair is not None:
            hit = table.get((pair.performer, pair.counterparty, action))
            if hit is not None:
                return hit
        return table.get((None, None, action))


# Each `keyword name = value;` annotation, in pretty_print order: its
# `Meta` table, what its name is ("agent", "flag", or "event", which may
# carry a pair and is stored as a `Key`), and whether its value is text
# rather than an identifier of the generated contract.
ANNOTATIONS: dict[str, tuple[str, str, bool]] = {
    "role": ("roles", "agent", False),
    "rolemsg": ("rolemsgs", "agent", True),
    "require": ("requires", "flag", True),
    "repeat": ("repeats", "flag", True),
    "state": ("states", "event", False),
    "flag": ("flags", "event", False),
    "func": ("funcs", "event", False),
    "payable": ("payables", "event", False),
    "message": ("messages", "event", True),
    "valuemsg": ("valuemsgs", "event", True),
}


class Contract(Value):
    """A parsed contract: its declared names, its clauses and its `Meta`.

    What follows from the clause tuple alone, its `layout` and the clause
    table `rclc.semantics` builds from it with the check's conflicts, is
    computed once and kept on the contract while `clauses` holds that
    same tuple (`derived`). What `validate` found is kept beside it while
    `agents`, `actions` and `clauses` hold the tuples it read and no
    annotation is set. So `validate` → `check` → `lower` on one contract
    walks, validates and checks it once. A field that is not a tuple may
    change in place, so nothing read from it is kept: every answer that
    reads it is derived afresh. The fields are stored as given.
    The kept part is not a field: equality, the repr and the refused hash
    ignore it, and a copy or a pickle does not carry it but derives its
    own on first use.
    """

    _fields = ("agents", "actions", "clauses", "meta")
    __slots__ = (*_fields, "_derived")

    def __init__(self, agents: tuple[Decl, ...], actions: tuple[Decl, ...],
                 clauses: tuple[Clause, ...], meta: Meta | None = None):
        self.agents = agents
        self.actions = actions
        self.clauses = clauses
        self.meta = Meta() if meta is None else meta
        self._derived = None

    def __reduce__(self):  # copy and pickle the fields alone
        return self.__class__, (self.agents, self.actions, self.clauses, self.meta)

    def agent_names(self) -> list[str]:
        return [a.name for a in self.agents]

    def action_names(self) -> list[str]:
        return [a.name for a in self.actions]


class ValidationIssue(Frozen):
    __slots__ = _fields = ("severity", "message", "path", "span")
    _key = attrgetter("severity", "message", "path")

    def __init__(self, severity: str, message: str, path: str, span: Span = _NO_SPAN):
        _set(self, "severity", severity)  # "error" | "warning"
        _set(self, "message", message)
        _set(self, "path", path)
        _set(self, "span", span)

    def __str__(self):
        return f"{self.severity}: {self.message} (at {self.path})"


_GUARDS = {Box, IterBox}


def layout(clauses: tuple[Clause, ...]):
    """The pre-order walk of `clauses`, which its own stack takes to any
    depth: (nodes, parents, places, ends), a row per node, permissions
    included. Row i holds `nodes[i]`, its enclosing guard's row (-1 at
    the top), its index in that guard's body or in `clauses`, and the row
    past its subtree."""
    nodes, parents, places, ends = [], [], [], []
    outer = []  # (body, guard row) of each open guard's parent
    body, up = enumerate(clauses), -1
    while True:
        for place, node in body:
            row = len(nodes)
            nodes.append(node)
            parents.append(up)
            places.append(place)
            ends.append(row + 1)
            if type(node) in _GUARDS:
                outer.append((body, up))
                body, up = enumerate(node.body), row
                break
        else:  # the body of `up` is done
            if up < 0:
                return nodes, parents, places, ends
            ends[up] = len(nodes)
            body, up = outer.pop()


class Derived:
    """What a `Contract` derives once and keeps. From its clause tuple
    alone: `clauses`, that tuple, its `layout`, and `table`, the clause
    table `rclc.semantics` keeps here once built. From the names too:
    `findings`, the issues `validate` reported while the contract carried
    no annotation, for the `agents` and `actions` tuples it read. The last
    four are None until set."""

    __slots__ = ("clauses", "layout", "table", "agents", "actions", "findings")

    def __init__(self, clauses: tuple[Clause, ...]):
        self.clauses = clauses
        self.layout = layout(clauses)
        self.table = self.agents = self.actions = self.findings = None


def derived(contract: Contract) -> Derived:
    """The `Derived` of `contract`'s clauses, laid out on first use and
    kept until `contract.clauses` is assigned another tuple. Clauses that
    are not a tuple may change in place, so nothing is kept for them."""
    kept = contract._derived
    clauses = contract.clauses
    if kept is None or kept.clauses is not clauses:
        kept = Derived(clauses)
        contract._derived = kept if type(clauses) is tuple else None
    return kept


def kept_findings(contract: Contract) -> tuple[ValidationIssue, ...] | None:
    """What `validate` found for `contract`, or None if it has not run on
    these fields: `clauses`, `agents` and `actions` are the tuples it read
    and the contract still carries no annotation."""
    kept = contract._derived
    if (kept is None or kept.findings is None or kept.clauses is not contract.clauses
            or kept.agents is not contract.agents or kept.actions is not contract.actions
            or any(_META_TABLES(contract.meta))):
        return None
    return kept.findings


def _spell(lay, row: int) -> str:
    """Row `row` of `lay`, a `layout`, spelled such as ``clauses[0].body[1]``."""
    _nodes, parents, places, _ends = lay
    steps = []
    while row >= 0:
        steps.append(places[row])
        row = parents[row]
    return f"clauses[{steps.pop()}]" + "".join(f".body[{i}]" for i in reversed(steps))


def iter_clauses(contract: Contract):
    """Every clause node in pre-order with its path, such as ``clauses[0].body[1]``."""
    nodes, parents, places, _ends = derived(contract).layout
    depths, steps = {-1: 0}, []  # each guard row's depth; the steps of the path so far
    for row, (node, up, place) in enumerate(zip(nodes, parents, places)):
        depth = depths[up]
        del steps[depth:]
        steps.append(f".body[{place}]" if depth else f"clauses[{place}]")
        yield node, "".join(steps)
        if type(node) in _GUARDS:
            depths[row] = depth + 1


_META_TABLES = attrgetter(*(table for table, _n, _t in ANNOTATIONS.values()), "inline")


def _distinct_identifiers(names: list[str]) -> bool:
    joined = ",".join(names) + ","
    return (_IDENTS_RE.match(joined) is not None
            and joined.count(",") == len(set(names)) == len(names))


def header_is_clean(contract: Contract, agents: list[str], actions: list[str]) -> bool:
    """Whether `validate` can report no error on the header, whose agent
    and action names the caller passes: it carries no annotation,
    declares two agents or more, an action and a clause, each list holds
    distinct identifiers, and no name is both an agent and an action.
    The clause references are left to the caller."""
    if any(_META_TABLES(contract.meta)):
        return False
    return (len(agents) > 1 and len(actions) > 0 and len(contract.clauses) > 0
            and _distinct_identifiers(agents) and _distinct_identifiers(actions)
            and set(agents).isdisjoint(actions))


def validate(contract: Contract) -> list[ValidationIssue]:
    """Check name tables and clause references; never raises.

    Errors make the contract unusable downstream, warnings do not. What
    it finds for a contract without annotations whose names and clauses
    are tuples is kept (`kept_findings`), and a later call returns a copy.
    """
    found = kept_findings(contract)
    if found is not None:
        return list(found)
    issues: list[ValidationIssue] = []

    def err(message, path, span=_NO_SPAN):
        issues.append(ValidationIssue("error", message, path, span))

    def warn(message, path, span=_NO_SPAN):
        issues.append(ValidationIssue("warning", message, path, span))

    agents = contract.agent_names()
    actions = contract.action_names()
    agent_set = set(agents)
    action_set = set(actions)

    if not header_is_clean(contract, agents, actions):
        if len(agents) < 2:
            err("a contract needs at least two agents", "agents")
        if not actions:
            err("a contract needs at least one action", "actions")
        if not contract.clauses:
            err("a contract needs at least one clause", "clauses")
        for kind, decls, names in (("agent", contract.agents, agents),
                                   ("action", contract.actions, actions)):
            if _distinct_identifiers(names):
                continue
            seen: dict[str, Decl] = {}
            for d in decls:
                if not _IDENT_RE.match(d.name):
                    err(f"invalid {kind} identifier '{d.name}'", kind + "s", d.span)
                if d.name in seen:
                    err(f"duplicate {kind} '{d.name}'", kind + "s", d.span)
                seen[d.name] = d
        if agent_set & action_set:
            shared = ", ".join(sorted(agent_set & action_set))
            err(f"names used as both agent and action: {shared}", "actions")

    obligated: set[str] = set()
    boxed: set[str] = set()
    watched: list[tuple[str, int, Span]] = []
    used_actions: set[str] = set()

    kept = derived(contract)
    lay = nodes, _parents, _places, _ends = kept.layout
    for row, clause in enumerate(nodes):
        kind = type(clause)
        pair = clause.pair
        action = clause.action
        performer, counterparty = pair
        if not (performer in agent_set and counterparty in agent_set
                and performer != counterparty and action in action_set):
            path = _spell(lay, row)
            for agent in pair:
                if agent not in agent_set:
                    err(f"undeclared agent '{agent}'", path, clause.span)
            if performer == counterparty:
                err(f"pair relates agent '{performer}' to itself", path, clause.span)
            if action not in action_set:
                err(f"undeclared action '{action}'", path, clause.span)
        used_actions.add(action)
        if kind is Obligation:
            obligated.add(action)
        elif kind is Box:
            boxed.add(action)
        elif kind is IterBox:
            watched.append((action, row, clause.span))
            if clause.positive:
                warn(f"positive iterated guard on '{action}': body activates when the "
                     "action fires and then stays in force", _spell(lay, row), clause.span)
            if not clause.starred:
                warn(f"negated guard on '{action}' written without '*'; treated as the "
                     "iterated form", _spell(lay, row), clause.span)

    for name in actions:
        if name not in used_actions:
            warn(f"action '{name}' declared but never used", "actions")
    for action, row, span in watched:
        if action in action_set and action not in obligated and action not in boxed:
            warn(f"action '{action}' is watched here but is never the subject of any box "
                 "or obligation, so the guard can never be discharged", _spell(lay, row), span)

    if any(_META_TABLES(contract.meta)):
        _validate_meta(contract, agent_set, action_set, issues)
    elif type(contract.agents) is tuple and type(contract.actions) is tuple:
        kept.agents, kept.actions, kept.findings = contract.agents, contract.actions, tuple(issues)
    return issues


def _validate_meta(contract, agent_set, action_set, issues):
    meta = contract.meta
    # undeclared agents, then values that are not identifiers, then
    # undeclared names in event keys, `inline` keys last
    found: tuple[list[str], list[str], list[str]] = ([], [], [])
    events = []
    for keyword, (table, names, text) in ANNOTATIONS.items():
        for key, value in getattr(meta, table).items():
            if names == "agent" and key not in agent_set:
                found[0].append(f"annotation refers to undeclared agent '{key}'")
            if not text and not _IDENT_RE.match(value):
                found[1].append(f"{keyword} annotation value '{value}' is not an identifier")
            if names == "event":
                events.append((keyword, key))
    for key in meta.inline:
        events.append(("inline", key))
    for keyword, (performer, counterparty, action) in events:
        if action not in action_set:
            found[2].append(f"{keyword} annotation refers to undeclared action '{action}'")
        for agent in (performer, counterparty):
            if agent is not None and agent not in agent_set:
                found[2].append(f"{keyword} annotation refers to undeclared agent '{agent}'")
    issues.extend(
        ValidationIssue("error", message, "annotations") for group in found for message in group
    )


# -- canonical rendering ------------------------------------------------

def _fmt_key(key: Key) -> str:
    performer, counterparty, action = key
    if performer is None:
        return action
    return "{%s,%s} %s" % (performer, counterparty, action)


def _quote(text: str) -> str:
    """A string literal the parser reads back as `text`: it undoes
    exactly the escapes `\\"`, `\\\\` and `\\n`."""
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _body_text(body: tuple[Clause, ...], indent: int) -> str:
    return " &\n".join(_clause_text(c, indent) for c in body)


def _clause_text(clause: Clause, indent: int = 0) -> str:
    pad = "    " * indent
    if isinstance(clause, Obligation):
        return f"{pad}{clause.pair} O({clause.action})"
    if isinstance(clause, Prohibition):
        return f"{pad}{clause.pair} F({clause.action})"
    if isinstance(clause, Permission):
        return f"{pad}{clause.pair} P({clause.action})"
    if isinstance(clause, Box):
        inner = _body_text(clause.body, indent + 1)
        return f"{pad}{clause.pair} [{clause.action}] (\n{inner}\n{pad})"
    if isinstance(clause, IterBox):
        guard = clause.action if clause.positive else "!" + clause.action
        inner = _body_text(clause.body, indent + 1)
        return f"{pad}{clause.pair} [{guard}]* (\n{inner}\n{pad})"
    raise TypeError(f"not a clause: {clause!r}")


def pretty_print(contract: Contract) -> str:
    """Render to canonical concrete syntax; parse() of the result is
    structurally equal to the input."""
    out = []
    out.append("agents " + ", ".join(contract.agent_names()) + ";")
    out.append("actions " + ", ".join(contract.action_names()) + ";")

    meta = contract.meta
    if meta.contract_name:
        out.append(f"contract {meta.contract_name};")
    for keyword, (table, names, text) in ANNOTATIONS.items():
        for key, value in getattr(meta, table).items():
            name = _fmt_key(key) if names == "event" else key
            out.append(f"{keyword} {name} = {_quote(value) if text else value};")
    if meta.statemsg is not None:
        out.append(f"statemsg = {_quote(meta.statemsg)};")
    for key in meta.inline:
        out.append(f"inline {_fmt_key(key)};")

    out.append("")
    for clause in contract.clauses:
        out.append(_clause_text(clause) + ";")
    return "\n".join(out) + "\n"

