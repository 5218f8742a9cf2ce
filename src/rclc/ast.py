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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "Span",
    "AgentPair",
    "Decl",
    "Clause",
    "Obligation",
    "Prohibition",
    "Permission",
    "Box",
    "IterBox",
    "Meta",
    "Contract",
    "ValidationIssue",
    "validate",
    "pretty_print",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


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


@dataclass(frozen=True, order=True)
class AgentPair:
    """Ordered pair: who owes the conduct and to whom it is owed."""

    performer: str
    counterparty: str

    def __str__(self):
        return "{%s,%s}" % (self.performer, self.counterparty)


@dataclass(frozen=True)
class Decl:
    """A declared agent or action name."""

    name: str
    span: Span = field(default=_NO_SPAN, compare=False)


class Clause:
    """Base class for clause nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Obligation(Clause):
    pair: AgentPair
    action: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class Prohibition(Clause):
    pair: AgentPair
    action: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class Permission(Clause):
    pair: AgentPair
    action: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class Box(Clause):
    """``{x,y}[a](body)``: body comes in force once the guard event fires."""

    pair: AgentPair
    action: str
    body: tuple[Clause, ...]
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class IterBox(Clause):
    """Iterated guard ``{x,y}[!a]*(body)`` or the positive ``{x,y}[a]*(body)``.

    The negative form keeps body in force from activation until the watched
    action is performed, then discharges it for good. The positive form is
    accepted for compatibility and activates body once the action fires.
    ``starred`` records whether the ``*`` was actually written; a negated
    guard without it is normalized to the iterated reading and flagged by
    validate().
    """

    pair: AgentPair
    action: str
    body: tuple[Clause, ...]
    positive: bool = False
    starred: bool = True
    span: Span = field(default=_NO_SPAN, compare=False)


# Annotation tables are keyed by (performer, counterparty, action); the
# pair halves are None for entries written without an explicit pair.
Key = tuple  # (str | None, str | None, str)


@dataclass
class Meta:
    """Header annotations used by code generation and reporting.

    All tables are optional; generation falls back to derived defaults.
    """

    contract_name: str | None = None
    roles: dict[str, str] = field(default_factory=dict)
    states: dict[Key, str] = field(default_factory=dict)
    flags: dict[Key, str] = field(default_factory=dict)
    funcs: dict[Key, str] = field(default_factory=dict)
    payables: dict[Key, str] = field(default_factory=dict)
    messages: dict[Key, str] = field(default_factory=dict)
    requires: dict[str, str] = field(default_factory=dict)
    repeats: dict[str, str] = field(default_factory=dict)
    rolemsgs: dict[str, str] = field(default_factory=dict)
    valuemsgs: dict[Key, str] = field(default_factory=dict)
    statemsg: str | None = None
    inline: list[Key] = field(default_factory=list)

    def lookup(self, table: dict, pair: AgentPair | None, action: str):
        """Exact (pair, action) entry first, bare action entry second."""
        if pair is not None:
            hit = table.get((pair.performer, pair.counterparty, action))
            if hit is not None:
                return hit
        return table.get((None, None, action))


@dataclass
class Contract:
    agents: tuple[Decl, ...]
    actions: tuple[Decl, ...]
    clauses: tuple[Clause, ...]
    meta: Meta = field(default_factory=Meta)

    def agent_names(self) -> list[str]:
        return [a.name for a in self.agents]

    def action_names(self) -> list[str]:
        return [a.name for a in self.actions]


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    message: str
    path: str
    span: Span = field(default=_NO_SPAN, compare=False)

    def __str__(self):
        return f"{self.severity}: {self.message} (at {self.path})"


def iter_clauses(contract: Contract):
    """Pre-order traversal of every clause node with its path, such as
    ``clauses[0].body[1]``."""
    stack = [(clause, f"clauses[{i}]") for i, clause in enumerate(contract.clauses)]
    stack.reverse()
    while stack:
        clause, path = stack.pop()
        yield clause, path
        if isinstance(clause, (Box, IterBox)):
            body = clause.body
            for i in range(len(body) - 1, -1, -1):  # last on first, first off first
                stack.append((body[i], f"{path}.body[{i}]"))


def validate(contract: Contract) -> list[ValidationIssue]:
    """Check name tables and clause references; never raises.

    Errors make the contract unusable downstream, warnings do not.
    """
    issues: list[ValidationIssue] = []

    def err(message, path, span=_NO_SPAN):
        issues.append(ValidationIssue("error", message, path, span))

    def warn(message, path, span=_NO_SPAN):
        issues.append(ValidationIssue("warning", message, path, span))

    agents = contract.agent_names()
    actions = contract.action_names()

    if len(agents) < 2:
        err("a contract needs at least two agents", "agents")
    if not actions:
        err("a contract needs at least one action", "actions")
    if not contract.clauses:
        err("a contract needs at least one clause", "clauses")

    for kind, decls in (("agent", contract.agents), ("action", contract.actions)):
        seen: dict[str, Decl] = {}
        for d in decls:
            if not _IDENT_RE.match(d.name):
                err(f"invalid {kind} identifier '{d.name}'", kind + "s", d.span)
            if d.name in seen:
                err(f"duplicate {kind} '{d.name}'", kind + "s", d.span)
            seen[d.name] = d
    agent_set = set(agents)
    action_set = set(actions)
    if agent_set & action_set:
        shared = ", ".join(sorted(agent_set & action_set))
        err(f"names used as both agent and action: {shared}", "actions")

    obligated: set[str] = set()
    boxed: set[str] = set()
    watched: list[tuple[str, str, Span]] = []
    used_actions: set[str] = set()

    for clause, path in iter_clauses(contract):
        pair, action = clause.pair, clause.action
        for agent in (pair.performer, pair.counterparty):
            if agent not in agent_set:
                err(f"undeclared agent '{agent}'", path, clause.span)
        if pair.performer == pair.counterparty:
            err(f"pair relates agent '{pair.performer}' to itself", path, clause.span)
        if action not in action_set:
            err(f"undeclared action '{action}'", path, clause.span)
        used_actions.add(action)
        if isinstance(clause, Obligation):
            obligated.add(action)
        elif isinstance(clause, Box):
            boxed.add(action)
        elif isinstance(clause, IterBox):
            watched.append((action, path, clause.span))
            if clause.positive:
                warn(
                    f"positive iterated guard on '{action}': body activates when "
                    "the action fires and then stays in force",
                    path,
                    clause.span,
                )
            if not clause.starred:
                warn(
                    f"negated guard on '{action}' written without '*'; "
                    "treated as the iterated form",
                    path,
                    clause.span,
                )

    for name in actions:
        if name not in used_actions:
            warn(f"action '{name}' declared but never used", "actions")
    for action, path, span in watched:
        if action in action_set and action not in obligated and action not in boxed:
            warn(
                f"action '{action}' is watched here but is never the subject of "
                "any box or obligation, so the guard can never be discharged",
                path,
                span,
            )

    _validate_meta(contract, agent_set, action_set, issues)
    return issues


def _validate_meta(contract, agent_set, action_set, issues):
    meta = contract.meta

    def err(message, path):
        issues.append(ValidationIssue("error", message, path))

    for agent in list(meta.roles) + list(meta.rolemsgs):
        if agent not in agent_set:
            err(f"annotation refers to undeclared agent '{agent}'", "annotations")
    # these values become identifiers in the generated contract
    named = {"role": meta.roles, "state": meta.states, "flag": meta.flags,
             "func": meta.funcs, "payable": meta.payables}
    for label, table in named.items():
        for value in table.values():
            if not _IDENT_RE.match(value):
                err(f"{label} annotation value '{value}' is not an identifier", "annotations")
    keyed_tables = {
        "state": meta.states,
        "flag": meta.flags,
        "func": meta.funcs,
        "payable": meta.payables,
        "message": meta.messages,
        "valuemsg": meta.valuemsgs,
    }
    for label, table in keyed_tables.items():
        for performer, counterparty, action in table:
            if action not in action_set:
                err(f"{label} annotation refers to undeclared action '{action}'", "annotations")
            for agent in (performer, counterparty):
                if agent is not None and agent not in agent_set:
                    err(f"{label} annotation refers to undeclared agent '{agent}'", "annotations")


# -- canonical rendering ------------------------------------------------

def _fmt_key(key: Key) -> str:
    performer, counterparty, action = key
    if performer is None:
        return action
    return "{%s,%s} %s" % (performer, counterparty, action)


def _quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


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
    simple = (
        ("role", meta.roles),
        ("rolemsg", meta.rolemsgs),
        ("require", meta.requires),
        ("repeat", meta.repeats),
    )
    keyed = (
        ("state", meta.states),
        ("flag", meta.flags),
        ("func", meta.funcs),
        ("payable", meta.payables),
        ("message", meta.messages),
        ("valuemsg", meta.valuemsgs),
    )
    for keyword, table in simple:
        for name, value in table.items():
            rendered = _quote(value) if keyword in ("rolemsg", "require", "repeat") else value
            out.append(f"{keyword} {name} = {rendered};")
    for keyword, table in keyed:
        for key, value in table.items():
            rendered = _quote(value) if keyword in ("message", "valuemsg") else value
            out.append(f"{keyword} {_fmt_key(key)} = {rendered};")
    if meta.statemsg is not None:
        out.append(f"statemsg = {_quote(meta.statemsg)};")
    for key in meta.inline:
        out.append(f"inline {_fmt_key(key)};")

    out.append("")
    for clause in contract.clauses:
        out.append(_clause_text(clause) + ";")
    return "\n".join(out) + "\n"

