"""The slow paths the fast ones replaced, kept as test references.

`reference_tokenize` is the character-at-a-time scanner over frozen
dataclass tokens and spans, and `reference_parse_contract` the recursive
descent over its token list, one `Token` per step, that the index-based
parser replaced. `reference_state` derives a norm state with
pending boxes and armed watches as frozensets, and
`reference_stack_state` derives it by walking the clause tree with its
own stack, building each `Norm` afresh, with pending boxes and armed
watches as tuples in source order. Either takes the place of
`ContractSemantics.state` (patch it onto the class), so
`reference_enumerate_reachable`, the builder that held the whole subset
lattice and indexed every fired set in one dict, builds the reference
lattice with it. `reference_dump_lts` prints its frozenset states, and
`reference_lts_to_dot` renders it, as the printers did before they
streamed.
`reference_event_universe` collects the universe through `iter_clauses`,
and `reference_path_conditions` walks the clause tree with its own stack
to pair each obligation and prohibition with its path condition, which
`ContractSemantics.conditions` now reads off the clause table; there each
condition's guard events are a chain and its actions bitmasks, which
`reference_condition` turns back into the sets. `reference_check` redoes
the O/F pair search `check` made on those sets, three frozenset unions
per pair, before it tested bitmasks.
`reference_validate` walks `reference_iter_clauses`, which spells out
every clause's path, where `validate` spells one out only for an issue.
`reference_walk_validate` is the one-walk `validate` that followed it,
which matched each declared name with its own regex call and scanned
every annotation table of a contract that has none.
`reference_parse_script` strips every line and splits it on `#`, and
`reference_render_trace` formats every call record afresh, where
`parse_script` and `render_trace` skip what a line or a repeated record
does not need. `reference_cli_parser` is the argparse parser the CLI read
its arguments with before it read them from its command table. The
other fifteen slow paths are kept as they were, apart from their
names, the lattice builder's event limit, which the printers now check,
and two changes made on purpose: `reference_validate` checks the
names in `inline` keys as `validate` now does, and `reference_stack_state`
and `reference_path_conditions` pop the first clause first, so both walk
in source order, as the clause table now lays its rows out.
"""

from __future__ import annotations

import argparse
import re
from dataclasses import dataclass
from typing import NamedTuple

from rclc.ast import (
    ANNOTATIONS,
    AgentPair,
    Box,
    Clause,
    Contract,
    Decl,
    IterBox,
    Key,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    ValidationIssue,
    iter_clauses,
)
from rclc.ast import Span as NodeSpan
from rclc.cli import _cmd_check, _cmd_dump_ast, _cmd_dump_lts, _cmd_gen, _cmd_sim
from rclc.lts import clashes, fired_sets
from rclc.parser import MAX_NESTING, ParseError, ParseResult
from rclc.semantics import (
    Event,
    Norm,
    NormState,
    chain_indices,
    format_event,
)
from rclc.simulator import SimError, World

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACK",
    "]": "RBRACK",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    "*": "STAR",
    "=": "EQUALS",
}
_ALIASES = {"&": "AMP", "∧": "AMP", "!": "BANG", "¬": "BANG"}
_KEYWORDS = {"agents", "actions", "O", "F", "P"}

_ANNOTATIONS = {*ANNOTATIONS, "contract", "statemsg", "inline"}


@dataclass(frozen=True)
class Span:
    """Half-open source range, 1-based lines and columns."""

    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Token:
    kind: str  # punctuation name, "IDENT", "STRING", keyword, "ERROR", "EOF"
    text: str
    span: Span


def reference_tokenize(text: str) -> list[Token]:
    """Scan into tokens; bytes outside the alphabet become ERROR tokens."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _PUNCT or ch in _ALIASES:
            kind = _PUNCT.get(ch) or _ALIASES[ch]
            tokens.append(Token(kind, ch, Span(line, col, line, col + 1)))
            i += 1
            col += 1
        elif ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chars = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\n":
                    break
                i += 1
                col += 1
                if c == '"':
                    closed = True
                    break
                if c == "\\" and i < n and text[i] in ('"', "\\", "n"):
                    esc = text[i]
                    i += 1
                    col += 1
                    chars.append("\n" if esc == "n" else esc)
                else:
                    chars.append(c)
            span = Span(start_line, start_col, line, col)
            if closed:
                tokens.append(Token("STRING", "".join(chars), span))
            else:
                tokens.append(Token("ERROR", "unterminated string", span))
        elif ch.isalpha() and ch.isascii():
            start_col = col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_") and text[j].isascii():
                j += 1
            word = text[i:j]
            span = Span(line, start_col, line, start_col + len(word))
            kind = word if word in _KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, span))
            col += len(word)
            i = j
        else:
            tokens.append(Token("ERROR", ch, Span(line, col, line, col + 1)))
            i += 1
            col += 1
    return tokens


def _describe(token: Token) -> str:
    if token.kind == "EOF":
        return "end of input"
    return f"'{token.text}'"


class _ReferenceParser:
    def __init__(self, tokens: list[Token], file: str):
        eof_span = tokens[-1].span if tokens else Span(1, 1, 1, 1)
        self.tokens = tokens + [Token("EOF", "", eof_span)]
        self.pos = 0
        self.file = file
        self.errors: list[ParseError] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.span, expected, _describe(tok), self.file)

    def expect(self, kind: str, expected: str) -> Token:
        if self.at(kind):
            return self.advance()
        raise self.fail(expected)

    def ident(self, what: str) -> Token:
        if self.at("IDENT"):
            return self.advance()
        raise self.fail(what)

    def sync(self):
        """Skip to just past the next ';' (or to EOF)."""
        while not self.at("EOF"):
            if self.advance().kind == "SEMI":
                return

    # -- grammar ---------------------------------------------------------

    def contract(self) -> Contract | None:
        agents = self.decl_list("agents")
        actions = self.decl_list("actions")
        meta = Meta()
        while self.at("IDENT") and self.peek().text in _ANNOTATIONS:
            try:
                self.annotation(meta)
            except ParseError as exc:
                self.errors.append(exc)
                self.sync()
        clauses: list[Clause] = []
        while not self.at("EOF"):
            try:
                statement = self.clause_and(0)
                self.expect("SEMI", "';'")
                clauses.extend(statement)
            except ParseError as exc:
                self.errors.append(exc)
                self.sync()
        if self.errors:
            return None
        return Contract(tuple(agents), tuple(actions), tuple(clauses), meta)

    def decl_list(self, keyword: str) -> list[Decl]:
        decls: list[Decl] = []
        try:
            self.expect(keyword, f"'{keyword}'")
            tok = self.ident(f"{keyword[:-1]} name")
            decls.append(Decl(tok.text, tok.span))
            while self.at("COMMA"):
                self.advance()
                tok = self.ident(f"{keyword[:-1]} name")
                decls.append(Decl(tok.text, tok.span))
            self.expect("SEMI", "';'")
        except ParseError as exc:
            self.errors.append(exc)
            self.sync()
        return decls

    def annotation(self, meta: Meta):
        keyword = self.advance().text
        if keyword == "contract":
            meta.contract_name = self.ident("contract name").text
        elif keyword == "statemsg":
            self.expect("EQUALS", "'='")
            meta.statemsg = self.expect("STRING", "string").text
        else:
            self.annotation_entry(keyword, meta)
            while self.at("COMMA"):
                self.advance()
                self.annotation_entry(keyword, meta)
        self.expect("SEMI", "';'")

    def annotation_entry(self, keyword: str, meta: Meta):
        """An inline key, or `name = value` into the keyword's `Meta`
        table; only an event-named keyword takes a pair before its name."""
        if keyword == "inline":
            meta.inline.append(self.event_key())
            return
        table, names, _text = ANNOTATIONS[keyword]
        key = self.event_key() if names == "event" else self.ident("name").text
        self.expect("EQUALS", "'='")
        value = self.advance().text if self.at("STRING") else self.ident("value").text
        getattr(meta, table)[key] = value

    def event_key(self) -> Key:
        pair = self.pair() if self.at("LBRACE") else None
        name = self.ident("name").text
        return (pair.performer, pair.counterparty, name) if pair else (None, None, name)

    def pair(self) -> AgentPair:
        self.expect("LBRACE", "'{'")
        performer = self.ident("agent name").text
        self.expect("COMMA", "','")
        counterparty = self.ident("agent name").text
        self.expect("RBRACE", "'}'")
        return AgentPair(performer, counterparty)

    def clause(self, depth: int) -> Clause:
        """Parse one clause enclosed by `depth` guards."""
        start = self.peek().span
        if depth > MAX_NESTING:
            raise ParseError(
                start,
                f"a clause inside at most {MAX_NESTING} guards",
                f"one inside {depth}",
                self.file,
            )
        pair = self.pair()
        tok = self.peek()
        if tok.kind in ("O", "F", "P"):
            self.advance()
            self.expect("LPAREN", "'('")
            action = self.ident("action name").text
            end = self.expect("RPAREN", "')'").span
            span = Span(start.line, start.col, end.end_line, end.end_col)
            node = {"O": Obligation, "F": Prohibition, "P": Permission}[tok.kind]
            return node(pair, action, span)
        if tok.kind == "LBRACK":
            self.advance()
            negated = False
            if self.at("BANG"):
                self.advance()
                negated = True
            action = self.ident("action name").text
            self.expect("RBRACK", "']'")
            starred = False
            if self.at("STAR"):
                self.advance()
                starred = True
            self.expect("LPAREN", "'('")
            body = self.clause_and(depth + 1)
            end = self.expect("RPAREN", "')'").span
            span = Span(start.line, start.col, end.end_line, end.end_col)
            if negated:
                return IterBox(pair, action, body, False, starred, span)
            if starred:
                return IterBox(pair, action, body, True, True, span)
            return Box(pair, action, body, span)
        raise self.fail("'O', 'F', 'P' or '['")

    def clause_and(self, depth: int) -> tuple[Clause, ...]:
        clauses = [self.clause(depth)]
        while self.at("AMP"):
            self.advance()
            clauses.append(self.clause(depth))
        return tuple(clauses)


def reference_parse_contract(text: str, file: str = "<input>") -> ParseResult:
    """Parse source text; on any fault the result carries every error
    found (resynchronizing at ';') and no contract."""
    tokens = reference_tokenize(text)
    bad = [t for t in tokens if t.kind == "ERROR"]
    if bad:
        errors = [
            ParseError(t.span, "a token", f"'{t.text}'", file) for t in bad
        ]
        return ParseResult(None, errors)
    parser = _ReferenceParser(tokens, file)
    contract = parser.contract()
    return ParseResult(contract, parser.errors)


def reference_state(self, fired: frozenset[Event]) -> NormState:
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


def reference_stack_state(self, fired: frozenset[Event]) -> NormState:
    """Derive the norm state after exactly `fired` has happened;
    only bodies of boxes whose guard has fired, and of watches in
    force, are descended into. The walk keeps its own stack. Pending
    boxes and armed watches are kept in source order and never hashed:
    a guarded body is a whole subtree."""
    fired_actions = {action for _pair, action in fired}
    active: list[Norm] = []
    pending: list[tuple[Event, tuple[Clause, ...]]] = []
    watches: list[tuple[str, tuple[Clause, ...], bool]] = []
    stack = list(reversed(self.contract.clauses))
    while stack:
        clause = stack.pop()
        kind = type(clause)
        if kind is Obligation:
            if (clause.pair, clause.action) not in fired:
                active.append(Norm("O", clause.pair, clause.action, clause.span))
        elif kind is Prohibition:
            if clause.action not in fired_actions:
                active.append(Norm("F", clause.pair, clause.action, clause.span))
        elif kind is Box:
            if (clause.pair, clause.action) in fired:
                stack.extend(reversed(clause.body))
            else:
                pending.append(((clause.pair, clause.action), clause.body))
        elif kind is IterBox:
            tripped = clause.action in fired_actions
            if not tripped:
                watches.append((clause.action, clause.body, clause.positive))
            if tripped if clause.positive else not tripped:
                stack.extend(reversed(clause.body))
    return NormState(fired, frozenset(active), tuple(pending), tuple(watches))


def _event_key(event: Event):
    pair, action = event
    return (pair.performer, pair.counterparty, action)


def _norm_sort_key(norm: Norm):
    return (norm.kind, norm.pair.performer, norm.pair.counterparty, norm.action,
            norm.origin.line, norm.origin.col)


class ReferenceLts(NamedTuple):
    """Reachability-closed transition system, canonically ordered.

    states[0] is the initial state; states follow `fired_sets`, i.e.
    (|fired|, fired as event indices); transitions sort by (source,
    event index).
    """

    states: tuple[NormState, ...]
    transitions: tuple[tuple[int, Event, int], ...]
    universe: tuple[Event, ...]


def reference_enumerate_reachable(self) -> ReferenceLts:
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
    return ReferenceLts(states, edges, universe)


def reference_dump_lts(lts: ReferenceLts) -> str:
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


def reference_lts_to_dot(lts: ReferenceLts) -> str:
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


def reference_event_universe(contract: Contract) -> tuple[Event, ...]:
    """Every distinct (pair, action) occurring anywhere: as the subject
    of a deontic operator, a box guard, or an iterated watch."""
    seen = {(clause.pair, clause.action) for clause, _path in iter_clauses(contract)}
    return tuple(sorted(seen, key=_event_key))


# (events that must have fired, as universe indices; actions no fired
# event may perform; actions some fired event must perform)
_Condition = tuple[frozenset[int], frozenset[str], frozenset[str]]

_TRUE: _Condition = (frozenset(), frozenset(), frozenset())


def reference_path_conditions(contract: Contract, universe: tuple[Event, ...]):
    """Every obligation and prohibition occurrence with the condition on
    the fired set under which it is in force: each enclosing box's guard
    has fired; the prohibition's action and each enclosing `[!a]*`'s
    action is performed by no fired event; each enclosing `[a]*`'s action
    is performed by some fired event, in source order. The walk keeps
    its own stack."""
    index_of = {event: i for i, event in enumerate(universe)}
    out: list[tuple[Norm, _Condition]] = []
    stack: list[tuple[Clause, _Condition]] = [(c, _TRUE) for c in reversed(contract.clauses)]
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
            stack.extend((c, inner) for c in reversed(clause.body))
        elif isinstance(clause, IterBox):
            if clause.positive:
                inner = (need, banned, wanted | {clause.action})
            else:
                inner = (need, banned | {clause.action}, wanted)
            stack.extend((c, inner) for c in reversed(clause.body))
    return out


def reference_condition(watched: dict[str, int], cond) -> _Condition:
    """A condition of `ContractSemantics.conditions`, its chain of guard
    events and its bitmasks over `watched`, as the sets
    `reference_path_conditions` gives: (events that must have fired,
    banned actions, wanted actions)."""
    chain, banned, wanted, _done = cond
    return (frozenset(chain_indices(chain)),
            frozenset(action for action, bit in watched.items() if banned & bit),
            frozenset(action for action, bit in watched.items() if wanted & bit))


def reference_check(contract: Contract) -> list[tuple[Norm, Norm, tuple[Event, ...]]]:
    """`check`'s (obligation, prohibition, witness) list as its O/F pair
    search found it on frozenset conditions: every pair of the same event
    whose banned actions meet neither the wanted actions nor those its
    guard events perform, with the least witness of each origin pair (the
    guard events, plus the lowest-index event of each wanted action not
    performed), sorted by witness size and indices, then by
    `lts.clash_order`. Unverified."""
    universe = reference_event_universe(contract)
    first_with: dict[str, int] = {}
    for i, (_pair, action) in enumerate(universe):
        first_with.setdefault(action, i)
    conditions = reference_path_conditions(contract, universe)
    least: dict[tuple[Norm, Norm], tuple[int, tuple[int, ...]]] = {}
    for forbid, (f_need, f_banned, f_wanted) in conditions:
        if forbid.kind != "F":
            continue
        for ob, (o_need, o_banned, o_wanted) in conditions:
            if ob.kind != "O" or (ob.pair, ob.action) != (forbid.pair, forbid.action):
                continue
            banned, wanted, need = f_banned | o_banned, f_wanted | o_wanted, f_need | o_need
            done = {universe[i][1] for i in need}
            if banned & wanted or banned & done:
                continue
            witness = tuple(sorted(need | {first_with[a] for a in wanted - done}))
            rank = (len(witness), witness)
            if (ob, forbid) not in least or rank < least[ob, forbid]:
                least[ob, forbid] = rank

    def order(norm: Norm):
        return (norm.origin.line, norm.origin.col, norm.pair, norm.action)

    ranked = sorted(least.items(), key=lambda item: (item[1], order(item[0][1]),
                                                     order(item[0][0])))
    return [(ob, forbid, tuple(universe[i] for i in indices))
            for (ob, forbid), (_size, indices) in ranked]


# `validate` as it was when it walked `iter_clauses`, formatting the path
# of every clause node whether or not an issue named it

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_NO_SPAN = NodeSpan(0, 0, 0, 0)


def reference_iter_clauses(contract: Contract):
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


def reference_validate(contract: Contract) -> list[ValidationIssue]:
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

    for clause, path in reference_iter_clauses(contract):
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

    _reference_validate_meta(contract, agent_set, action_set, issues)
    return issues


def _reference_validate_meta(contract, agent_set, action_set, issues):
    meta = contract.meta
    # undeclared agents, then values that are not identifiers, then
    # undeclared names in event keys, `inline` keys last
    found: tuple[list[str], list[str], list[str]] = ([], [], [])

    def check_event_key(keyword, key):
        performer, counterparty, action = key
        if action not in action_set:
            found[2].append(f"{keyword} annotation refers to undeclared action '{action}'")
        for agent in (performer, counterparty):
            if agent is not None and agent not in agent_set:
                found[2].append(f"{keyword} annotation refers to undeclared agent '{agent}'")

    for keyword, (table, names, text) in ANNOTATIONS.items():
        for key, value in getattr(meta, table).items():
            if names == "agent" and key not in agent_set:
                found[0].append(f"annotation refers to undeclared agent '{key}'")
            if not text and not _IDENT_RE.match(value):
                found[1].append(f"{keyword} annotation value '{value}' is not an identifier")
            if names == "event":
                check_event_key(keyword, key)
    for key in meta.inline:
        check_event_key("inline", key)
    issues.extend(
        ValidationIssue("error", message, "annotations") for group in found for message in group
    )


def _reference_path(place) -> str:
    """A place, a (parent place, i) link, spelled out as `iter_clauses`
    spells its path."""
    steps = []
    while place is not None:
        place, i = place
        steps.append(i)
    return f"clauses[{steps.pop()}]" + "".join(f".body[{i}]" for i in reversed(steps))


def reference_walk_validate(contract: Contract) -> list[ValidationIssue]:
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
    watched: list[tuple[str, tuple, Span]] = []
    used_actions: set[str] = set()

    # pre-order, each clause with its place: (None, i) for the i-th
    # top-level clause, (p, i) for the i-th of the body of the guard at p
    stack = [(clause, (None, i)) for i, clause in enumerate(contract.clauses)]
    stack.reverse()
    while stack:
        clause, place = stack.pop()
        kind = type(clause)
        pair = clause.pair
        action = clause.action
        performer, counterparty = pair
        if not (performer in agent_set and counterparty in agent_set
                and performer != counterparty and action in action_set):
            path = _reference_path(place)
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
            continue
        if kind is Box:
            boxed.add(action)
        elif kind is IterBox:
            watched.append((action, place, clause.span))
            if clause.positive:
                warn(f"positive iterated guard on '{action}': body activates when the "
                     "action fires and then stays in force", _reference_path(place), clause.span)
            if not clause.starred:
                warn(f"negated guard on '{action}' written without '*'; treated as the "
                     "iterated form", _reference_path(place), clause.span)
        else:
            continue
        body = clause.body
        for i in range(len(body) - 1, -1, -1):  # last on first, first off first
            stack.append((body[i], (place, i)))

    for name in actions:
        if name not in used_actions:
            warn(f"action '{name}' declared but never used", "actions")
    for action, place, span in watched:
        if action in action_set and action not in obligated and action not in boxed:
            warn(f"action '{action}' is watched here but is never the subject of any box "
                 "or obligation, so the guard can never be discharged", _reference_path(place), span)

    _reference_walk_validate_meta(contract, agent_set, action_set, issues)
    return issues


def _reference_walk_validate_meta(contract, agent_set, action_set, issues):
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


def reference_parse_script(text: str) -> list[tuple[str, str, int]]:
    """One call per line: `<account> <function> [value=<n>]`. Blank
    lines and `#` comments are skipped."""
    calls: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 2:
            account, function = parts
            value = 0
        elif len(parts) == 3:
            account, function, tail = parts
            digits = tail[6:]
            if not (tail.startswith("value=") and digits.isascii() and digits.isdigit()):
                raise SimError(
                    f"script line {lineno}: expected value=<n>, found '{tail}'"
                )
            value = int(digits)
        else:
            raise SimError(
                f"script line {lineno}: expected '<account> <function> "
                f"[value=<n>]', found '{line}'"
            )
        calls.append((account, function, value))
    return calls


def reference_render_trace(world: World) -> str:
    """Deterministic text trace of a finished run: one line per call
    with its events indented, then the final state, flags, balances."""
    out: list[str] = []
    for record in world.call_log:
        head = f"call {record.caller} {record.function}"
        if record.value:
            head += f" value={record.value}"
        if record.ok:
            out.append(f"{head} -> OK")
            for sender, receiver, message in record.events:
                out.append(f"  event {sender} -> {receiver}: {message}")
        else:
            out.append(f'{head} -> REVERT "{record.revert_message}"')
    out.append("")
    out.append(f"final state: {world.current_state}")
    out.append("flags:")
    for flag, value in world.flag_values:
        out.append(f"  {flag} = {'true' if value else 'false'}")
    out.append("balances:")
    for account, balance in world.accounts:
        out.append(f"  {account} = {balance}")
    out.append(f"  contract = {world.contract_balance}")
    return "\n".join(out) + "\n"


def reference_cli_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclc",
        description=(
            "Parse relativized contracts, detect normative conflicts, "
            "generate Solidity, and simulate the result."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        """A subcommand reading one contract file, run by `fn`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("input")
        p.set_defaults(fn=fn)
        return p

    p_check = command("check", _cmd_check, "detect obligation/prohibition conflicts")
    p_check.add_argument("--format", choices=["text", "json"], default="text")

    p_gen = command("gen", _cmd_gen, "lower to a state machine and emit Solidity")
    p_gen.add_argument("-o", "--output", default=None)

    p_sim = command("sim", _cmd_sim, "run a call script against the state machine")
    p_sim.add_argument("--script", required=True, help="call script file")
    p_sim.add_argument(
        "--bind",
        action="append",
        metavar="ROLE=ACCOUNT",
        help="bind a role to an account (default: the agent id)",
    )
    p_sim.add_argument(
        "--amount",
        action="append",
        metavar="PARAM=N",
        help="set an amount parameter",
    )
    p_sim.add_argument("--balance", default="1000", help="each account's initial balance")
    for p in (p_gen, p_sim):
        p.add_argument("--allow-conflicts", action="store_true")
        p.add_argument("--fidelity-internal-calls", action="store_true",
                       help="honor inline annotations, reproducing private internal calls")

    command("dump-ast", _cmd_dump_ast, "print the canonical source form")
    p_lts = command("dump-lts", _cmd_dump_lts, "print the reachable transition system")
    p_lts.add_argument("--dot", action="store_true", help="emit Graphviz dot")

    return parser
