"""The slow paths the fast ones replaced, kept as test references.

`reference_tokenize` is the character-at-a-time scanner over frozen
dataclass tokens and spans, and `reference_parse_contract` the recursive
descent over its token list, one `Token` per step, that the index-based
parser replaced. `reference_state` derives a norm state with
pending boxes and armed watches as frozensets, and
`reference_stack_state` derives it by walking the clause tree with its
own stack, building each `Norm` afresh, with pending boxes and armed
watches as tuples in walk order. Either takes the place of
`ContractSemantics.state` (patch it onto the class), so
`enumerate_reachable` builds the reference lattice with it.
`reference_dump_lts` prints frozenset states.
`reference_event_universe` collects the universe through `iter_clauses`,
and `reference_path_conditions` walks the clause tree with its own stack
to pair each obligation and prohibition with its path condition, which
`ContractSemantics.conditions` now reads off the clause table. All seven
are kept as they were, apart from their names.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    iter_clauses,
)
from rclc.parser import MAX_NESTING, ParseError, ParseResult
from rclc.semantics import (
    Event,
    Lts,
    Norm,
    NormState,
    _event_key,
    _norm_sort_key,
    format_event,
)

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
    boxes and armed watches are kept in walk order and never hashed:
    a guarded body is a whole subtree."""
    fired_actions = {action for _pair, action in fired}
    active: list[Norm] = []
    pending: list[tuple[Event, tuple[Clause, ...]]] = []
    watches: list[tuple[str, tuple[Clause, ...], bool]] = []
    stack = list(self.contract.clauses)
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
                stack.extend(clause.body)
            else:
                pending.append(((clause.pair, clause.action), clause.body))
        elif kind is IterBox:
            tripped = clause.action in fired_actions
            if not tripped:
                watches.append((clause.action, clause.body, clause.positive))
            if tripped if clause.positive else not tripped:
                stack.extend(clause.body)
    return NormState(fired, frozenset(active), tuple(pending), tuple(watches))


def reference_dump_lts(lts: Lts) -> str:
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
