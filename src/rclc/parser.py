"""Tokenizer and parser for the contract language.

Grammar (terminals quoted, `*` and `?` as usual):

    contract    = header annotation* (clause_and ";")+
    header      = "agents" idlist ";" "actions" idlist ";"
    idlist      = IDENT ("," IDENT)*
    annotation  = KEYWORD entry ("," entry)* ";"
    entry       = pair? IDENT ("=" (IDENT | STRING))?
                | "=" STRING                         (keyless, e.g. statemsg)
    clause      = pair form
    pair        = "{" IDENT "," IDENT "}"
    form        = ("O" | "F" | "P") "(" IDENT ")"
                | "[" "!"? IDENT "]" "*"? "(" clause_and ")"
    clause_and  = clause ("&" clause)*

Annotation keywords: contract role state flag func payable message
require repeat rolemsg valuemsg statemsg inline. They are contextual,
not reserved, so an action may reuse them.

Line comments start with "//". The Unicode aliases "∧" for "&" and "¬"
for "!" are accepted. `tokenize` is one compiled regex alternation run
by `re.finditer`; a `Token`, like its `Span`, is a named tuple, so a
token costs two tuple allocations. Errors render as
``<file>:<line>:<col>: error: expected <X>, found <Y>`` and the parser
resynchronizes at the next ";" so several faults report in one run.
A conjunction parses into a tuple of clauses: a guard's body, or the
run of clauses a top-level statement adds to `Contract.clauses`. So a
clause tree is as deep as its guard nesting, and a clause may sit inside
at most MAX_NESTING guards; deeper nesting is a parse error, not a stack
overflow in this recursive parser or in the recursive walks that follow
it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .ast import (
    AgentPair,
    Box,
    Clause,
    Contract,
    Decl,
    IterBox,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    Span,
)

__all__ = [
    "MAX_NESTING", "Token", "ParseError", "ParseResult", "tokenize", "parse_contract",
]

MAX_NESTING = 100

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
    "&": "AMP",
    "∧": "AMP",
    "!": "BANG",
    "¬": "BANG",
}
_KEYWORDS = {"agents", "actions", "O", "F", "P"}

_ANNOTATIONS = {
    "contract", "role", "state", "flag", "func", "payable", "message",
    "require", "repeat", "rolemsg", "valuemsg", "statemsg", "inline",
}

# One alternation, tried in order at each offset. A string runs to its
# closing quote or, unterminated, to the end of its line; inside it a
# backslash escapes '"', '\\' or 'n' and is otherwise an ordinary character.
_TOKEN_RE = re.compile(
    r"(?P<WORD>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>[{}\[\](),;*=&∧!¬])"
    r"|(?P<SKIP>[ \t\r]+|//[^\n]*)"
    r"|(?P<NEWLINE>\n)"
    r'|(?P<STRING>"(?P<BODY>(?:\\["\\n]|[^"\n])*)(?P<CLOSE>"?))'
    r"|(?P<ERROR>.)"
)
_ESCAPE_RE = re.compile(r'\\(["\\n])')


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return "\n" if char == "n" else char


class Token(NamedTuple):
    kind: str  # punctuation name, "IDENT", "STRING", keyword, "ERROR", "EOF"
    text: str
    span: Span


@dataclass(frozen=True)
class ParseError(Exception):
    span: Span
    expected: str
    found: str
    file: str = field(default="<input>", compare=False)

    def __str__(self):
        return (
            f"{self.file}:{self.span.line}:{self.span.col}: error: "
            f"expected {self.expected}, found {self.found}"
        )


@dataclass
class ParseResult:
    contract: Contract | None
    errors: list[ParseError]

    @property
    def ok(self) -> bool:
        return not self.errors


def tokenize(text: str) -> list[Token]:
    """Scan into tokens; bytes outside the alphabet become ERROR tokens.
    No token spans a line, so a column is the offset from its line's
    start."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # bypasses the tuples' Python-level __new__
    line, base = 1, -1  # base: offset just before the current line
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line += 1
            base = match.start()
            continue
        start, end = match.span()
        span = new(Span, (line, start - base, line, end - base))
        lexeme = match.group()
        if kind == "WORD":
            append(new(Token, (lexeme if lexeme in _KEYWORDS else "IDENT", lexeme, span)))
        elif kind == "PUNCT":
            append(new(Token, (_PUNCT[lexeme], lexeme, span)))
        elif kind == "STRING":
            if not match.group("CLOSE"):
                append(Token("ERROR", "unterminated string", span))
                continue
            body = match.group("BODY")
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            append(Token("STRING", body, span))
        else:
            append(Token("ERROR", lexeme, span))
    return tokens


def _describe(token: Token) -> str:
    if token.kind == "EOF":
        return "end of input"
    return f"'{token.text}'"


class _Parser:
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
            self.expect("SEMI", "';'")
            return
        if keyword == "statemsg":
            self.expect("EQUALS", "'='")
            meta.statemsg = self.expect("STRING", "string").text
            self.expect("SEMI", "';'")
            return
        while True:
            self.annotation_entry(keyword, meta)
            if self.at("COMMA"):
                self.advance()
                continue
            break
        self.expect("SEMI", "';'")

    def annotation_entry(self, keyword: str, meta: Meta):
        pair = None
        if self.at("LBRACE"):
            pair = self.pair()
        name = self.ident("name").text
        value = None
        if self.at("EQUALS"):
            self.advance()
            if self.at("STRING"):
                value = self.advance().text
            else:
                value = self.ident("value").text
        key = (pair.performer, pair.counterparty, name) if pair else (None, None, name)
        if keyword == "inline":
            meta.inline.append(key)
            return
        if value is None:
            raise self.fail("'='")
        if keyword == "role":
            meta.roles[name] = value
        elif keyword == "rolemsg":
            meta.rolemsgs[name] = value
        elif keyword == "require":
            meta.requires[name] = value
        elif keyword == "repeat":
            meta.repeats[name] = value
        elif keyword == "state":
            meta.states[key] = value
        elif keyword == "flag":
            meta.flags[key] = value
        elif keyword == "func":
            meta.funcs[key] = value
        elif keyword == "payable":
            meta.payables[key] = value
        elif keyword == "message":
            meta.messages[key] = value
        elif keyword == "valuemsg":
            meta.valuemsgs[key] = value

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


def parse_contract(text: str, file: str = "<input>") -> ParseResult:
    """Parse source text; on any fault the result carries every error
    found (resynchronizing at ';') and no contract."""
    tokens = tokenize(text)
    bad = [t for t in tokens if t.kind == "ERROR"]
    if bad:
        errors = [
            ParseError(t.span, "a token", f"'{t.text}'", file) for t in bad
        ]
        return ParseResult(None, errors)
    parser = _Parser(tokens, file)
    contract = parser.contract()
    return ParseResult(contract, parser.errors)
