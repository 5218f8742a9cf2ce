"""Tokenizer and parser for the contract language.

Grammar (terminals quoted, `*` and `?` as usual):

    contract    = header annotation* (clause_and ";")+
    header      = "agents" idlist ";" "actions" idlist ";"
    idlist      = IDENT ("," IDENT)*
    annotation  = KEYWORD entry ("," entry)* ";" | "inline" key ("," key)* ";"
                | "contract" IDENT ";" | "statemsg" "=" STRING ";"
    entry       = (IDENT | key) "=" (IDENT | STRING)   (key: event names only)
    key         = pair? IDENT
    clause      = pair form
    pair        = "{" IDENT "," IDENT "}"
    form        = ("O" | "F" | "P") "(" IDENT ")"
                | "[" "!"? IDENT "]" "*"? "(" clause_and ")"
    clause_and  = clause ("&" clause)*

Annotation keywords: contract, statemsg, inline and each KEYWORD of
`ast.ANNOTATIONS`, the schema saying which `Meta` table an entry fills
and whether its name is an event, an agent or a flag. They are
contextual, not reserved, so an action may reuse them.

Line comments start with "//". The Unicode aliases "∧" for "&" and "¬"
for "!" are accepted. The source is scanned once, by one compiled regex
alternation run by `re.finditer`, into two flat lists: token texts and
start offsets. A token's kind follows from its text. The parser walks
those lists by index and builds a `Span` only where one is kept: a
`Decl`, a clause (from its first token to its last), a `ParseError` and
the end of input. Line and column come from bisecting the source's
newline offsets, since no token spans a line. `tokenize` is a view over
the same scan that builds a `Token` and its `Span`, both named tuples,
per token.

Errors render as ``<file>:<line>:<col>: error: expected <X>, found <Y>``
and the parser resynchronizes at the next ";" so several faults report
in one run. A conjunction parses into a tuple of clauses: a guard's
body, or the run of clauses a top-level statement adds to
`Contract.clauses`. So a clause tree is as deep as its guard nesting,
and a clause may sit inside at most MAX_NESTING guards; deeper nesting
is a parse error, not a stack overflow in this recursive parser or in
the recursive walks that follow it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import compress, repeat
from operator import attrgetter
from typing import NamedTuple

from .ast import (
    ANNOTATIONS,
    AgentPair,
    Box,
    Clause,
    Contract,
    Decl,
    Frozen,
    IterBox,
    Key,
    Meta,
    Obligation,
    Permission,
    Prohibition,
    Span,
    Value,
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
# the kind of every token whose text alone names it; any other word is an IDENT
_KINDS = {**_PUNCT, **{word: word for word in _KEYWORDS}}
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
# first characters of the tokens that are not lexical errors
_HEADS = _LETTERS | set(_PUNCT) | {'"'}

_ANNOTATIONS = {*ANNOTATIONS, "contract", "statemsg", "inline"}

_DEONTIC = {"O": Obligation, "F": Prohibition, "P": Permission}
# the kinds of the nine tokens of a leaf `{x,y}O(a)`, and its node class
_LEAVES = {
    ("LBRACE", "IDENT", "COMMA", "IDENT", "RBRACE", kind, "LPAREN", "IDENT", "RPAREN"): node
    for kind, node in _DEONTIC.items()
}

# One alternation, tried in order at each offset: a word, a line comment,
# a string, or any other character that is not a blank. A string runs to
# its closing quote or, unterminated, to the end of its line; inside it a
# backslash escapes '"', '\\' or 'n' and is otherwise an ordinary character.
_TOKEN_RE = re.compile(
    r"[A-Za-z][A-Za-z0-9_]*"
    r"|//[^\n]*"
    r'|"(?:\\["\\n]|[^"\n])*"?'
    r"|[^ \t\r\n]"
)
_ESCAPE_RE = re.compile(r'\\(["\\n])')

_new = tuple.__new__  # bypasses the named tuples' Python-level __new__
_set = object.__setattr__  # writes a field of a Frozen value


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return "\n" if char == "n" else char


def _closed(raw: str) -> bool:
    """Whether a string token ends in its closing quote: escapes pair up
    from the left, so a final quote after an odd run of backslashes is
    itself escaped."""
    if len(raw) < 2 or raw[-1] != '"':
        return False
    body = raw[1:-1]
    return (len(body) - len(body.rstrip("\\"))) % 2 == 0


def _string_value(raw: str) -> str:
    """The text of a closed string token, quotes off and escapes undone."""
    body = raw[1:-1]
    if "\\" in body:
        body = _ESCAPE_RE.sub(_unescape, body)
    return body


class Token(NamedTuple):
    kind: str  # punctuation name, "IDENT", "STRING", keyword, "ERROR", "EOF"
    text: str
    span: Span


class ParseError(Frozen, Exception):
    """A parse fault; equality ignores the file it was found in."""

    __slots__ = _fields = ("span", "expected", "found", "file")
    _key = attrgetter("span", "expected", "found")

    def __init__(self, span: Span, expected: str, found: str, file: str = "<input>"):
        _set(self, "span", span)
        _set(self, "expected", expected)
        _set(self, "found", found)
        _set(self, "file", file)

    def __str__(self):
        return (
            f"{self.file}:{self.span.line}:{self.span.col}: error: "
            f"expected {self.expected}, found {self.found}"
        )


class ParseResult(Value):
    __slots__ = _fields = ("contract", "errors")

    def __init__(self, contract: Contract | None, errors: list[ParseError]):
        self.contract = contract
        self.errors = errors

    @property
    def ok(self) -> bool:
        return not self.errors


def _scan(text: str) -> tuple[list[str], list[int]]:
    """The text and start offset of every token, comments dropped."""
    matches = list(_TOKEN_RE.finditer(text))
    texts = list(map(re.Match.group, matches))
    offsets = list(map(re.Match.start, matches))
    if "//" in text:
        keep = [raw[:2] != "//" for raw in texts]
        texts = list(compress(texts, keep))
        offsets = list(compress(offsets, keep))
    return texts, offsets


def _newlines(text: str) -> list[int]:
    """The offsets of the line feeds in `text`, in order."""
    found = []
    at = text.find("\n")
    while at >= 0:
        found.append(at)
        at = text.find("\n", at + 1)
    return found


def _kinds(texts: list[str]) -> list[str] | None:
    """Every token's kind, or None when any token is a lexical error."""
    heads = {raw[0] for raw in texts}
    if not heads <= _HEADS:
        return None
    kinds = list(map(_KINDS.get, texts, repeat("IDENT")))
    if '"' in heads:
        for i, raw in enumerate(texts):
            if raw[0] == '"':
                if not _closed(raw):
                    return None
                kinds[i] = "STRING"
    return kinds


def _tokens(text: str, texts: list[str], offsets: list[int]) -> list[Token]:
    """A `Token`, with its `Span`, for each scanned token of `text`."""
    newlines = _newlines(text)
    tokens: list[Token] = []
    for raw, offset in zip(texts, offsets):
        line = bisect_right(newlines, offset)
        col = offset - (newlines[line - 1] if line else -1)
        span = _new(Span, (line + 1, col, line + 1, col + len(raw)))
        kind = _KINDS.get(raw)
        if kind is None:
            head = raw[0]
            if head in _LETTERS:
                kind = "IDENT"
            elif head == '"' and _closed(raw):
                kind, raw = "STRING", _string_value(raw)
            elif head == '"':
                kind, raw = "ERROR", "unterminated string"
            else:
                kind = "ERROR"
        tokens.append(_new(Token, (kind, raw, span)))
    return tokens


def tokenize(text: str) -> list[Token]:
    """Scan into tokens; bytes outside the alphabet become ERROR tokens.
    A view over the scan the parser runs."""
    return _tokens(text, *_scan(text))


class _Parser:
    """Recursive descent over the scan's lists. `pos` indexes the current
    token; index `end`, one past the last token, is the end of input."""

    def __init__(self, text: str, texts: list[str], offsets: list[int],
                 kinds: list[str], file: str):
        self.texts = texts
        self.offsets = offsets
        kinds.append("EOF")
        self.kinds = kinds
        self.newlines = _newlines(text)
        self.end = len(texts)
        self.pos = 0
        self.file = file
        self.errors: list[ParseError] = []
        self.eof_span = self.span(self.end - 1, self.end - 1) if texts else Span(1, 1, 1, 1)

    def span(self, first: int, last: int) -> Span:
        """From the start of token `first` to the end of token `last`."""
        if first == self.end:
            return self.eof_span
        newlines = self.newlines
        start = self.offsets[first]
        line = bisect_right(newlines, start)
        end = self.offsets[last] + len(self.texts[last])
        end_line = bisect_right(newlines, end - 1, line)  # line of the last character
        return _new(Span, (
            line + 1, start - (newlines[line - 1] if line else -1),
            end_line + 1, end - (newlines[end_line - 1] if end_line else -1),
        ))

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def fail(self, expected: str) -> ParseError:
        pos = self.pos
        if pos == self.end:
            found = "end of input"
        elif self.kinds[pos] == "STRING":
            found = f"'{_string_value(self.texts[pos])}'"
        else:
            found = f"'{self.texts[pos]}'"
        return ParseError(self.span(pos, pos), expected, found, self.file)

    def expect(self, kind: str, expected: str) -> int:
        pos = self.pos
        if self.kinds[pos] == kind:
            self.pos = pos + 1
            return pos
        raise self.fail(expected)

    def ident(self, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] == "IDENT":
            self.pos = pos + 1
            return self.texts[pos]
        raise self.fail(what)

    def string(self) -> str:
        return _string_value(self.texts[self.expect("STRING", "string")])

    def sync(self):
        """Skip to just past the next ';' (or to EOF)."""
        try:
            self.pos = self.kinds.index("SEMI", self.pos) + 1
        except ValueError:
            self.pos = self.end

    # -- grammar ---------------------------------------------------------

    def contract(self) -> Contract | None:
        agents = self.decl_list("agents")
        actions = self.decl_list("actions")
        meta = Meta()
        while self.at("IDENT") and self.texts[self.pos] in _ANNOTATIONS:
            try:
                self.annotation(meta)
            except ParseError as exc:
                self.errors.append(exc)
                self.sync()
        clauses: list[Clause] = []
        while self.pos < self.end:
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
        what = f"{keyword[:-1]} name"
        try:
            self.expect(keyword, f"'{keyword}'")
            decls.append(self.decl(what))
            while self.at("COMMA"):
                self.pos += 1
                decls.append(self.decl(what))
            self.expect("SEMI", "';'")
        except ParseError as exc:
            self.errors.append(exc)
            self.sync()
        return decls

    def decl(self, what: str) -> Decl:
        pos = self.pos
        return Decl(self.ident(what), self.span(pos, pos))

    def annotation(self, meta: Meta):
        keyword = self.texts[self.pos]  # an IDENT, as the caller saw
        self.pos += 1
        if keyword == "contract":
            meta.contract_name = self.ident("contract name")
        elif keyword == "statemsg":
            self.expect("EQUALS", "'='")
            meta.statemsg = self.string()
        else:
            self.annotation_entry(keyword, meta)
            while self.at("COMMA"):
                self.pos += 1
                self.annotation_entry(keyword, meta)
        self.expect("SEMI", "';'")

    def annotation_entry(self, keyword: str, meta: Meta):
        """An inline key, or `name = value` into the keyword's `Meta`
        table; only an event-named keyword takes a pair before its name."""
        if keyword == "inline":
            meta.inline.append(self.event_key())
            return
        table, names, _text = ANNOTATIONS[keyword]
        key = self.event_key() if names == "event" else self.ident("name")
        self.expect("EQUALS", "'='")
        value = self.string() if self.at("STRING") else self.ident("value")
        getattr(meta, table)[key] = value

    def event_key(self) -> Key:
        pair = self.pair() if self.at("LBRACE") else None
        name = self.ident("name")
        return (pair.performer, pair.counterparty, name) if pair else (None, None, name)

    def pair(self) -> AgentPair:
        self.expect("LBRACE", "'{'")
        performer = self.ident("agent name")
        self.expect("COMMA", "','")
        counterparty = self.ident("agent name")
        self.expect("RBRACE", "'}'")
        return _new(AgentPair, (performer, counterparty))

    def clause(self, depth: int) -> Clause:
        """Parse one clause enclosed by `depth` guards."""
        start = self.pos
        if depth > MAX_NESTING:
            raise ParseError(
                self.span(start, start),
                f"a clause inside at most {MAX_NESTING} guards",
                f"one inside {depth}",
                self.file,
            )
        # a leaf `{x,y}O(a)`, recognised by the kinds of its nine tokens;
        # any other clause, or a fault, takes the token-by-token path below
        node = _LEAVES.get(tuple(self.kinds[start:start + 9]))
        if node is not None:
            texts = self.texts
            self.pos = start + 9
            pair = _new(AgentPair, (texts[start + 1], texts[start + 3]))
            return node(pair, texts[start + 7], self.span(start, start + 8))
        pair = self.pair()
        kind = self.kinds[self.pos]
        node = _DEONTIC.get(kind)
        if node is not None:
            self.pos += 1
            self.expect("LPAREN", "'('")
            action = self.ident("action name")
            end = self.expect("RPAREN", "')'")
            return node(pair, action, self.span(start, end))
        if kind == "LBRACK":
            self.pos += 1
            negated = self.at("BANG")
            if negated:
                self.pos += 1
            action = self.ident("action name")
            self.expect("RBRACK", "']'")
            starred = self.at("STAR")
            if starred:
                self.pos += 1
            self.expect("LPAREN", "'('")
            body = self.clause_and(depth + 1)
            span = self.span(start, self.expect("RPAREN", "')'"))
            if negated:
                return IterBox(pair, action, body, False, starred, span)
            if starred:
                return IterBox(pair, action, body, True, True, span)
            return Box(pair, action, body, span)
        raise self.fail("'O', 'F', 'P' or '['")

    def clause_and(self, depth: int) -> tuple[Clause, ...]:
        clauses = [self.clause(depth)]
        while self.at("AMP"):
            self.pos += 1
            clauses.append(self.clause(depth))
        return tuple(clauses)


def parse_contract(text: str, file: str = "<input>") -> ParseResult:
    """Parse source text; on any fault the result carries every error
    found (resynchronizing at ';') and no contract. Lexical errors come
    alone, every one of them, since a parse over them would mislead."""
    texts, offsets = _scan(text)
    kinds = _kinds(texts)
    if kinds is None:
        errors = [
            ParseError(t.span, "a token", f"'{t.text}'", file)
            for t in _tokens(text, texts, offsets)
            if t.kind == "ERROR"
        ]
        return ParseResult(None, errors)
    parser = _Parser(text, texts, offsets, kinds, file)
    contract = parser.contract()
    return ParseResult(contract, parser.errors)
