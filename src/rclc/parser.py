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
for "!" are accepted. The parser's source is scanned once, by one
compiled regex alternation run by `re.finditer`, whose matches it walks
by index. That pattern alone defines the compact shapes written without
blanks, each one token: a leaf `{x,y}O(a)`, a guard head `{x,y}[!a]*(`
(the `!` and `*` optional) and a pair `{x,y}`. A name slot of one takes
no keyword (`agents`, `actions`, `O`, `F`, `P`), so such text scans as
fine tokens and the grammar reports it, and the pattern's groups hand
the parser a compact token's names and marks. Any other token's kind
follows from its text. `clause` and `pair` take a compact token whole;
anywhere else the grammar would read its fine tokens it fails on one of
their one-character tokens: the first `{` where no pair may start, the
`O`, `F`, `P` or `[` after the pair where an annotation key wants its
name, or the last character at the end of input. So every error and
span is that of the fine tokens. The parser builds a `Span` only where
one is kept: a `Decl`, a clause (from its first token to its last), a
`ParseError` and the end of input. Line and column come from bisecting
the source's newline offsets, since no token spans a line. `tokenize`
scans with the same pieces minus the compact shapes, and builds a
`Token` and its `Span`, both named tuples, per fine token; a lexical
error's report comes from it.

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
from operator import attrgetter, ne
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
# the kinds of the compact tokens, each standing for several fine ones
_COMPACT = {"LEAF", "GUARD", "PAIR"}
# the kinds of the tokens that start a pair
_BRACES = {"LBRACE", *_COMPACT}

_ANNOTATIONS = {*ANNOTATIONS, "contract", "statemsg", "inline"}

_DEONTIC = {"O": Obligation, "F": Prohibition, "P": Permission}

# The scan's pieces, each alternative named for the kind it gives: a word;
# a line comment; a string; or any other character that is not a blank,
# its kind read from its text. A string runs to its closing quote or,
# unterminated, to the end of its line; inside it a backslash escapes '"',
# '\\' or 'n' and is otherwise an ordinary character. Under (?a) a \w is
# an ASCII letter, digit or '_'.
_WORD = r"[A-Za-z]\w*"
_OTHER = r'|(?P<COMMENT>//[^\n]*)|(?P<STRING>"(?:\\["\\n]|[^"\n])*"?)|[^ \t\r\n]'
# A name slot of a compact token: a word that is no keyword. Each slot ends
# at a mark, so a keyword there is followed by a non-word character.
_NAME = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})\W){_WORD}"
# The parser's scan: after a word, a compact leaf, guard head or pair, with
# its performer p and counterparty c, a leaf's deontic letter d and action
# a, and a guard's negation n, action g and star s. Each of their words ends
# where the fine scan's would, so a compact token is a run of fine tokens.
_TOKEN_RE = re.compile(
    rf"(?a)(?P<IDENT>{_WORD})"
    rf"|\{{(?P<p>{_NAME}),(?P<c>{_NAME})\}}(?:"
    rf"(?P<LEAF>(?P<d>[OFP])\((?P<a>{_NAME})\))"
    rf"|(?P<GUARD>\[(?P<n>[!¬])?(?P<g>{_NAME})\](?P<s>\*)?\()"
    r"|(?P<PAIR>))" + _OTHER
)
# tokenize's scan, the same pieces minus the compact shapes; `re` compiles
# it on first use and keeps it
_FINE = rf"(?a)(?P<IDENT>{_WORD})" + _OTHER
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


def _scan(text: str) -> tuple[list[re.Match], list[str | None]]:
    """The match and alternative name of every token, comments dropped."""
    matches = list(_TOKEN_RE.finditer(text))
    groups = list(map(attrgetter("lastgroup"), matches))
    if "//" in text:
        keep = list(map(ne, groups, repeat("COMMENT")))
        matches = list(compress(matches, keep))
        groups = list(compress(groups, keep))
    return matches, groups


def _newlines(text: str) -> list[int]:
    """The offsets of the line feeds in `text`, in order."""
    found = []
    at = text.find("\n")
    while at >= 0:
        found.append(at)
        at = text.find("\n", at + 1)
    return found


def _kinds(texts: list[str], groups: list[str | None]) -> list[str] | None:
    """Every token's kind, or None when any token is a lexical error."""
    kinds = list(map(_KINDS.get, texts, groups))
    if None in kinds:
        return None
    if "STRING" in kinds:
        for raw, kind in zip(texts, kinds):
            if kind == "STRING" and not _closed(raw):
                return None
    return kinds


def _one_line(newlines: list[int], offset: int, length: int) -> Span:
    """The span of a token of `length` characters at `offset`; no token
    spans a line break."""
    line = bisect_right(newlines, offset)
    col = offset - (newlines[line - 1] if line else -1)
    return _new(Span, (line + 1, col, line + 1, col + length))


def tokenize(text: str) -> list[Token]:
    """Scan into fine tokens; bytes outside the alphabet become ERROR
    tokens."""
    newlines = _newlines(text)
    tokens: list[Token] = []
    for match in re.finditer(_FINE, text):
        raw, group = match.group(), match.lastgroup
        if group == "COMMENT":
            continue
        span = _one_line(newlines, match.start(), len(raw))
        kind = _KINDS.get(raw, group)
        if kind == "STRING" and _closed(raw):
            raw = _string_value(raw)
        elif kind == "STRING":
            kind, raw = "ERROR", "unterminated string"
        elif kind is None:
            kind = "ERROR"
        tokens.append(_new(Token, (kind, raw, span)))
    return tokens


class _Parser:
    """Recursive descent over the scan's matches. `pos` indexes the current
    token; index `end`, one past the last token, is the end of input."""

    def __init__(self, text: str, matches: list[re.Match], texts: list[str],
                 kinds: list[str], file: str):
        self.matches = matches
        self.texts = texts
        self.offsets = list(map(re.Match.start, matches))
        kinds.append("EOF")
        self.kinds = kinds
        self.newlines = _newlines(text)
        self.end = len(texts)
        self.pos = 0
        self.file = file
        self.errors: list[ParseError] = []
        self.eof_span = Span(1, 1, 1, 1)
        if texts:  # the end of input sits on the last fine token
            self.eof_span = self.fine(self.end - 1, -1)[0]

    def span(self, first: int, last: int) -> Span:
        """From the start of token `first` to the end of token `last`."""
        newlines = self.newlines
        start = self.offsets[first]
        line = bisect_right(newlines, start)
        end = self.offsets[last] + len(self.texts[last])
        end_line = bisect_right(newlines, end - 1, line)  # line of the last character
        return _new(Span, (
            line + 1, start - (newlines[line - 1] if line else -1),
            end_line + 1, end - (newlines[end_line - 1] if end_line else -1),
        ))

    def fine(self, pos: int, at: int = 0) -> tuple[Span, str]:
        """The span and text of the token at `pos` or, if it is compact, of
        its one-character fine token at index `at` of its text."""
        raw, offset = self.texts[pos], self.offsets[pos]
        if self.kinds[pos] in _COMPACT:
            raw, offset = raw[at], offset + at % len(raw)
        return _one_line(self.newlines, offset, len(raw)), raw

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def fail(self, expected: str, at: int = 0) -> ParseError:
        """An error at the current fine token, index `at` of a compact one."""
        pos = self.pos
        if pos == self.end:
            return ParseError(self.eof_span, expected, "end of input", self.file)
        span, found = self.fine(pos, at)
        if self.kinds[pos] == "STRING":
            found = _string_value(found)
        return ParseError(span, expected, f"'{found}'", self.file)

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
        return Contract(agents, actions, clauses, meta)

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
        kind = self.kinds[self.pos]
        if kind == "LEAF" or kind == "GUARD":  # its pair, then 'O', 'F', 'P' or '['
            raise self.fail("name", self.texts[self.pos].index("}") + 1)
        pair = self.pair() if kind in _BRACES else None
        name = self.ident("name")
        return (pair.performer, pair.counterparty, name) if pair else (None, None, name)

    def pair(self) -> AgentPair:
        """A compact pair, taken whole, or a pair of fine tokens."""
        pos = self.pos
        if self.kinds[pos] == "PAIR":
            self.pos = pos + 1
            return _new(AgentPair, self.matches[pos].group("p", "c"))
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
                self.fine(start)[0],
                f"a clause inside at most {MAX_NESTING} guards",
                f"one inside {depth}",
                self.file,
            )
        kind = self.kinds[start]
        if kind == "LEAF" or kind == "GUARD":  # taken whole
            self.pos = start + 1
            match = self.matches[start]
            pair = _new(AgentPair, match.group("p", "c"))
            if kind == "LEAF":
                return _DEONTIC[match["d"]](pair, match["a"], self.span(start, start))
            return self.guarded(start, pair, match["g"], match["n"] is not None,
                                match["s"] is not None, depth)
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
            return self.guarded(start, pair, action, negated, starred, depth)
        raise self.fail("'O', 'F', 'P' or '['")

    def guarded(self, start: int, pair: AgentPair, action: str, negated: bool,
                starred: bool, depth: int) -> Clause:
        """The body and closing ')' of a guard whose head runs from token
        `start` to its '('."""
        body = self.clause_and(depth + 1)
        span = self.span(start, self.expect("RPAREN", "')'"))
        if negated:
            return IterBox(pair, action, body, False, starred, span)
        if starred:
            return IterBox(pair, action, body, True, True, span)
        return Box(pair, action, body, span)

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
    matches, groups = _scan(text)
    texts = list(map(re.Match.group, matches))
    kinds = _kinds(texts, groups)
    if kinds is None:
        errors = [
            ParseError(t.span, "a token", f"'{t.text}'", file)
            for t in tokenize(text)
            if t.kind == "ERROR"
        ]
        return ParseResult(None, errors)
    parser = _Parser(text, matches, texts, kinds, file)
    contract = parser.contract()
    return ParseResult(contract, parser.errors)
