"""The slow paths the fast ones replaced, kept as test references.

`reference_tokenize` is the character-at-a-time scanner over frozen
dataclass tokens and spans. `reference_state` derives a norm state with
pending boxes and armed watches as frozensets; it takes the place of
`ContractSemantics.state` (patch it onto the class), so
`enumerate_reachable` builds the reference lattice with it.
`reference_dump_lts` prints such frozenset states. All three are kept
as they were, apart from their names.
"""

from __future__ import annotations

from dataclasses import dataclass

from rclc.ast import Box, Clause, IterBox, Obligation, Permission, Prohibition
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
