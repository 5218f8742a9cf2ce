"""Parser tests: round-trip oracle, error rendering, recovery, fuzz."""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rclc.parser
from rclc.ast import Box, IterBox, Obligation, Permission, Prohibition, pretty_print
from rclc.parser import parse_contract, tokenize

from contractgen import random_contract
from reference import reference_tokenize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def parse_ok(src: str):
    result = parse_contract(src)
    assert result.ok, [str(e) for e in result.errors]
    return result.contract


def test_round_trip_is_identity_on_500_random_contracts():
    rng = random.Random(20260819)
    for _ in range(500):
        contract = random_contract(rng)
        text = pretty_print(contract)
        reparsed = parse_ok(text)
        assert reparsed == contract


def test_minimal_contract():
    c = parse_ok("agents a, b; actions x; {a,b}O(x);")
    assert c.agent_names() == ["a", "b"]
    assert c.action_names() == ["x"]
    clause = c.clauses[0]
    assert isinstance(clause, Obligation)
    assert clause.pair.performer == "a"
    assert clause.pair.counterparty == "b"
    assert clause.action == "x"


def test_all_clause_forms():
    src = """
    agents a, b;
    actions x, y;
    {a,b}F(x);
    {a,b}P(y);
    {a,b}[x]({b,a}O(y));
    {a,b}[!x]*({b,a}F(y));
    {a,b}O(x) & {b,a}P(y);
    """
    c = parse_ok(src)
    kinds = [type(cl) for cl in c.clauses]
    assert kinds == [Prohibition, Permission, Box, IterBox, Obligation, Permission]
    iterbox = c.clauses[3]
    assert not iterbox.positive and iterbox.starred


def test_unicode_aliases():
    plain = parse_ok("agents a, b; actions x, y; {a,b}O(x) & {a,b}[!y]*({b,a}F(x));")
    fancy = parse_ok("agents a, b; actions x, y; {a,b}O(x) ∧ {a,b}[¬y]*({b,a}F(x));")
    assert plain == fancy


def test_comments_ignored():
    src = "agents a, b; // the parties\nactions x; // what they do\n{a,b}O(x); // pay up\n"
    parse_ok(src)


def test_positive_star_parses():
    c = parse_ok("agents a, b; actions x, y; {a,b}[x]*({b,a}O(y));")
    clause = c.clauses[0]
    assert isinstance(clause, IterBox) and clause.positive and clause.starred


def test_unstarred_negated_guard_parses():
    c = parse_ok("agents a, b; actions x, y; {a,b}[!x]({b,a}O(y));")
    clause = c.clauses[0]
    assert isinstance(clause, IterBox) and not clause.positive and not clause.starred


def test_conjunction_parses_into_a_tuple():
    c = parse_ok(
        "agents a, b; actions x; {a,b}O(x) & {a,b}P(x) & {a,b}F(x);"
        " {a,b}[x]({a,b}O(x) & {a,b}P(x));"
    )
    # a top-level statement's clauses join the contract's own tuple
    assert [type(cl) for cl in c.clauses] == [Obligation, Permission, Prohibition, Box]
    body = c.clauses[3].body
    assert isinstance(body, tuple)
    assert [type(cl) for cl in body] == [Obligation, Permission]


def test_error_format_and_location():
    result = parse_contract("agents a, b;\nactions x;\n{a,b}Q(x);", file="bad.rcl")
    assert not result.ok
    assert result.contract is None
    msg = str(result.errors[0])
    assert msg == "bad.rcl:3:6: error: expected 'O', 'F', 'P' or '[', found 'Q'"


def test_recovery_reports_multiple_errors():
    src = "agents a, b;\nactions x;\n{a,b}O();\n{a,b}O(x);\n{a}O(x);"
    result = parse_contract(src)
    assert len(result.errors) == 2
    lines = [e.span.line for e in result.errors]
    assert lines == [3, 5]


def test_missing_header_is_an_error():
    result = parse_contract("{a,b}O(x);")
    assert not result.ok


def test_unterminated_string():
    result = parse_contract('agents a, b; actions x; message {a,b}x = "oops;\n{a,b}O(x);')
    assert not result.ok


def test_annotations_full_set():
    src = """
    agents b, s;
    actions pay, ship;
    contract Deal;
    role b = buyer, s = seller;
    state {b,s}pay = Paid;
    flag {s,b}ship = shipped;
    func {s,b}ship = shipGoods;
    payable {b,s}pay = amount;
    message {b,s}pay = "paid";
    require shipped = "not shipped";
    repeat shipped = "already shipped";
    rolemsg b = "buyer only";
    valuemsg {b,s}pay = "wrong amount";
    statemsg = "bad state";
    inline {s,b}ship;
    {b,s}[pay]({s,b}O(ship));
    """
    c = parse_ok(src)
    meta = c.meta
    assert meta.contract_name == "Deal"
    assert meta.roles == {"b": "buyer", "s": "seller"}
    assert meta.states[("b", "s", "pay")] == "Paid"
    assert meta.flags[("s", "b", "ship")] == "shipped"
    assert meta.funcs[("s", "b", "ship")] == "shipGoods"
    assert meta.payables[("b", "s", "pay")] == "amount"
    assert meta.messages[("b", "s", "pay")] == "paid"
    assert meta.requires["shipped"] == "not shipped"
    assert meta.repeats["shipped"] == "already shipped"
    assert meta.rolemsgs["b"] == "buyer only"
    assert meta.valuemsgs[("b", "s", "pay")] == "wrong amount"
    assert meta.statemsg == "bad state"
    assert meta.inline == [("s", "b", "ship")]


def test_annotation_string_escapes():
    src = 'agents a, b; actions x; message {a,b}x = "say \\"hi\\" \\\\ ok"; {a,b}O(x);'
    c = parse_ok(src)
    assert c.meta.messages[("a", "b", "x")] == 'say "hi" \\ ok'


def test_annotation_round_trip():
    src = """
    agents b, s;
    actions pay, ship;
    contract Deal;
    role b = buyer;
    state {b,s}pay = Paid;
    message {b,s}pay = "paid \\"in full\\"";
    inline {s,b}ship;
    {b,s}[pay]({s,b}O(ship));
    """
    c = parse_ok(src)
    assert parse_ok(pretty_print(c)) == c


def test_keywords_are_contextual():
    # annotation keywords stay usable as action names
    c = parse_ok("agents a, b; actions state, flag; {a,b}O(state) & {a,b}P(flag);")
    assert c.action_names() == ["state", "flag"]


def test_tokenizer_positions():
    tokens = tokenize("agents a;\n  {x}")
    kinds = [(t.kind, t.span.line, t.span.col) for t in tokens]
    assert kinds == [
        ("agents", 1, 1), ("IDENT", 1, 8), ("SEMI", 1, 9),
        ("LBRACE", 2, 3), ("IDENT", 2, 4), ("RBRACE", 2, 5),
    ]


def test_stray_byte_reports_lexical_error():
    result = parse_contract("agents a, b; actions x; {a,b}O(x)$;")
    assert not result.ok
    assert "'$'" in str(result.errors[0])


def test_non_ascii_letters_are_lexical_errors():
    # alphabetic but outside the identifier alphabet; must not stall the lexer
    for ch in ("é", "一", "\U0002c540"):
        result = parse_contract(f"agents a{ch};")
        assert not result.ok
        assert any(f"'{ch}'" in str(e) for e in result.errors)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_fuzz_never_crashes(src):
    result = parse_contract(src)
    assert result.contract is None or result.ok


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_property(seed):
    contract = random_contract(random.Random(seed))
    assert parse_ok(pretty_print(contract)) == contract


def _stream(tokens):
    return [
        (t.kind, t.text, (t.span.line, t.span.col, t.span.end_line, t.span.end_col))
        for t in tokens
    ]


def _agrees_with_the_reference_scanner(text):
    assert _stream(tokenize(text)) == _stream(reference_tokenize(text))
    fast = parse_contract(text, file="f.rcl")
    with mock.patch.object(rclc.parser, "tokenize", reference_tokenize):
        slow = parse_contract(text, file="f.rcl")
    assert [str(e) for e in fast.errors] == [str(e) for e in slow.errors]
    assert fast.contract == slow.contract


# pieces of text the scanner treats differently: every punctuation mark
# and alias, string quotes and escapes, blanks and line ends, comment
# starts, keywords, identifiers, and characters outside the alphabet
_PIECES = [
    *"{}[](),;*=&!∧¬\"\\/", "\t", "\r", "\n", " ", "//", "_", "0", "7",
    "é", "一", "\U0002c540", "\x0b", "\\n", '\\"', "\\\\",
    "agents", "actions", "O", "F", "P", "a", "b", "x", "x_1", "role", "message",
    "statemsg", "agents a, b;\n", "actions x, y;\n", "{a,b}O(x);", "{a,b}[!y]*(",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=60).map("".join))
def test_tokenize_matches_the_reference_scanner(text):
    _agrees_with_the_reference_scanner(text)


def test_tokenize_matches_the_reference_scanner_on_the_fixtures():
    for name in ("purchase_fixed.rcl", "purchase_conflicted.rcl"):
        _agrees_with_the_reference_scanner((FIXTURES / name).read_text())
    deep = "{a,b}[x](" * 1200 + "{a,b}O(x)" + ")" * 1200
    _agrees_with_the_reference_scanner(f"agents a, b;\nactions x;\n{deep};\n")


def test_tokens_and_spans_are_tuples():
    (token,) = tokenize('"a\\"b"')
    assert token == ("STRING", 'a"b', (1, 1, 1, 7))
    assert repr(token) == (
        "Token(kind='STRING', text='a\"b', "
        "span=Span(line=1, col=1, end_line=1, end_col=7))"
    )
    assert str(token.span) == "1:1"
    with pytest.raises(AttributeError):
        token.span.line = 2
