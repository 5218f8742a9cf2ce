"""Parser tests: round-trip oracle, error rendering, recovery, fuzz."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclc.ast import (
    ANNOTATIONS,
    Box,
    IterBox,
    Obligation,
    Permission,
    Prohibition,
    iter_clauses,
    pretty_print,
)
from rclc.parser import parse_contract, tokenize

from contractgen import random_contract
from reference import reference_parse_contract, reference_tokenize

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


FULL_SET = """
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


def test_annotations_full_set():
    c = parse_ok(FULL_SET)
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


def test_pretty_print_emits_annotations_in_schema_order():
    assert pretty_print(parse_ok(FULL_SET)) == """agents b, s;
actions pay, ship;
contract Deal;
role b = buyer;
role s = seller;
rolemsg b = "buyer only";
require shipped = "not shipped";
repeat shipped = "already shipped";
state {b,s} pay = Paid;
flag {s,b} ship = shipped;
func {s,b} ship = shipGoods;
payable {b,s} pay = amount;
message {b,s} pay = "paid";
valuemsg {b,s} pay = "wrong amount";
statemsg = "bad state";
inline {s,b} ship;

{b,s} [pay] (
    {s,b} O(ship)
);
"""


def test_annotation_round_trip():
    # every keyword, event keys with and without a pair, and escapes
    src = """
    agents b, s;
    actions pay, ship;
    contract Deal;
    role b = buyer, s = seller;
    rolemsg b = "buyer only", s = "seller \\ only";
    require shipped = "not shipped";
    repeat shipped = "already shipped";
    state {b,s}pay = Paid, ship = Shipped;
    flag {s,b}ship = shipped;
    func ship = shipGoods;
    payable {b,s}pay = amount;
    message {b,s}pay = "paid \\"in full\\"", ship = "shipped";
    valuemsg pay = "wrong amount";
    statemsg = "bad \\"state\\"";
    inline {s,b}ship, pay;
    {b,s}[pay]({s,b}O(ship));
    """
    keywords = {line.split()[0] for line in src.splitlines()[3:-2]}
    assert keywords == {*ANNOTATIONS, "contract", "statemsg", "inline"}
    c = parse_ok(src)
    assert parse_ok(pretty_print(c)) == c


@pytest.mark.parametrize("src, message", [
    ("role {a,b} a = buyer;", "f.rcl:2:6: error: expected name, found '{'"),
    ("rolemsg {a,b} a = \"m\";", "f.rcl:2:9: error: expected name, found '{'"),
    ("require {a,b} xDone = \"m\";", "f.rcl:2:9: error: expected name, found '{'"),
    ("repeat {a,b} xDone = \"m\";", "f.rcl:2:8: error: expected name, found '{'"),
    ("inline x = foo;", "f.rcl:2:10: error: expected ';', found '='"),
    ("inline {a,b} x = foo;", "f.rcl:2:16: error: expected ';', found '='"),
])
def test_annotation_parts_that_would_be_dropped_are_errors(src, message):
    # only an event-named keyword takes a pair, and inline takes no value
    result = parse_contract(f"agents a, b; actions x;\n{src}\n{{a,b}}O(x);", file="f.rcl")
    assert [str(e) for e in result.errors] == [message]


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


def _span(span):
    return (span.line, span.col, span.end_line, span.end_col)


def _stream(tokens):
    return [(t.kind, t.text, _span(t.span)) for t in tokens]


def _outcome(result):
    """All a parse result says: each error with its whole span, and the
    contract with its `Meta`, every `Decl` span and every clause span in
    pre-order, which contract equality leaves out."""
    errors = [(str(e), e.expected, e.found, _span(e.span)) for e in result.errors]
    contract = result.contract
    if contract is None:
        return errors, None
    decls = [(d.name, _span(d.span)) for d in (*contract.agents, *contract.actions)]
    clauses = [
        (path, type(clause).__name__, _span(clause.span))
        for clause, path in iter_clauses(contract)
    ]
    return errors, (contract, contract.meta, decls, clauses)


def _variants(text):
    """The text as written, with comment lines between its lines, with
    CRLF line ends, and with both."""
    commented = "// comment\n" + text.replace("\n", "\n// comment\n")
    return [text, commented, text.replace("\n", "\r\n"), commented.replace("\n", "\r\n")]


def _agrees_with_the_reference(text):
    for variant in _variants(text):
        assert _stream(tokenize(variant)) == _stream(reference_tokenize(variant))
        fast = parse_contract(variant, file="f.rcl")
        slow = reference_parse_contract(variant, file="f.rcl")
        assert _outcome(fast) == _outcome(slow)


# pieces of text the scanner treats differently: every punctuation mark
# and alias, string quotes and escapes, blanks and line ends, comment
# starts, keywords, identifiers, and characters outside the alphabet
_PIECES = [
    *"{}[](),;*=&!∧¬\"\\/", "\t", "\r", "\n", " ", "//", "_", "0", "7",
    "é", "一", "\U0002c540", "\x0b", "\\n", '\\"', "\\\\",
    "agents", "actions", "O", "F", "P", "a", "b", "x", "x_1", "role", "message",
    "statemsg", "agents a, b;\n", "actions x, y;\n", "{a,b}O(x);", "{a,b}[!y]*(",
    # compact shapes, whole, broken by a blank or a comment, or holding a
    # keyword in a name slot, and in places where the grammar wants no
    # compact token
    "{a,b}", "{a, b}", "{a,//c\nb}", "{a,b}[x](", "{a,b}[!x](", "{a,b}[x]*(",
    "{a,b}[¬x]*(", "{O,b}O(x)", "{a,b}O(F)", "state {a,b}O(x) = S;", "role {a,b} a = r;",
    "{a,F}[!x]*(", "{a,b}[P](", "{P,b}", "inline {a,b}[x](;",
    # a keyword in each name slot, which the scan leaves to the fine tokens,
    # and names a keyword only begins, which stay compact
    "{agents,b}O(x)", "{a,b}O(actions)", "{a,actions}", "{a,b}[agents](",
    "{Ox,b}P(agentsX)", "{actions_,Fa}[¬P1]*(", "{a,O1}",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=60).map("".join))
def test_tokenize_matches_the_reference_scanner(text):
    _agrees_with_the_reference(text)


def test_keywords_in_name_slots_parse_as_the_reference_parses_them():
    # each shape as a statement, in a guard body, after a guard's pair and
    # as an annotation key, where the hypothesis draws rarely put it
    header = "agents a, b;\nactions x;\n"
    shapes = ["{a,b}[agents](", "{Ox,b}P(agentsX)", "{actions_,Fa}[¬P1]*({a,b}F(x))",
              "{a,O1}[x]({a,b}O(x))"]
    for word in ("agents", "actions", "O", "F", "P"):
        shapes += [f"{{{word},b}}O(x)", f"{{a,{word}}}[x]({{a,b}}O(x))", f"{{a,b}}F({word})",
                   f"{{a,b}}[!{word}]*({{a,b}}O(x))"]
    for shape in shapes:
        for text in (f"{shape};\n", f"{{a,b}}[x]({shape});\n", f"{{a,b}}{shape};\n",
                     f"state {shape} = S;\n{{a,b}}O(x);\n"):
            _agrees_with_the_reference(header + text)


def test_tokenize_matches_the_reference_scanner_on_the_fixtures():
    for name in ("purchase_fixed.rcl", "purchase_conflicted.rcl"):
        _agrees_with_the_reference((FIXTURES / name).read_text())
    deep = "{a,b}[x](" * 1200 + "{a,b}O(x)" + ")" * 1200
    _agrees_with_the_reference(f"agents a, b;\nactions x;\n{deep};\n")


def _compact(text):
    """Canonical text with the blanks inside each leaf and guard head
    removed, so that each is one compact token."""
    text = re.sub(r"\} ([OFP]\(|\[)", r"}\1", text)
    return re.sub(r"\](\*?) \(", r"]\1(", text)


def _spaced(text):
    """The text's tokens with one blank between every two, so that no
    compact token forms; for text without strings."""
    tokens = reference_tokenize(text)
    assert all(t.kind != "STRING" for t in tokens)
    return " ".join(t.text for t in tokens)


def test_parse_matches_the_reference_parser_on_random_contracts():
    # canonical text holds compact pairs (`{a,b} O(x)`), compact text
    # compact leaves and guard heads too, spaced text none
    rng = random.Random(20261018)
    for _ in range(60):
        text = pretty_print(random_contract(rng))
        compact = _compact(text)
        assert "}O(" in compact or "}F(" in compact or "}P(" in compact
        for variant in (text, compact, _spaced(text)):
            _agrees_with_the_reference(variant)
    _agrees_with_the_reference(FULL_SET)


def test_end_of_input_errors_keep_their_positions():
    # the end of input sits on the last token, or at 1:1 with no tokens
    assert [str(e) for e in parse_contract("", file="f.rcl").errors] == [
        "f.rcl:1:1: error: expected 'agents', found end of input",
        "f.rcl:1:1: error: expected 'actions', found end of input",
    ]
    result = parse_contract("agents a, b;\r\nactions x;\r\n{a,b}O(x)", file="f.rcl")
    assert [str(e) for e in result.errors] == [
        "f.rcl:3:9: error: expected ';', found end of input",
    ]
    assert _span(result.errors[0].span) == (3, 9, 3, 10)


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
