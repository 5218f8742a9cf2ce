"""AST validation and helper coverage."""

from rclc.ast import (
    AgentPair,
    Meta,
    conjuncts,
    iter_clauses,
    pretty_print,
    validate,
)
from rclc.parser import parse_contract


def parsed(src):
    result = parse_contract(src)
    assert result.ok, [str(e) for e in result.errors]
    return result.contract


def errors_of(src):
    return [i.message for i in validate(parsed(src)) if i.severity == "error"]


def warnings_of(src):
    return [i.message for i in validate(parsed(src)) if i.severity == "warning"]


def test_valid_contract_is_clean():
    issues = validate(parsed("agents a, b; actions x; {a,b}O(x);"))
    assert issues == []


def test_single_agent_rejected():
    errs = errors_of("agents a; actions x; {a,a}O(x);")
    assert any("two agents" in m for m in errs)


def test_duplicate_agent():
    errs = errors_of("agents a, b, a; actions x; {a,b}O(x);")
    assert any("duplicate" in m for m in errs)


def test_duplicate_action():
    errs = errors_of("agents a, b; actions x, x; {a,b}O(x);")
    assert any("duplicate" in m for m in errs)


def test_agent_action_name_overlap():
    errs = errors_of("agents a, b; actions a; {a,b}O(a);")
    assert any("both" in m for m in errs)


def test_undeclared_agent():
    errs = errors_of("agents a, b; actions x; {a,c}O(x);")
    assert any("undeclared agent 'c'" in m for m in errs)


def test_undeclared_action():
    errs = errors_of("agents a, b; actions x; {a,b}O(zz);")
    assert any("undeclared action 'zz'" in m for m in errs)


def test_self_pair_rejected():
    errs = errors_of("agents a, b; actions x; {a,a}O(x);")
    assert any("itself" in m for m in errs)


def test_positive_star_warns():
    warns = warnings_of("agents a, b; actions x, y; {a,b}[x]*({b,a}O(y));")
    assert any("positive" in m for m in warns)


def test_unstarred_negated_guard_warns():
    warns = warnings_of("agents a, b; actions x, y; {a,b}[!x]({b,a}O(y));")
    assert any("without '*'" in m for m in warns)


def test_unused_action_warns():
    warns = warnings_of("agents a, b; actions x, y; {a,b}O(x);")
    assert any("never used" in m and "'y'" in m for m in warns)


def test_watch_only_action_warns():
    # z appears only under a negated guard: nothing can ever perform it
    warns = warnings_of(
        "agents a, b; actions x, z; {a,b}O(x); {a,b}[!z]*({b,a}F(x));"
    )
    assert any("discharged" in m for m in warns)


def test_annotation_refers_to_undeclared_name():
    errs = errors_of(
        "agents a, b; actions x; role q = ghost; {a,b}O(x);"
    )
    assert any("'q'" in m for m in errs)


def test_meta_lookup_prefers_exact_pair():
    meta = Meta()
    meta.funcs[(None, None, "x")] = "generic"
    meta.funcs[("a", "b", "x")] = "specific"
    assert meta.lookup(meta.funcs, AgentPair("a", "b"), "x") == "specific"
    assert meta.lookup(meta.funcs, AgentPair("b", "a"), "x") == "generic"
    assert meta.lookup(meta.funcs, AgentPair("a", "b"), "y") is None


def test_conjuncts_flattens_nested_and():
    c = parsed("agents a, b; actions x; {a,b}O(x) & {a,b}P(x) & {a,b}F(x);")
    parts = conjuncts(c.clauses[0])
    assert len(parts) == 3


def test_iter_clauses_reports_paths():
    c = parsed(
        "agents a, b; actions x, y; {a,b}[x]({b,a}O(y) & {b,a}P(x)); {a,b}F(y);"
    )
    entries = [(type(cl).__name__, path) for cl, path in iter_clauses(c)]
    # pre-order: each node before its children, left before right
    assert entries == [
        ("Box", "clauses[0]"),
        ("And", "clauses[0].body"),
        ("Obligation", "clauses[0].body.left"),
        ("Permission", "clauses[0].body.right"),
        ("Prohibition", "clauses[1]"),
    ]


def test_pretty_print_idempotent():
    src = "agents a, b; actions x, y; {a,b}[x]({b,a}O(y)); {a,b}F(y);"
    c = parsed(src)
    once = pretty_print(c)
    twice = pretty_print(parsed(once))
    assert once == twice
