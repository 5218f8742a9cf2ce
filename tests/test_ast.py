"""AST validation and helper coverage."""

import random

from rclc.ast import (
    ANNOTATIONS,
    AgentPair,
    Box,
    Contract,
    Decl,
    IterBox,
    Meta,
    Obligation,
    Prohibition,
    Span,
    iter_clauses,
    pretty_print,
    validate,
)
from rclc.parser import parse_contract
from rclc.semantics import ContractSemantics

from contractgen import merged_contract, random_contract, random_flow
from reference import reference_iter_clauses, reference_validate, reference_walk_validate


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


def test_name_valued_annotations_must_be_identifiers():
    errs = errors_of(
        'agents a, b; actions x, y; role a = "buyer x"; state {a,b}x = "S 1";'
        ' flag y = "y-done"; func {a,b}x = "do it"; payable y = "1st";'
        " message x = \"any text\"; {a,b}[x]({b,a}O(y));"
    )
    assert errs == [
        f"{label} annotation value '{value}' is not an identifier"
        for label, value in (("role", "buyer x"), ("state", "S 1"), ("flag", "y-done"),
                             ("func", "do it"), ("payable", "1st"))
    ]


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


def test_annotation_errors_keep_their_wording_and_order():
    # undeclared agents, then non-identifier values, then bad event keys,
    # each group in schema order
    errs = errors_of("""agents a, b; actions x;
        state {a,q}y = "1st", x = S;
        role q = buyer, a = "9lives";
        rolemsg r = "m";
        message {a,b}z = "m";
        valuemsg {p,b}x = "v";
        payable w = "no way";
        flag x = done, {a,b}x = "bad flag";
        func {z,a}v = fx;
        require zz = "free text";
        {a,b}O(x);""")
    assert errs == [
        "annotation refers to undeclared agent 'q'",
        "annotation refers to undeclared agent 'r'",
        "role annotation value '9lives' is not an identifier",
        "state annotation value '1st' is not an identifier",
        "flag annotation value 'bad flag' is not an identifier",
        "payable annotation value 'no way' is not an identifier",
        "state annotation refers to undeclared action 'y'",
        "state annotation refers to undeclared agent 'q'",
        "func annotation refers to undeclared action 'v'",
        "func annotation refers to undeclared agent 'z'",
        "payable annotation refers to undeclared action 'w'",
        "message annotation refers to undeclared action 'z'",
        "valuemsg annotation refers to undeclared agent 'p'",
    ]


def test_meta_lookup_prefers_exact_pair():
    meta = Meta()
    meta.funcs[(None, None, "x")] = "generic"
    meta.funcs[("a", "b", "x")] = "specific"
    assert meta.lookup(meta.funcs, AgentPair("a", "b"), "x") == "specific"
    assert meta.lookup(meta.funcs, AgentPair("b", "a"), "x") == "generic"
    assert meta.lookup(meta.funcs, AgentPair("a", "b"), "y") is None


def test_agent_pair_prints_sorts_and_compares_as_a_tuple():
    pairs = [AgentPair("b", "a"), AgentPair("a", "c"), AgentPair("a", "b")]
    assert [str(p) for p in sorted(pairs)] == ["{a,b}", "{a,c}", "{b,a}"]
    assert AgentPair("a", "b") == ("a", "b")
    assert hash(AgentPair("a", "b")) == hash(("a", "b"))
    assert (AgentPair("a", "b"), "x") in {(("a", "b"), "x")}


def test_iter_clauses_reports_paths():
    c = parsed(
        "agents a, b; actions x, y; {a,b}[x]({b,a}O(y) & {b,a}P(x)); {a,b}F(y);"
    )
    entries = [(type(cl).__name__, path) for cl, path in iter_clauses(c)]
    # pre-order: each box before its body, a body in conjunct order
    assert entries == [
        ("Box", "clauses[0]"),
        ("Obligation", "clauses[0].body[0]"),
        ("Permission", "clauses[0].body[1]"),
        ("Prohibition", "clauses[1]"),
    ]


def test_pretty_print_idempotent():
    src = "agents a, b; actions x, y; {a,b}[x]({b,a}O(y)); {a,b}F(y);"
    c = parsed(src)
    once = pretty_print(c)
    twice = pretty_print(parsed(once))
    assert once == twice


def _spoiled(rng, contract):
    """`contract` with some of the faults validate reports: names left
    undeclared, declared twice or not identifiers, self-pairs, unstarred
    and positive watches deep in the tree, and bad annotations."""
    agents, actions = list(contract.agents), list(contract.actions)
    if rng.random() < 0.4:
        del agents[rng.randrange(len(agents))]
    if rng.random() < 0.4:
        del actions[rng.randrange(len(actions))]
    if rng.random() < 0.3:  # not an identifier, an agent's name, a duplicate
        actions.append(rng.choice([Decl("9x", Span(2, 1, 2, 3)), *agents[:1], *actions[:1]]))
    if rng.random() < 0.2:
        actions.append(Decl("spare", Span(2, 5, 2, 10)))
    names = [d.name for d in contract.agents] + ["ghost"]
    self_pair = AgentPair(*[rng.choice(names)] * 2)
    spoilers = [
        Obligation(self_pair, "act1", Span(5, 1, 5, 12)),
        IterBox(AgentPair("a", "b"), "act2", (), False, False, Span(6, 1, 6, 9)),
        IterBox(AgentPair("b", "a"), "act3", (), True, True, Span(7, 1, 7, 9)),
        Prohibition(AgentPair("a", "ghost"), "nowhere", Span(8, 1, 8, 20)),
    ]
    clauses = list(contract.clauses)
    for spoiler in rng.sample(spoilers, rng.randint(0, len(spoilers))):
        where = rng.randrange(len(clauses))
        host = clauses[where]
        if isinstance(host, (Box, IterBox)) and rng.random() < 0.7:
            body = host.body[:1] + (spoiler,) + host.body[1:]
            if isinstance(host, Box):
                clauses[where] = Box(host.pair, host.action, body, host.span)
            else:
                clauses[where] = IterBox(host.pair, host.action, body, host.positive,
                                         host.starred, host.span)
        else:
            clauses.insert(where, spoiler)
    meta = Meta()
    if rng.random() < 0.5:
        meta.roles.update({"ghost": "buyer", names[0]: "not an id"})
        meta.states[(None, None, "nowhere")] = "S1"
        meta.funcs[("ghost", names[0], "act1")] = "f"
        meta.messages[(None, None, "act2")] = "any text"
        meta.inline += [(names[0], "ghost", "nowhere"), (None, None, "act1")]
    return Contract(tuple(agents), tuple(actions), tuple(clauses), meta)


def _deep(depth):
    """A chain of `depth` nested boxes ending in an undeclared action."""
    body = (Obligation(AgentPair("a", "b"), "zz", Span(9, 1, 9, 9)),)
    for i in range(depth):
        body = (Box(AgentPair("a", "b"), "x", body, Span(i + 1, 1, i + 1, 2)),
                IterBox(AgentPair("b", "a"), "y", (), i % 2 == 0, i % 3 == 0))
    return Contract((Decl("a"), Decl("b")), (Decl("x"), Decl("y")), body)


def _shared(counterparty):
    """A guard whose body holds one obligation object twice, which stands
    at the top level too, and one unstarred watch object twice, as no
    parse shares a node; the obligation is faulty unless `counterparty`
    is "b"."""
    ab = AgentPair("a", "b")
    twice = Obligation(AgentPair("a", counterparty), "x", Span(2, 3, 2, 9))
    watch = IterBox(ab, "y", (), False, False, Span(3, 1, 3, 5))
    guard = Box(ab, "x", (twice, twice, watch, watch), Span(1, 1, 1, 9))
    return Contract((Decl("a"), Decl("b")), (Decl("x"), Decl("y")), (guard, twice))


# permissions at the top level, in the body of a chain link, beside a
# nested box, and under a [!a]* watch; clean, then each one faulty
PERMITTED = (
    "agents a, b; actions x, y, z, w; {a,b}P(z); "
    "{a,b}[x]({b,a}O(y) & {a,b}P(z) & {b,a}[y]({a,b}O(w) & {b,a}P(x))); "
    "{a,b}[!w]*({b,a}P(y) & {a,b}F(z));",
    "agents a, b; actions x, y, z, w; {a,c}P(z); "
    "{a,b}[x]({b,a}O(y) & {b,b}P(z) & {b,a}[y]({a,b}O(w) & {b,a}P(q))); "
    "{a,b}[!w]*({b,a}P(nowhere) & {a,b}F(z));",
)


def _faults(contract):
    """Each clause fault `validate` tests with one combined check, with
    whether it sits at the top level or under a guard."""
    agents, actions = set(contract.agent_names()), set(contract.action_names())
    for clause, path in iter_clauses(contract):
        where = "nested" if ".body" in path else "top"
        performer, counterparty = clause.pair
        if performer in agents and counterparty not in agents:
            yield "only the counterparty undeclared", where
        if performer not in agents and counterparty in agents:
            yield "only the performer undeclared", where
        if performer == counterparty and performer in agents:
            yield "a self pair of a declared agent", where
        if isinstance(clause, IterBox) and clause.action not in actions:
            if not clause.starred:
                yield "an undeclared action on an unstarred watch", where
            if clause.positive:
                yield "an undeclared action on a positive watch", where


def test_validate_matches_the_reference():
    # issues, their messages, paths, spans and order, and every path
    # iter_clauses reports, against the walk that spelled out every path
    rng = random.Random(20261018)
    contracts = [random_contract(rng) for _ in range(80)]
    contracts += [merged_contract(rng, parts, max_events=12) for parts in (2, 3) * 15]
    contracts += [random_flow(rng) for _ in range(50)]
    contracts += [_spoiled(rng, c) for c in contracts]
    contracts += [_deep(depth) for depth in (1, 2, 7, 150)]
    contracts += [parsed(src) for src in (
        "agents a, a; actions a, b_; {a,a}[!a]({c,a}O(b));",
        "agents a, b; actions x, y, z; {a,b}[!z]*({b,a}F(x) & {a,b}[x]*({a,b}[!x]({b,b}O(y))));",
        *PERMITTED,
    )]
    contracts += [_shared("b"), _shared("c")]
    kinds = set()
    faults = set()
    laid_out = 0
    for contract in contracts:
        got = [(i.severity, i.message, i.path, i.span) for i in validate(contract)]
        want = [(i.severity, i.message, i.path, i.span) for i in reference_validate(contract)]
        assert got == want
        walked = list(reference_iter_clauses(contract))
        assert list(iter_clauses(contract)) == walked
        kinds.update(message.split("'")[0] for _severity, message, _path, _span in got)
        faults.update(_faults(contract))
        if any(severity == "error" for severity, _m, _p, _s in got):
            continue
        # the analysis' rows: each node of the walk once, in its order,
        # permissions included, with its enclosing guard's row
        rows = list(ContractSemantics(contract).clause_rows())
        row_of = {path: row for row, (_node, path) in enumerate(walked)}
        assert [row for row, _node, _up in rows] == list(range(len(walked)))
        assert all(node is clause for (_row, node, _up), (clause, _path)
                   in zip(rows, walked, strict=True))
        assert [up for _row, _node, up in rows] == [
            row_of.get(path.rpartition(".body[")[0], -1) for _clause, path in walked]
        laid_out += 1
    assert laid_out >= 150
    assert len(kinds) >= 16, sorted(kinds)
    # each part of the combined clause check fails alone somewhere, at the
    # top level and under a guard
    assert len(faults) == 10, sorted(faults)


BAD_NAMES = ("_a", "a-b", "\u00e9", "1a", "a\n", "", "a,b")


def _renamed(rng, contract):
    """`contract` with its declarations spoiled: a bad name, a name
    declared twice, or a name declared as both agent and action, each
    with a span, and each in some draws only."""
    agents, actions = list(contract.agents), list(contract.actions)
    for decls in (agents, actions):
        if rng.random() < 0.5:
            at = rng.randrange(len(decls) + 1)
            decls.insert(at, Decl(rng.choice(BAD_NAMES), Span(1, at + 1, 1, at + 2)))
        if rng.random() < 0.3:
            decls.append(Decl(rng.choice(decls).name, Span(3, 1, 3, 4)))
    if rng.random() < 0.3:
        actions.append(Decl(agents[0].name, Span(4, 1, 4, 2)))
    return Contract(tuple(agents), tuple(actions), contract.clauses, contract.meta)


def _annotated(rng, contract):
    """`contract` with one annotation of a random kind, good or bad, or
    with `inline` keys only, naming undeclared agents and actions in some
    draws."""
    agents, actions = contract.agent_names(), contract.action_names()
    meta = Meta()
    agent = rng.choice(agents + ["ghost"])
    action = rng.choice(actions + ["nowhere"])
    pair = rng.choice([(None, None), (agent, rng.choice(agents + ["nobody"]))])
    keyword = rng.choice([*ANNOTATIONS, "inline"])
    if keyword == "inline":
        meta.inline.append((*pair, action))
        if rng.random() < 0.5:
            meta.inline.append(("ghost", agent, rng.choice(actions)))
    else:
        table, names, _text = ANNOTATIONS[keyword]
        key = agent if names == "agent" else (*pair, action)
        if names == "flag":
            key = "someFlag"
        getattr(meta, table)[key] = rng.choice(["goodName", "not an id", "9lives", ""])
    return Contract(contract.agents, contract.actions, contract.clauses, meta)


def test_validate_matches_the_one_walk_reference():
    # issues, with their severity, message, path, span and order, against
    # the validate that matched each name alone and scanned every table
    rng = random.Random(20261024)
    contracts = [random_contract(rng) for _ in range(60)]
    contracts += [random_flow(rng) for _ in range(30)]
    contracts += [_renamed(rng, c) for c in contracts[:60]]
    contracts += [_annotated(rng, c) for c in contracts[:90] for _ in range(2)]
    contracts += [_annotated(rng, _renamed(rng, c)) for c in contracts[:40]]
    contracts += [_spoiled(rng, c) for c in contracts[:40]]
    contracts += [Contract((Decl(name), Decl("b")), (Decl("x"), Decl(name)), (), Meta())
                  for name in BAD_NAMES]
    contracts += [parsed(open(f"fixtures/{name}.rcl").read())
                  for name in ("purchase_conflicted", "purchase_fixed")]
    contracts += [parsed(src) for src in PERMITTED] + [_shared("b"), _shared("c")]
    kinds, drawn = set(), set()
    for contract in contracts:
        got = [(i.severity, i.message, i.path, i.span) for i in validate(contract)]
        want = [(i.severity, i.message, i.path, i.span)
                for i in reference_walk_validate(contract)]
        assert got == want
        kinds.update(message.split("'")[0] for _severity, message, _path, _span in got)
        meta = contract.meta
        drawn.update(k for k, (table, _n, _t) in ANNOTATIONS.items() if getattr(meta, table))
        if meta.inline and not any(getattr(meta, table) for table, _n, _t in ANNOTATIONS.values()):
            drawn.add("inline only")
    assert drawn == {*ANNOTATIONS, "inline only"}
    for kind in ("invalid agent identifier ", "invalid action identifier ",
                 "duplicate agent ", "duplicate action ", "names used as both agent and action: ",
                 "annotation refers to undeclared agent ", "role annotation value ",
                 "func annotation refers to undeclared action ",
                 "inline annotation refers to undeclared action ",
                 "inline annotation refers to undeclared agent "):
        assert kind in kinds, kind
