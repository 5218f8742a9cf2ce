"""State derivation, stepping, reachability, and the set-state property."""

import os
import random
import tracemalloc
from unittest import mock

import pytest

from rclc.ast import (
    AgentPair,
    Box,
    Contract,
    Decl,
    IterBox,
    Obligation,
    Prohibition,
    Span,
    iter_clauses,
    pretty_print,
)
from rclc.checker import check
from rclc.lts import clashes, dump_lts, fired_sets, lts_to_dot
from rclc.parser import parse_contract
from rclc.semantics import ContractSemantics, Norm, NormState, StepError, event_universe

from contractgen import (
    PERMISSION_POSITIONS,
    merged_contract,
    permission_positions,
    random_contract,
    random_flow,
    random_lowerable,
)
from reference import (
    reference_condition,
    reference_dump_lts,
    reference_enumerate_reachable,
    reference_lts_to_dot,
    reference_event_universe,
    reference_path_conditions,
    reference_stack_state,
    reference_state,
)

FIXTURE = open("fixtures/purchase_conflicted.rcl").read()


def parsed(src):
    result = parse_contract(src)
    assert result.ok, [str(e) for e in result.errors]
    return result.contract


def pair(x, y):
    return AgentPair(x, y)


def norm_keys(norms):
    return {(n.kind, n.pair.performer, n.pair.counterparty, n.action) for n in norms}


def test_initial_state_bare_obligation():
    state = ContractSemantics(parsed("agents a, b; actions x; {a,b}O(x);")).initial_state()
    assert norm_keys(state.active) == {("O", "a", "b", "x")}
    assert not state.pending_boxes


def test_initial_state_guarded_obligation():
    sem = ContractSemantics(parsed("agents a, b; actions x, y; {a,b}[x]({a,b}O(y));"))
    state = sem.initial_state()
    assert state.active == frozenset()
    assert len(state.pending_boxes) == 1
    (event, _body), = state.pending_boxes
    assert event == (pair("a", "b"), "x")


def test_initial_state_purchase_fixture():
    state = ContractSemantics(parsed(FIXTURE)).initial_state()
    # the three house rules are in force from the start
    assert norm_keys(state.active) == {
        ("F", "k", "s", "payProduct"),
        ("F", "k", "c", "payShippingCosts"),
        ("F", "c", "b", "deliverProduct"),
    }
    pending = {event for event, _ in state.pending_boxes}
    assert pending == {(pair("b", "s"), "buyProduct")}
    assert len(state.iter_watch) == 3


def test_step_unfolds_box():
    contract = parsed(FIXTURE)
    sem = ContractSemantics(contract)
    after = sem.step(sem.initial_state(), (pair("b", "s"), "buyProduct"))
    assert ("O", "b", "k", "payProduct") in norm_keys(after.active)
    assert (pair("b", "k"), "payProduct") in {e for e, _ in after.pending_boxes}


def test_step_frame_rule():
    contract = parsed("agents a, b; actions x, y; {a,b}O(x); {a,b}[y]({b,a}O(x));")
    sem = ContractSemantics(contract)
    s0 = sem.initial_state()
    # x discharges nothing related to the pending box; fired just grows
    s1 = sem.step(s0, (pair("a", "b"), "x"))
    assert s1.fired == {(pair("a", "b"), "x")}
    assert s1.pending_boxes == s0.pending_boxes


def test_step_rejects_replay():
    sem = ContractSemantics(parsed("agents a, b; actions x; {a,b}O(x);"))
    s1 = sem.step(sem.initial_state(), (pair("a", "b"), "x"))
    with pytest.raises(StepError):
        sem.step(s1, (pair("a", "b"), "x"))


def test_step_rejects_unknown_event():
    sem = ContractSemantics(parsed("agents a, b; actions x; {a,b}O(x);"))
    with pytest.raises(StepError):
        sem.step(sem.initial_state(), (pair("b", "a"), "x"))


def test_obligation_discharge_is_pair_exact():
    contract = parsed("agents a, b; actions x; {a,b}O(x) & {b,a}O(x);")
    sem = ContractSemantics(contract)
    after = sem.step(sem.initial_state(), (pair("a", "b"), "x"))
    assert norm_keys(after.active) == {("O", "b", "a", "x")}


def test_prohibition_lapses_on_action_by_any_pair():
    contract = parsed("agents a, b, c; actions x; {a,b}F(x) & {c,a}O(x);")
    sem = ContractSemantics(contract)
    after = sem.step(sem.initial_state(), (pair("c", "a"), "x"))
    assert norm_keys(after.active) == set()


def test_negative_watch_retires_body():
    contract = parsed("agents a, b; actions x, y; {a,b}[!y]*({a,b}F(x));")
    sem = ContractSemantics(contract)
    s0 = sem.initial_state()
    assert norm_keys(s0.active) == {("F", "a", "b", "x")}
    assert len(s0.iter_watch) == 1
    s1 = sem.step(s0, (pair("a", "b"), "y"))
    assert s1.active == frozenset()
    assert s1.iter_watch == ()


def test_positive_watch_activates_body():
    contract = parsed("agents a, b; actions x, y; {a,b}[y]*({a,b}O(x));")
    sem = ContractSemantics(contract)
    s0 = sem.initial_state()
    assert s0.active == frozenset()
    s1 = sem.step(s0, (pair("a", "b"), "y"))
    assert norm_keys(s1.active) == {("O", "a", "b", "x")}


def test_event_universe_counts_every_position():
    contract = parsed(FIXTURE)
    assert len(event_universe(contract)) == 13


def dumped(contract):
    return "".join(dump_lts(ContractSemantics(contract)))


def test_enumerate_two_state_lts():
    assert dumped(parsed("agents a, b; actions x; {a,b}O(x);")) == (
        "lts states=2 transitions=1 events=1\n"
        "events\n  e0 {a,b} x\n"
        "state 0 fired={}\n  O {a,b} x\n"
        "state 1 fired={e0}\n"
        "transitions\n  0 e0 1\n"
    )


def test_fired_sets_order_by_size_then_event_index():
    assert list(fired_sets(("e0", "e1", "e2"))) == [
        (),
        ("e0",), ("e1",), ("e2",),
        ("e0", "e1"), ("e0", "e2"), ("e1", "e2"),
        ("e0", "e1", "e2"),
    ]
    assert list(fired_sets(())) == [()]


def test_enumerate_visits_subset_lattice():
    text = dumped(parsed("agents a, b; actions x, y; {a,b}O(x); {b,a}F(y);"))
    assert text.startswith(f"lts states={2 ** 2} transitions={2 * 2 ** 1} events=2\n")
    assert [line for line in text.splitlines() if line.startswith("state ")] == [
        f"state {i} fired={{{','.join(fired)}}}"
        for i, fired in enumerate(fired_sets(("e0", "e1")))
    ]


def test_transitions_grow_fired_by_one():
    # each state has one edge per unfired event, in event order, to the
    # state that adds that event; over 0 to 7 events
    for n in range(8):
        clauses = "".join(f"{{a,b}}[x{i}](" for i in range(n)) + "{a,b}P(y)" + ")" * n
        actions = ", ".join([f"x{i}" for i in range(n)] + ["y"])
        text = dumped(parsed(f"agents a, b; actions {actions}; {clauses};"))
        fired = [
            frozenset(line.split("fired={")[1].rstrip("}").split(",")) - {""}
            for line in text.splitlines() if line.startswith("state ")
        ]
        assert len(fired) == 2 ** (n + 1)
        names = [f"e{i}" for i in range(n + 1)]
        want = [
            f"  {src} {name} {fired.index(before | {name})}"
            for src, before in enumerate(fired)
            for name in names if name not in before
        ]
        assert text.split("transitions\n")[1].splitlines() == want


def test_state_is_function_of_fired_set():
    rng = random.Random(99)
    for _ in range(80):
        contract = parsed(pretty_print(random_contract(rng)))
        sem = ContractSemantics(contract)
        events = list(sem.universe)
        size = rng.randint(0, len(events))
        subset = rng.sample(events, size)
        orders = [list(subset), list(subset)]
        rng.shuffle(orders[0])
        rng.shuffle(orders[1])
        outcomes = []
        for order in orders:
            state = sem.initial_state()
            for event in order:
                state = sem.step(state, event)
            outcomes.append(state)
        assert outcomes[0] == outcomes[1]


def test_confluence_of_enabled_pairs():
    contract = parsed(FIXTURE)
    sem = ContractSemantics(contract)
    s0 = sem.initial_state()
    events = sem.universe
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            one = sem.step(sem.step(s0, events[i]), events[j])
            other = sem.step(sem.step(s0, events[j]), events[i])
            assert one == other


def test_state_steps_under_any_semantics_of_its_contract():
    contract = parsed("agents a, b; actions x; {a,b}O(x);")
    state = ContractSemantics(contract).initial_state()
    after = ContractSemantics(contract).step(state, (pair("a", "b"), "x"))
    assert after.active == frozenset()


def test_dump_is_deterministic_and_complete():
    contract = parsed("agents a, b; actions x, y; {a,b}[x]({b,a}O(y)); {a,b}F(x);")
    text = dumped(contract)
    assert text == dumped(contract)
    assert text.startswith("lts states=4 transitions=4 events=2")
    assert "F {a,b} x" in text
    assert "box {a,b} x" in text
    assert text.count("state ") == 4


def test_dot_output_shape():
    dot = "".join(lts_to_dot(ContractSemantics(parsed("agents a, b; actions x; {a,b}O(x);"))))
    assert dot.startswith("digraph")
    assert "s0 -> s1" in dot


def test_clashes_order_by_prohibition_then_obligation_origin():
    contract = parsed(
        "agents a, b; actions x, y;\n"
        "{a,b}O(x); {a,b}F(x);\n"
        "{a,b}F(x); {a,b}O(x); {b,a}O(x); {a,b}F(y);\n"
    )
    found = [
        ((ob.origin.line, ob.origin.col), (forbid.origin.line, forbid.origin.col))
        for ob, forbid in clashes(ContractSemantics(contract).initial_state())
    ]
    assert found == [
        ((2, 1), (2, 12)), ((3, 12), (2, 12)),
        ((2, 1), (3, 1)), ((3, 12), (3, 1)),
    ]
    assert clashes(ContractSemantics(contract).state(frozenset({(pair("a", "b"), "x")}))) == []


def test_conflicting_state_is_highlighted_in_dot():
    sem = ContractSemantics(parsed("agents a, b; actions x; {a,b}O(x); {a,b}F(x);"))
    assert "fillcolor" in "".join(lts_to_dot(sem))


def test_dump_memory_stays_bounded_by_a_size_level():
    # the conflicted fixture's 8192 states, written out and discarded,
    # peak at about 0.42 MB in either format; the whole lattice takes over 20
    sem = ContractSemantics(parsed(FIXTURE))
    for printer in (dump_lts, lts_to_dot):
        with open(os.devnull, "w") as discard:
            tracemalloc.start()
            try:
                discard.writelines(printer(sem))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000, (printer.__name__, peak)


def test_semantics_rejects_invalid_contract():
    result = parse_contract("agents a, b; actions x; {a,c}O(x);")
    assert result.ok
    with pytest.raises(ValueError):
        ContractSemantics(result.contract)


WRITTEN_TWICE = """agents a, b, c; actions x, y, z;
{a,b}P(x) & {a,b}[x]({b,a}O(y) & {a,b}P(y)) & {a,b}[x]({b,a}O(y) & {a,b}P(y));
{a,b}[!y]*({c,a}F(z) & {a,b}[z]*({b,c}O(x) & {a,c}P(z)) & {a,b}[z]*({b,c}O(x) & {a,c}P(z)));
{b,c}[z]*({a,b}F(x) & {b,a}[!x]*({c,b}O(z) & {a,b}[x]({b,a}O(y) & {a,b}P(y))));
{a,b}[x]({b,a}O(y) & {a,b}P(y));
"""


def test_state_matches_the_reference_derivation():
    # every fired set of contracts of up to 10 events; a frozenset of
    # pending boxes or watches collapses the ones written twice verbatim,
    # as in the doubled contracts, while the stack walk keeps walk order
    rng = random.Random(20261018)
    contracts = [random_contract(rng) for _ in range(15)]
    contracts += [merged_contract(rng, parts, max_events=10) for parts in (2, 3) * 8]
    contracts += [Contract(c.agents, c.actions, c.clauses * 2, c.meta) for c in contracts[::4]]
    contracts += [parsed(pretty_print(c)) for c in contracts[::3]]
    contracts += [parsed(WRITTEN_TWICE), parsed(FIXTURE)]
    positions = set()
    for contract in contracts:
        positions |= permission_positions(contract)
        sem = ContractSemantics(contract)
        fast = [sem.state(frozenset(fired)) for fired in fired_sets(sem.universe)]
        with mock.patch.object(ContractSemantics, "state", reference_state):
            slow = reference_enumerate_reachable(ContractSemantics(contract))
        with mock.patch.object(ContractSemantics, "state", reference_stack_state):
            walked = reference_enumerate_reachable(ContractSemantics(contract))
        for new, old, walk in zip(fast, slow.states, walked.states, strict=True):
            assert new.fired == old.fired
            assert new.active == old.active
            assert set(new.pending_boxes) == old.pending_boxes
            assert set(new.iter_watch) == old.iter_watch
            assert type(new.pending_boxes) is type(new.iter_watch) is tuple
            assert new.fired == walk.fired
            assert new.active == walk.active
            assert new.pending_boxes == walk.pending_boxes
            assert new.iter_watch == walk.iter_watch
        assert "".join(dump_lts(sem)) == reference_dump_lts(slow)
        assert "".join(lts_to_dot(sem)) == reference_lts_to_dot(slow)
    assert positions == PERMISSION_POSITIONS


def test_derivations_share_prebuilt_norms():
    # a norm is built once per contract, not once per derived state
    sem = ContractSemantics(parsed(WRITTEN_TWICE))
    first = sem.initial_state()
    second = sem.state(frozenset({(pair("a", "b"), "x")}))
    by_value = {norm: norm for norm in first.active}
    shared = [norm for norm in second.active if norm in by_value]
    assert shared
    assert all(by_value[norm] is norm for norm in shared)


def deep_box_chain():
    """3000 nested boxes over 3 actions, deeper than the recursion limit,
    beside a clashing obligation and prohibition."""
    ab = pair("a", "b")
    actions = ("x", "y", "z")
    body = (Obligation(ab, "x", Span(3001, 1, 3001, 9)),)
    for depth in reversed(range(3000)):
        body = (Box(ab, actions[depth % 3], body, Span(depth + 1, 1, depth + 1, 6)),)
    clauses = body + (
        Obligation(ab, "y", Span(3002, 1, 3002, 9)),
        Prohibition(ab, "y", Span(3003, 1, 3003, 9)),
    )
    return Contract((Decl("a"), Decl("b")), tuple(map(Decl, actions)), clauses)


def test_conditions_and_universe_match_the_reference_walks():
    # the clause table's one walk against the two walks it replaced; each
    # condition's chain and bitmasks read back as the walk's sets, and its
    # `done` holds exactly the watched actions its chain's events perform
    rng = random.Random(20261019)
    contracts = [random_contract(rng) for _ in range(40)]
    contracts += [merged_contract(rng, parts, max_events=12) for parts in (2, 3) * 10]
    contracts += [random_lowerable(rng) for _ in range(20)]
    contracts += [random_flow(rng) for _ in range(20)]
    contracts += [parsed(pretty_print(c)) for c in contracts[::2]]
    contracts += [parsed(open(f"fixtures/{name}.rcl").read())
                  for name in ("purchase_conflicted", "purchase_fixed")]
    contracts += [parsed(WRITTEN_TWICE), deep_box_chain()]
    positions = set()
    for contract in contracts:
        positions |= permission_positions(contract)
        sem = ContractSemantics(contract)
        universe = reference_event_universe(contract)
        assert sem.universe == event_universe(contract) == universe
        conditions = list(sem.conditions())
        watched = sem.watched
        assert [(norm, reference_condition(watched, cond)) for norm, cond in conditions] \
            == reference_path_conditions(contract, universe)
        for _norm, cond in conditions:
            need = reference_condition(watched, cond)[0]
            performed = {universe[i][1] for i in need}
            assert cond[3] == sum(bit for action, bit in watched.items() if action in performed)
        # the watched actions are those a prohibition or a watch names
        assert set(watched) == {clause.action for clause, _path in iter_clauses(contract)
                                if type(clause) in (Prohibition, IterBox)}
        assert sorted(watched.values()) == [1 << i for i in range(len(watched))]
        # one per obligation and prohibition, in source order: no permission
        assert [norm.kind for norm, _cond in conditions] == [
            {Obligation: "O", Prohibition: "F"}[type(clause)]
            for clause, _path in iter_clauses(contract)
            if type(clause) in (Obligation, Prohibition)]
    assert positions == PERMISSION_POSITIONS


def test_conditions_follow_source_order():
    # the clause table lays its rows out in source pre-order, so on a
    # parsed contract its norms come in the order of their spans
    for name in ("purchase_conflicted", "purchase_fixed"):
        sem = ContractSemantics(parsed(open(f"fixtures/{name}.rcl").read()))
        spans = [(norm.origin.line, norm.origin.col) for norm in _norms(sem)]
        assert len(spans) > 10 and spans == sorted(spans)


def test_deep_box_chain_derives_steps_and_checks():
    # deeper than the recursion limit: every walk keeps its own stack
    ab = pair("a", "b")
    contract = deep_box_chain()
    sem = ContractSemantics(contract)
    start = sem.state(frozenset())
    assert [event for event, _body in start.pending_boxes] == [(ab, "x")]
    state = start
    for event in sem.universe:
        state = sem.step(state, event)
    assert state.fired == frozenset(sem.universe)
    assert state.active == frozenset() and state.pending_boxes == ()
    report = check(contract)
    assert [(c.action, c.witness) for c in report.conflicts] == [("y", ())]


def test_norm_prints_and_compares_as_a_tuple():
    norm = Norm("F", pair("a", "b"), "x", Span(2, 3, 2, 12))
    assert str(norm) == "F {a,b} x"
    assert norm == ("F", ("a", "b"), "x", (2, 3, 2, 12))
    assert hash(norm) == hash(("F", ("a", "b"), "x", (2, 3, 2, 12)))
    state = ContractSemantics(parsed("agents a, b; actions x; {a,b}O(x);")).initial_state()
    assert state == (frozenset(), state.active, (), ()) and len(state.active) == 1
    assert type(state) is NormState and state == NormState(*state)


def _fold_steps(sem, events):
    state = sem.initial_state()
    for event in events:
        state = sem.step(state, event)
    return state


def _step_error(run):
    with pytest.raises(StepError) as caught:
        run()
    return str(caught.value)


def _norms(sem):
    return [norm for norm, _cond in sem.conditions()]


def test_admit_and_holds_agree_with_the_stepper():
    # `admit` makes the stepper's checks and gives the fired set as event
    # indices and actions; `holds` then gives each norm's verdict in the
    # state the stepper reaches, and in the stack walk's; a sequence the
    # stepper refuses is refused with the stepper's message
    rng = random.Random(20261020)
    contracts = [random_contract(rng) for _ in range(25)]
    contracts += [merged_contract(rng, parts, max_events=10) for parts in (2, 3) * 4]
    contracts += [random_lowerable(rng) for _ in range(10)]
    contracts += [random_flow(rng) for _ in range(10)]
    contracts += [parsed(open(f"fixtures/{name}.rcl").read())
                  for name in ("purchase_conflicted", "purchase_fixed")]
    contracts += [parsed(WRITTEN_TWICE)]
    unheard = (pair("nobody", "nowhere"), "nothing")
    for contract in contracts:
        sem = ContractSemantics(contract)
        norms = _norms(sem)
        for _ in range(6):
            events = rng.sample(sem.universe, rng.randint(0, len(sem.universe)))
            folded = _fold_steps(sem, events)
            walked = reference_stack_state(sem, frozenset(events))
            fired = sem.admit(events)
            assert fired == ({sem.universe.index(e) for e in events},
                             {action for _pair, action in events})
            assert sem.admit(iter(events)) == fired
            for norm in norms:
                assert sem.holds(norm, fired) == (norm in folded.active) == (norm in walked.active)
            at = rng.randint(0, len(events))
            refused = [events[:at] + [unheard] + events[at:]]
            if events:
                refused.append(events[:at] + [rng.choice(events)] + events[at:])
            for bad in refused:
                message = _step_error(lambda: sem.admit(bad))
                assert message == _step_error(lambda: _fold_steps(sem, bad))
        assert _step_error(lambda: sem.admit([unheard])) == (
            "event {nobody,nowhere} nothing does not resolve")
        if sem.universe:
            twice = [sem.universe[0]] * 2
            assert _step_error(lambda: sem.admit(twice)).endswith(" already fired")


def test_holds_agrees_with_state_on_every_fired_set():
    # the guard test against `norm in state(F).active`, for every norm of
    # every contract, at every fired set F: rows with a unique origin, and
    # rows sharing one (random contracts carry no spans, and a contract
    # written twice repeats its norms under other guards)
    rng = random.Random(20261021)
    contracts = [random_contract(rng, max_events=8) for _ in range(30)]
    contracts += [merged_contract(rng, parts, max_events=8) for parts in (2, 3) * 5]
    contracts += [random_flow(rng) for _ in range(10)]
    contracts += [parsed(pretty_print(c)) for c in contracts[::2]]
    contracts += [Contract(c.agents, c.actions, c.clauses * 2, c.meta) for c in contracts[::5]]
    contracts += [parsed(WRITTEN_TWICE)]
    unique = shared = 0
    for contract in contracts:
        sem = ContractSemantics(contract)
        if len(sem.universe) > 8:
            continue
        norms = _norms(sem)
        origins = [norm.origin for norm in norms]
        unique += sum(origins.count(norm.origin) == 1 for norm in norms)
        shared += sum(norms.count(norm) > 1 for norm in norms)
        for events in fired_sets(sem.universe):
            active = sem.state(frozenset(events)).active
            fired = sem.admit(events)
            for norm in set(norms):
                assert sem.holds(norm, fired) == (norm in active), (contract, events, norm)
        stranger = Norm("O", pair("a", "z"), "nowhere", Span(1, 1, 1, 1))
        assert not sem.holds(stranger, sem.admit(()))
    assert unique > 50 and shared > 100, (unique, shared)
