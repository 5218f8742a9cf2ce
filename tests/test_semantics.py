"""State derivation, stepping, reachability, and the set-state property."""

import random
from dataclasses import replace
from unittest import mock

import pytest

from rclc.ast import AgentPair, pretty_print
from rclc.parser import parse_contract
from rclc.semantics import (
    ContractSemantics,
    StepError,
    clashes,
    dump_lts,
    enumerate_reachable,
    event_universe,
    fired_sets,
    initial_state,
    lts_to_dot,
)

from contractgen import merged_contract, random_contract
from reference import reference_dump_lts, reference_state

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
    state = initial_state(parsed("agents a, b; actions x; {a,b}O(x);"))
    assert norm_keys(state.active) == {("O", "a", "b", "x")}
    assert not state.pending_boxes


def test_initial_state_guarded_obligation():
    state = initial_state(parsed("agents a, b; actions x, y; {a,b}[x]({a,b}O(y));"))
    assert state.active == frozenset()
    assert len(state.pending_boxes) == 1
    (event, _body), = state.pending_boxes
    assert event == (pair("a", "b"), "x")


def test_initial_state_purchase_fixture():
    state = initial_state(parsed(FIXTURE))
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


def test_enumerate_two_state_lts():
    lts = enumerate_reachable(parsed("agents a, b; actions x; {a,b}O(x);"))
    assert len(lts.states) == 2
    assert len(lts.transitions) == 1
    assert lts.initial.fired == frozenset()


def test_fired_sets_order_by_size_then_event_index():
    assert list(fired_sets(("e0", "e1", "e2"))) == [
        (),
        ("e0",), ("e1",), ("e2",),
        ("e0", "e1"), ("e0", "e2"), ("e1", "e2"),
        ("e0", "e1", "e2"),
    ]
    assert list(fired_sets(())) == [()]


def test_enumerate_visits_subset_lattice():
    lts = enumerate_reachable(
        parsed("agents a, b; actions x, y; {a,b}O(x); {b,a}F(y);")
    )
    assert len(lts.states) == 2 ** 2
    assert len(lts.transitions) == 2 * 2 ** 1
    assert [s.fired for s in lts.states] == [
        frozenset(fired) for fired in fired_sets(lts.universe)
    ]


def test_transitions_grow_fired_by_one():
    lts = enumerate_reachable(
        parsed("agents a, b; actions x, y; {a,b}[x]({b,a}O(y));")
    )
    for src, event, dst in lts.transitions:
        fired_src = lts.states[src].fired
        fired_dst = lts.states[dst].fired
        assert event not in fired_src
        assert fired_dst == fired_src | {event}


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
    state = initial_state(contract)
    after = ContractSemantics(contract).step(state, (pair("a", "b"), "x"))
    assert after.active == frozenset()


def test_dump_is_deterministic_and_complete():
    contract = parsed("agents a, b; actions x, y; {a,b}[x]({b,a}O(y)); {a,b}F(x);")
    lts = enumerate_reachable(contract)
    text = dump_lts(lts)
    assert text == dump_lts(enumerate_reachable(contract))
    assert text.startswith("lts states=4 transitions=4 events=2")
    assert "F {a,b} x" in text
    assert "box {a,b} x" in text
    assert text.count("state ") == 4


def test_dot_output_shape():
    lts = enumerate_reachable(parsed("agents a, b; actions x; {a,b}O(x);"))
    dot = lts_to_dot(lts)
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
        for ob, forbid in clashes(initial_state(contract))
    ]
    assert found == [
        ((2, 1), (2, 12)), ((3, 12), (2, 12)),
        ((2, 1), (3, 1)), ((3, 12), (3, 1)),
    ]
    assert clashes(ContractSemantics(contract).state(frozenset({(pair("a", "b"), "x")}))) == []


def test_conflicting_state_is_highlighted_in_dot():
    lts = enumerate_reachable(parsed("agents a, b; actions x; {a,b}O(x); {a,b}F(x);"))
    assert "fillcolor" in lts_to_dot(lts)


def test_semantics_rejects_invalid_contract():
    result = parse_contract("agents a, b; actions x; {a,c}O(x);")
    assert result.ok
    with pytest.raises(ValueError):
        ContractSemantics(result.contract)


def test_state_matches_the_reference_derivation():
    # every fired set of contracts of up to 10 events; a frozenset of
    # pending boxes or watches collapses the ones written twice verbatim,
    # as in the doubled contracts
    rng = random.Random(20261018)
    contracts = [random_contract(rng) for _ in range(15)]
    contracts += [merged_contract(rng, parts, max_events=10) for parts in (2, 3) * 8]
    contracts += [replace(c, clauses=c.clauses * 2) for c in contracts[::4]]
    contracts += [parsed(pretty_print(c)) for c in contracts[::3]]
    for contract in contracts:
        fast = enumerate_reachable(contract)
        with mock.patch.object(ContractSemantics, "state", reference_state):
            slow = enumerate_reachable(contract)
        for new, old in zip(fast.states, slow.states, strict=True):
            assert new.fired == old.fired
            assert new.active == old.active
            assert set(new.pending_boxes) == old.pending_boxes
            assert set(new.iter_watch) == old.iter_watch
        assert dump_lts(fast) == reference_dump_lts(slow)
        assert lts_to_dot(fast) == lts_to_dot(slow)
