"""Conflict search versus the exhaustive oracle, plus report rendering."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclc.ast import (
    AgentPair,
    Box,
    Contract,
    Decl,
    Obligation,
    Prohibition,
    Span,
    iter_clauses,
    pretty_print,
)
from rclc.parser import parse_contract
from rclc.checker import (
    ORACLE_EVENT_BOUND,
    CheckReport,
    CheckStats,
    brute_force_oracle,
    check,
    report_to_json,
    report_to_text,
)
from rclc.codegen import lower
from rclc.lts import clashes, dump_lts, fired_sets
from rclc.oracle import _oracle_active, _oracle_universe
from rclc.semantics import ContractSemantics

from contractgen import (
    PERMISSION_POSITIONS,
    deep_flow,
    merged_contract,
    permission_positions,
    random_clashing,
    random_contract,
    random_lowerable,
)
from reference import reference_check

CONFLICTED = open("fixtures/purchase_conflicted.rcl").read()
FIXED = open("fixtures/purchase_fixed.rcl").read()

DELIVER_CHAIN = """
agents b, s, k, c;
actions buyProduct, payProduct, notifyProductPayment, sendProduct,
        payShippingCosts, deliverProduct;
{b,s}[buyProduct](
    {b,k}O(payProduct) &
    {b,k}[payProduct](
        {k,s}O(notifyProductPayment) &
        {k,s}[notifyProductPayment](
            {s,c}O(sendProduct) &
            {s,c}[sendProduct]({c,b}O(deliverProduct)))));
{s,c}[!payShippingCosts]*({c,b}F(deliverProduct));
"""


def parsed(src):
    result = parse_contract(src)
    assert result.ok, [str(e) for e in result.errors]
    return result.contract


def keys(conflicts):
    return {((c.pair.performer, c.pair.counterparty), c.action) for c in conflicts}


def oracle_keys(found):
    return {((p.performer, p.counterparty), a) for p, a in found}


def test_unconditional_clash_reports_empty_witness():
    report = check(parsed("agents a, b; actions x; {a,b}O(x); {a,b}F(x);"))
    assert keys(report.conflicts) == {(("a", "b"), "x")}
    assert report.conflicts[0].witness == ()


def test_guard_handoff_is_clean():
    src = "agents a, b; actions x, y; {a,b}[y]({a,b}O(x)); {a,b}[!y]*({a,b}F(x));"
    report = check(parsed(src))
    assert report.conflicts == ()
    assert brute_force_oracle(parsed(src)) == set()


def test_deliver_chain_single_conflict():
    contract = parsed(DELIVER_CHAIN)
    report = check(contract)
    assert keys(report.conflicts) == {(("c", "b"), "deliverProduct")}
    assert oracle_keys(brute_force_oracle(contract)) == {
        (("c", "b"), "deliverProduct")
    }


def test_purchase_fixture_one_conflict_class():
    report = check(parsed(CONFLICTED))
    assert keys(report.conflicts) == {(("c", "b"), "deliverProduct")}
    conflict = report.conflicts[0]
    assert len(conflict.witness) == 4
    assert {a for _p, a in conflict.witness} == {
        "buyProduct", "payProduct", "notifyProductPayment", "sendProduct"
    }
    assert report.stats.states == 8192
    assert report.stats.transitions == 53248


def test_fixed_fixture_is_clean():
    report = check(parsed(FIXED))
    assert report.conflicts == ()
    assert report.ok
    assert report.stats.states == 4096
    assert report.stats.transitions == 24576


def test_witness_ties_break_by_event_order():
    # either {a,b} x or {b,a} x arms the prohibition; {a,b} x comes first
    # in the event universe
    contract = parsed(
        "agents a, b; actions x, y; {a,b}O(y); {b,a}P(x); {a,b}[x]*({a,b}F(y));"
    )
    (conflict,) = check(contract).conflicts
    assert [(str(p), a) for p, a in conflict.witness] == [("{a,b}", "x")]
    assert _oracle_first_witnesses(contract) == {
        (conflict.pair, "y"): conflict.witness
    }


def test_watch_is_met_by_the_lowest_index_event_with_its_action():
    # {b,a}[x]* is met by x performed by any pair; {a,b} x comes first in
    # the event universe, so it is chosen over the watch's own event
    contract = parsed(
        "agents a, b; actions x, y; {a,b}O(y); {a,b}P(x); {b,a}[x]*({a,b}F(y));"
    )
    (conflict,) = check(contract).conflicts
    assert [(str(p), a) for p, a in conflict.witness] == [("{a,b}", "x")]
    # a guard that already performs x meets the watch; nothing is added
    contract = parsed(
        "agents a, b; actions x, y; {a,b}O(y); {a,b}P(x);"
        " {b,a}[x]({a,b}[x]*({a,b}F(y)));"
    )
    (conflict,) = check(contract).conflicts
    assert [(str(p), a) for p, a in conflict.witness] == [("{b,a}", "x")]


def test_occurrences_sharing_an_origin_report_the_least_witness():
    # hand-built clauses share one span, so both prohibitions are one
    # norm, in force once g0 or g1 fires; g0 comes first in either order
    span = Span(1, 1, 1, 1)
    ab = AgentPair("a", "b")
    guarded = [Box(ab, g, (Prohibition(ab, "y", span),), span) for g in ("g0", "g1")]
    for boxes in (guarded, guarded[::-1]):
        contract = Contract(
            (Decl("a", span), Decl("b", span)),
            tuple(Decl(name, span) for name in ("g0", "g1", "y")),
            (Obligation(ab, "y", span), *boxes),
        )
        (conflict,) = check(contract).conflicts
        assert conflict.witness == ((ab, "g0"),)


def test_clashes_sharing_a_witness_follow_clash_order():
    # four clashes at the initial state, by prohibition origin, then
    # obligation origin; obligation first would give (2, 3), (4, 3), ...
    contract = parsed(
        "agents a, b; actions x;\n{a,b}F(x);\n{a,b}O(x);\n{a,b}F(x);\n{a,b}O(x);\n"
    )
    report = check(contract)
    assert [(c.prohibition.origin.line, c.obligation.origin.line)
            for c in report.conflicts] == [(2, 3), (2, 5), (4, 3), (4, 5)]
    assert all(c.witness == () for c in report.conflicts)


def test_witness_replays_to_conflicting_state():
    contract = parsed(CONFLICTED)
    conflict = check(contract).conflicts[0]
    sem = ContractSemantics(contract)
    state = sem.initial_state()
    for event in conflict.witness:
        state = sem.step(state, event)
    assert conflict.obligation in state.active
    assert conflict.prohibition in state.active


def dense_conflicts(n):
    """n obligations and n prohibitions on one (pair, action), each behind
    its own guard box: n * n conflicts, each with its own witness."""
    guards = [f"g{i}" for i in range(n)] + [f"h{i}" for i in range(n)]
    return parsed(
        "agents a, b;\nactions x, " + ", ".join(guards) + ";\n"
        + "".join(f"{{a,b}}[g{i}]({{a,b}}O(x));\n" for i in range(n))
        + "".join(f"{{a,b}}[h{i}]({{a,b}}F(x));\n" for i in range(n))
    )


def test_check_derives_no_state():
    # each distinct witness is admitted once, and each clashing norm is
    # tested against it through its guards; no state is derived
    real_admit = ContractSemantics.admit
    admitted = []

    def counted(self, events):
        admitted.append(frozenset(events))
        return real_admit(self, events)

    def no_state(self, fired):
        raise AssertionError("check derived a state")

    def no_step(self, state, event):
        raise AssertionError("check called step")

    for contract, n_witnesses in ((parsed(CONFLICTED), 1), (dense_conflicts(10), 100)):
        admitted.clear()
        with mock.patch.object(ContractSemantics, "admit", counted), \
                mock.patch.object(ContractSemantics, "state", no_state), \
                mock.patch.object(ContractSemantics, "step", no_step):
            report = check(contract)
        witnesses = {frozenset(c.witness) for c in report.conflicts}
        assert len(witnesses) == n_witnesses
        assert len(admitted) == len(witnesses)
        assert set(admitted) == witnesses


def _no_conditions(self):
    raise AssertionError("check walked the path conditions")


def test_without_a_prohibition_check_derives_no_condition():
    # nothing can clash, so neither `check` nor `lower`'s own check reads a
    # path condition, which on a deep flow cost memory quadratic in its depth
    sem = ContractSemantics(deep_flow(1500))
    with mock.patch.object(ContractSemantics, "conditions", _no_conditions):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = check(sem)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grown < 1_000_000  # 54 MB when every condition was derived
        assert report.ok and report.stats.states == 2 ** len(sem.universe)
        assert lower(deep_flow(1500)).warnings == ()
        rng = random.Random(31)
        for contract in [random_lowerable(rng) for _ in range(10)]:
            assert check(contract).ok
            lower(contract)
        permitted = parsed("agents a, b; actions x; {a,b}P(x) & {a,b}O(x);")
        assert check(permitted).ok
    with pytest.raises(AssertionError, match="walked the path conditions"):
        with mock.patch.object(ContractSemantics, "conditions", _no_conditions):
            check(parsed("agents a, b; actions x; {a,b}[x]({a,b}F(x));"))


def test_check_matches_the_frozenset_pair_search_above_the_oracle_bound():
    # the bitmask test and chain walk against the frozenset unions they
    # replaced, on universes too large for the oracle: the same pairs,
    # witnesses and order
    rng = random.Random(20261022)
    contracts = [merged_contract(rng, parts, max_events=30) for parts in (3, 4, 5, 6) * 12]
    contracts += [parsed(pretty_print(c)) for c in contracts[::3]]
    contracts += [random_clashing(rng) for _ in range(30)]
    contracts += [dense_conflicts(n) for n in (1, 2, 7, 23, 40)]
    clashing_above = 0  # contracts beyond the oracle's bound that clash
    for contract in contracts:
        report = check(contract)
        got = [(c.obligation, c.prohibition, c.witness) for c in report.conflicts]
        assert got == reference_check(contract)
        if got and len(ContractSemantics(contract).universe) > ORACLE_EVENT_BOUND:
            clashing_above += 1
    assert clashing_above >= 30


def test_a_clash_under_three_thousand_boxes_checks_in_little_memory():
    # each box links one event to the chain outside it; when each box
    # copied the enclosing guards' set, this took 220 MB
    sem = ContractSemantics(deep_flow(2999, clash=True))  # and its root box
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check(sem)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grown < 20_000_000
    (conflict,) = report.conflicts
    assert (conflict.obligation.kind, conflict.prohibition.kind, conflict.action) == ("O", "F", "f")
    ab = AgentPair("a", "b")
    assert sorted(conflict.witness) == sorted([(ab, "go")] + [(ab, f"e{i}") for i in range(2999)])
    assert list(conflict.witness) == sorted(conflict.witness)


def test_a_replay_that_loses_the_prohibition_fails_the_check():
    # the guard test, not the construction, decides: a witness at which
    # the clashing prohibition does not hold must stop the report
    real_holds = ContractSemantics.holds

    def without_prohibitions(self, norm, fired):
        return norm.kind != "F" and real_holds(self, norm, fired)

    contract = parsed(CONFLICTED)
    with mock.patch.object(ContractSemantics, "holds", without_prohibitions):
        with pytest.raises(RuntimeError, match="^witness replay failed for "):
            check(contract)
    assert check(contract).conflicts


def test_oracle_refuses_large_universe():
    names = ", ".join(f"x{i}" for i in range(13))
    clauses = " ".join(f"{{a,b}}O(x{i});" for i in range(13))
    contract = parsed(f"agents a, b; actions {names}; {clauses}")
    with pytest.raises(ValueError):
        brute_force_oracle(contract)


def test_full_permutation_mode_capped():
    names = ", ".join(f"x{i}" for i in range(8))
    clauses = " ".join(f"{{a,b}}O(x{i});" for i in range(8))
    contract = parsed(f"agents a, b; actions {names}; {clauses}")
    with pytest.raises(ValueError):
        brute_force_oracle(contract, full_permutations=True)


def test_permutation_and_subset_modes_agree():
    rng = random.Random(41)
    compared = 0
    while compared < 25:
        contract = parsed(pretty_print(random_contract(rng, max_events=5)))
        fast = brute_force_oracle(contract)
        slow = brute_force_oracle(contract, full_permutations=True)
        assert fast == slow
        compared += 1


def _oracle_first_witnesses(contract):
    """(pair, action) -> the first fired set, by size and then event
    index, at which the oracle's interpreter shows that clash."""
    universe = sorted(_oracle_universe(contract),
                      key=lambda e: (e[0].performer, e[0].counterparty, e[1]))
    first = {}
    for size in range(len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            obliged, forbidden = _oracle_active(contract, frozenset(subset))
            for clash in obliged & forbidden:
                first.setdefault(clash, subset)
    return first


def test_oracle_equivalence_on_random_contracts():
    rng = random.Random(20260819)
    agreed = unprohibited = 0
    positions = set()
    while agreed < 120:
        contract = parsed(pretty_print(random_contract(rng)))
        positions |= permission_positions(contract)
        # a contract without a prohibition takes check's early return
        unprohibited += not any(
            isinstance(clause, Prohibition) for clause, _path in iter_clauses(contract)
        )
        conflicts = check(contract).conflicts
        found = {(c.pair, c.action) for c in conflicts}
        assert found == brute_force_oracle(contract)
        reported = {}
        for c in conflicts:
            reported.setdefault((c.pair, c.action), c.witness)
        assert reported == _oracle_first_witnesses(contract)
        agreed += 1
    assert unprohibited >= 20
    assert positions == PERMISSION_POSITIONS


def test_empty_report_means_no_collision_in_dump():
    # independent route: scan the textual dump rather than trust check
    rng = random.Random(5150)
    scanned = 0
    while scanned < 30:
        contract = parsed(pretty_print(random_contract(rng, max_events=7)))
        if check(contract).conflicts:
            continue
        text = "".join(dump_lts(ContractSemantics(contract)))
        for block in text.split("state ")[1:]:
            lines = block.splitlines()
            obliged = {l.strip()[2:] for l in lines if l.strip().startswith("O ")}
            forbidden = {l.strip()[2:] for l in lines if l.strip().startswith("F ")}
            assert not (obliged & forbidden)
        scanned += 1


def test_reports_are_deterministic():
    contract = parsed(CONFLICTED)
    one = json.loads(report_to_json(check(contract), "purchase_conflicted.rcl"))
    two = json.loads(report_to_json(check(contract), "purchase_conflicted.rcl"))
    one["stats"]["wall_ms"] = two["stats"]["wall_ms"] = 0
    assert one == two


def test_json_schema_fields():
    payload = json.loads(report_to_json(check(parsed(CONFLICTED)), "p.rcl"))
    assert set(payload) == {"conflicts", "stats"}
    entry = payload["conflicts"][0]
    assert entry["pair"] == ["c", "b"]
    assert entry["action"] == "deliverProduct"
    assert entry["obligation_at"].startswith("p.rcl:")
    assert entry["prohibition_at"].startswith("p.rcl:")
    assert all(set(w) == {"pair", "action"} for w in entry["witness"])
    assert set(payload["stats"]) == {"states", "transitions", "wall_ms"}


def test_text_report_mentions_witness_and_origins():
    text = report_to_text(check(parsed(CONFLICTED)), "p.rcl")
    assert "obliged and forbidden to deliverProduct" in text
    assert "obligation at p.rcl:" in text
    assert "witness:" in text
    assert "1 conflict(s)" in text


def test_text_report_clean_contract():
    text = report_to_text(check(parsed(FIXED)), "p.rcl")
    assert "no conflicts" in text


def test_color_toggle_inserts_ansi():
    plain = report_to_text(check(parsed(FIXED)), "p.rcl", color=False)
    colored = report_to_text(check(parsed(FIXED)), "p.rcl", color=True)
    assert "\x1b[" not in plain
    assert "\x1b[" in colored


@pytest.mark.parametrize("source, name, json_sha, text_sha", [
    (CONFLICTED, "purchase_conflicted.rcl",
     "dc3e0d1fdf2132ff6e11627d0ab3fb52af5b51450ffffee312e9c4e8cb411fb8",
     "e6f2768cb2a5c63102d242c264e4c84fafa2618f886c82eedde4e4b8f18a815a"),
    (FIXED, "purchase_fixed.rcl",
     "12d262ceb7343edcd22478bece8653c64ca030ab3f876eac0945d24caa72e4aa",
     "fc57c93ef25238a96268546e58d6722131c57e28544c74115ffad32dea250f8b"),
])
def test_fixture_reports_are_pinned(source, name, json_sha, text_sha):
    # both renderings, wall time zeroed, byte for byte
    report = check(parsed(source))
    stats = report.stats
    report = CheckReport(report.conflicts, CheckStats(stats.states, stats.transitions, 0.0))
    assert hashlib.sha256(report_to_json(report, name).encode()).hexdigest() == json_sha
    assert hashlib.sha256(report_to_text(report, name).encode()).hexdigest() == text_sha


def _lattice_check(contract):
    """The reference for `check`: walk the subset lattice in `fired_sets`
    order and report each clashing origin pair at the first set showing
    it, in `clashes` order within a set."""
    sem = ContractSemantics(contract)
    seen = set()
    found = []
    for fired in fired_sets(sem.universe):
        for ob, forbid in clashes(sem.state(frozenset(fired))):
            if (ob, forbid) not in seen:
                seen.add((ob, forbid))
                found.append((ob, forbid, fired))
    n = len(sem.universe)
    return found, (2**n, n * 2 ** (n - 1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 3), reparse=st.booleans())
def test_check_agrees_with_the_lattice_walk(seed, parts, reparse):
    # unparsed contracts give every node the same span, so several
    # occurrences share an origin and ties need the full report order
    contract = merged_contract(random.Random(seed), parts, max_events=12)
    if reparse:
        contract = parsed(pretty_print(contract))
    report = check(contract)
    found, stats = _lattice_check(contract)
    assert [(c.obligation, c.prohibition, c.witness) for c in report.conflicts] == found
    assert (report.stats.states, report.stats.transitions) == stats


def test_report_order_does_not_depend_on_the_hash_seed():
    # norms sharing an origin are ordered by (pair, action), not by
    # where the hash of a frozenset happens to put them
    script = textwrap.dedent("""
        from rclc.ast import AgentPair, Contract, Decl, Obligation, Prohibition, Span
        from rclc.checker import check
        from rclc.lts import clashes
        from rclc.semantics import ContractSemantics

        span = Span(1, 1, 1, 1)
        clauses = tuple(
            kind(AgentPair(x, y), action, span)
            for x, y in (("a", "b"), ("b", "a"))
            for action in ("x", "y", "z")
            for kind in (Obligation, Prohibition)
        )
        contract = Contract(
            tuple(Decl(name, span) for name in ("a", "b")),
            tuple(Decl(name, span) for name in ("x", "y", "z")),
            clauses,
        )
        for c in check(contract).conflicts:
            print(c.pair, c.action)
        for ob, forbid in clashes(ContractSemantics(contract).initial_state()):
            print(ob.pair, ob.action)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1", "2", "3")
    }
    order = "".join(f"{{{x},{y}}} {a}\n" for x, y in ("ab", "ba") for a in "xyz")
    assert outputs == {order * 2}


def test_two_hundred_events_check_without_the_lattice():
    # 100 guard boxes, each over an obligation, make 200 events; the one
    # planted prohibition sits under two more guards
    clauses = "".join(f"{{a,b}}[g{i}]({{a,b}}O(o{i}));\n" for i in range(100))
    contract = parsed(
        "agents a, b;\nactions "
        + ", ".join(f"g{i}, o{i}" for i in range(100))
        + ";\n" + clauses + "{a,b}[g98]({a,b}[g99]({a,b}F(o97)));\n"
    )
    report = check(contract)
    (conflict,) = report.conflicts
    assert conflict.action == "o97"
    assert conflict.obligation.origin.line == 3 + 97
    assert conflict.prohibition.origin.line == 3 + 100
    ab = AgentPair("a", "b")
    assert conflict.witness == ((ab, "g97"), (ab, "g98"), (ab, "g99"))
    assert report.stats.states == 2**200
    assert report.stats.transitions == 200 * 2**199
