"""Seeded input generators with answers planted by construction.

Every generator works on its own small clause-tree representation, not on
`rclc.ast`, renders it to contract source text, and derives the expected
answer from that tree. The program under test only ever sees the text.

Tree nodes:

    Leaf(kind, pair, action, id)    kind is "O" or "F"
    Box(pair, action, body)         {x,y}[a](body)
    Watch(pair, action, body)       {x,y}[!a]*(body)
    And(parts)                      parts joined with "&"

A pair is a (performer, counterparty) tuple and an event is (pair, action).
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field

Leaf = namedtuple("Leaf", "kind pair action id")
Box = namedtuple("Box", "pair action body")
Watch = namedtuple("Watch", "pair action body")
And = namedtuple("And", "parts")

AGENTS = ("a", "b", "c", "d")


@dataclass
class Item:
    """One benchmark input: the text the program receives, the properties
    a later change may want to split results by, and the expected answer."""

    id: str
    kind: str
    text: str
    props: dict
    expect: dict = field(default_factory=dict)


# -- rendering -----------------------------------------------------------

class _Writer:
    def __init__(self):
        self.chunks: list[str] = []
        self.line = 1
        self.col = 1

    def write(self, text: str) -> None:
        self.chunks.append(text)
        newlines = text.count("\n")
        if newlines:
            self.line += newlines
            self.col = len(text) - text.rfind("\n")
        else:
            self.col += len(text)

    def text(self) -> str:
        return "".join(self.chunks)


def _pair_text(pair) -> str:
    return "{%s,%s}" % pair


def render(agents, actions, clauses, header=()) -> tuple[str, dict]:
    """Source text for a clause list, and the 1-based (line, col) at which
    each leaf starts; the parser reports that position as the leaf's
    origin."""
    out = _Writer()
    positions: dict[int, tuple[int, int]] = {}

    def emit(node):
        if isinstance(node, Leaf):
            positions[node.id] = (out.line, out.col)
            out.write(f"{_pair_text(node.pair)}{node.kind}({node.action})")
        elif isinstance(node, And):
            for i, part in enumerate(node.parts):
                if i:
                    out.write(" & ")
                emit(part)
        else:
            guard = node.action if isinstance(node, Box) else f"!{node.action}"
            star = "" if isinstance(node, Box) else "*"
            out.write(f"{_pair_text(node.pair)}[{guard}]{star}(")
            emit(node.body)
            out.write(")")

    out.write(f"agents {', '.join(agents)};\n")
    out.write(f"actions {', '.join(actions)};\n")
    for line in header:
        out.write(line + "\n")
    for clause in clauses:
        emit(clause)
        out.write(";\n")
    return out.text(), positions


# -- reference semantics over the generator's own trees ---------------------

def _occurrences(clauses):
    """Each leaf with the events that must have fired for it to be in
    force (its box guards) and the actions that must not have fired
    (its watches)."""
    stack = [(c, frozenset(), frozenset()) for c in clauses]
    while stack:
        node, required, blocked = stack.pop()
        if isinstance(node, Leaf):
            yield node, required, blocked
        elif isinstance(node, And):
            stack.extend((p, required, blocked) for p in node.parts)
        elif isinstance(node, Box):
            stack.append((node.body, required | {(node.pair, node.action)}, blocked))
        else:
            stack.append((node.body, required, blocked | {node.action}))


def expected_conflicts(clauses) -> dict[tuple[int, int], frozenset]:
    """(obligation leaf id, prohibition leaf id) -> the unique smallest
    fired set in which both are in force.

    An obligation is in force until its own event fires and a prohibition
    until its action fires by anyone, so the two clash exactly when the
    union of their box guards fires none of the watched actions and not
    the shared action itself; that union is then the shortest witness."""
    obliged: dict[tuple, list] = {}
    forbidden: dict[tuple, list] = {}
    for leaf, required, blocked in _occurrences(clauses):
        table = obliged if leaf.kind == "O" else forbidden
        table.setdefault((leaf.pair, leaf.action), []).append((leaf, required, blocked))
    found = {}
    for key, obs in obliged.items():
        for ob, ob_req, ob_blocked in obs:
            for fb, fb_req, fb_blocked in forbidden.get(key, ()):
                fired = ob_req | fb_req
                bad = ob_blocked | fb_blocked | {key[1]}
                if not any(action in bad for _pair, action in fired):
                    found[(ob.id, fb.id)] = fired
    return found


def active_leaves(clauses, fired) -> set[int]:
    """Ids of the leaves in force once exactly the events in `fired` have
    fired; a direct reading of the semantics, used to replay witnesses."""
    fired = set(fired)
    fired_actions = {action for _pair, action in fired}
    active: set[int] = set()
    stack = list(clauses)
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend(node.parts)
        elif isinstance(node, Leaf):
            if node.kind == "O" and (node.pair, node.action) not in fired:
                active.add(node.id)
            elif node.kind == "F" and node.action not in fired_actions:
                active.add(node.id)
        elif isinstance(node, Box):
            if (node.pair, node.action) in fired:
                stack.append(node.body)
        elif node.action not in fired_actions:
            stack.append(node.body)
    return active


def tree_props(clauses) -> dict:
    """Input properties: distinct events, clause nodes as the parser
    builds them (binary "&"), and obligation/prohibition leaf pairs that
    share a (pair, action) key."""
    events = set()
    nodes = 0
    per_key: dict[tuple, list[int]] = {}
    stack = list(clauses)
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            nodes += len(node.parts) - 1
            stack.extend(node.parts)
            continue
        nodes += 1
        events.add((node.pair, node.action))
        if isinstance(node, Leaf):
            counts = per_key.setdefault((node.pair, node.action), [0, 0])
            counts[node.kind == "F"] += 1
        else:
            stack.append(node.body)
    return {
        "events": len(events),
        "clause_nodes": nodes,
        "of_pairs": sum(o * f for o, f in per_key.values()),
    }


# -- check_scaling families ---------------------------------------------------

class _Ids:
    def __init__(self):
        self.next = 0

    def leaf(self, kind, event) -> Leaf:
        self.next += 1
        return Leaf(kind, event[0], event[1], self.next)


def _pair(rng: random.Random, agents=AGENTS) -> tuple[str, str]:
    x, y = rng.sample(agents, 2)
    return (x, y)


def _check_item(item_id, kind, clauses, agents, actions) -> Item:
    text, positions = render(agents, actions, clauses)
    conflicts = expected_conflicts(clauses)
    keys = {leaf.id: (leaf.pair, leaf.action) for leaf, _r, _b in _occurrences(clauses)}
    return Item(item_id, kind, text, tree_props(clauses), {
        "clauses": clauses,
        "positions": positions,
        "conflicts": conflicts,
        "conflict_keys": {keys[o] for o, _f in conflicts},
    })


def chain_contract(rng: random.Random, n_events: int, item_id: str) -> Item:
    """A box chain n_events deep, every link obliging the next event,
    plus two house-rule watches banning a chain action. A watch
    on an earlier link's action is lifted before the ban matters; about a
    third of the chains get one watch on a later action, which clashes."""
    ids = _Ids()
    events = [(_pair(rng), f"s{i}") for i in range(n_events)]
    body = ids.leaf("O", events[-1])
    for event in reversed(events[:-1]):
        body = And((ids.leaf("O", event), Box(event[0], event[1], body)))
    clauses = [body]
    rules = []
    for _ in range(2):
        target = rng.randrange(1, n_events)
        rules.append((rng.randrange(0, target), target))
    if rng.random() < 1 / 3:
        target = rng.randrange(1, n_events)
        rules[rng.randrange(len(rules))] = (rng.randrange(target, n_events), target)
    for watched, target in rules:
        pair, action = events[watched]
        clauses.append(Watch(pair, action, ids.leaf("F", events[target])))
    actions = [action for _pair, action in events]
    return _check_item(item_id, "chain", clauses, AGENTS, actions)


def dense_contract(rng: random.Random, n_events: int, item_id: str) -> Item:
    """Three obligations and three prohibitions on each of two shared
    (pair, action) keys, each behind one guard box, every prohibition also
    behind a watch. Watches on a guard's own action block some
    combinations, so the clash set is large but not complete. The shape
    is fixed by n_events, so contracts of one size cost about the same."""
    ids = _Ids()
    n_keys = 2
    n_watch = max(1, (n_events - n_keys) // 3)
    n_guard = n_events - n_keys - n_watch
    keys = [(_pair(rng), f"k{i}") for i in range(n_keys)]
    guards = [(_pair(rng), f"g{i}") for i in range(n_guard)]
    watches = [(_pair(rng), f"w{i}") for i in range(n_watch)]
    leaves = [ids.leaf(kind, key) for key in keys for kind in "OOOFFF"]
    rng.shuffle(leaves)
    order = rng.sample(guards, n_guard)
    parts, watched = [], 0
    for i, leaf in enumerate(leaves):
        node = leaf
        if leaf.kind == "F":
            event = watches[watched] if watched < n_watch else rng.choice(watches + guards)
            watched += 1
            node = Watch(event[0], event[1], node)
        event = order[i % n_guard]
        parts.append(Box(event[0], event[1], node))
    clauses = [And(tuple(parts[i:i + 2])) if i + 1 < len(parts) else parts[i]
               for i in range(0, len(parts), 2)]
    actions = [action for _pair, action in keys + guards + watches]
    return _check_item(item_id, "dense", clauses, AGENTS, actions)


def check_corpus(seed: int, rounds: int, chain_sizes, dense_sizes) -> list[Item]:
    """`rounds` rounds of distinct contracts, each round holding one chain
    per size in `chain_sizes` and one dense contract per size in
    `dense_sizes`."""
    rng = random.Random(seed)
    items = []
    for r in range(rounds):
        items += [chain_contract(rng, n, f"r{r}.{i}-chain{n}") for i, n in enumerate(chain_sizes)]
        items += [dense_contract(rng, n, f"r{r}-dense{n}") for n in dense_sizes]
    return items


# -- gen_corpus -----------------------------------------------------------------

LOWERABLE_SHAPES = [
    (depth, tails, nested, agents)
    for depth in (1, 2, 3, 4)
    for tails in (1, 2, 3)
    for nested in (False, True)
    for agents in (2, 3, 4)
]


def lowerable_contract(rng: random.Random, index: int, shape) -> Item:
    """A conflict-free single-root box chain the code generator accepts:
    `depth` links each obliging the next guard event, an innermost body of
    `tails` side obligations, and, when `nested`, one side obligation that
    guards a further obligation. Every action names exactly one event, so
    every event becomes exactly one function named after its action."""
    depth, tails, nested, n_agents = shape
    ids = _Ids()
    agents = AGENTS[:n_agents]
    n_events = depth + tails + nested
    events = [(_pair(rng, agents), f"act{i}") for i in range(n_events)]
    chain, side = events[:depth], events[depth:depth + tails]
    parts = [ids.leaf("O", event) for event in side]
    if nested:
        parts.append(Box(side[0][0], side[0][1], ids.leaf("O", events[-1])))
    body = parts[0] if len(parts) == 1 else And(tuple(parts))
    for event in reversed(chain[1:]):
        body = And((ids.leaf("O", event), Box(event[0], event[1], body)))
    root = Box(chain[0][0], chain[0][1], body)
    name = f"Gen{index}"
    text, _positions = render(
        agents, [action for _pair, action in events], [root], (f"contract {name};",)
    )
    return Item(f"gen{index}", "lowerable", text, tree_props([root]), {
        "contract": name,
        "functions": [action for _pair, action in events],
        "states": 2 ** n_events,
    })


def gen_corpus(seed: int, blocks: int) -> list[Item]:
    """`blocks` blocks, each holding every shape in LOWERABLE_SHAPES once
    in a seeded order, so that any whole block has the same mix of sizes
    (1 to 8 events)."""
    rng = random.Random(seed)
    items = []
    for _ in range(blocks):
        for shape in rng.sample(LOWERABLE_SHAPES, len(LOWERABLE_SHAPES)):
            items.append(lowerable_contract(rng, len(items), shape))
    return items


# -- sim_long --------------------------------------------------------------------

def parse_script_lines(text: str) -> list[tuple[str, str, int]]:
    """The fixture script format: `<account> <function> [value=<n>]`."""
    calls = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        value = int(parts[2][len("value="):]) if len(parts) == 3 else 0
        calls.append((parts[0], parts[1], value))
    return calls


def long_script(rng: random.Random, base, length: int, fixture, accounts,
                initial_balance: int) -> tuple[str, list[tuple[bool, str | None]], dict]:
    """Interleave a fixture script, in order, with filler calls that the
    reference `fixture` (a solref.Fixture) says revert where they stand.
    Half the fillers get past the role and value checks: the function's
    own caller with the fixture script's value, in a state or with flags
    that make the state guard or a flag precondition revert. The rest
    revert earlier, on a wrong caller (30%), more value than any account
    holds (10%) or value sent to a function the fixture script calls
    without value (10%). Returns the script text, the expected (ok,
    revert message) of every call, and the input properties."""
    positions = set(rng.sample(range(length), len(base)))
    owner = {fn: (account, value) for account, fn, value in base}
    functions = sorted(owner)
    unpaid = sorted({fn for _account, fn, value in base if value == 0})
    balances = dict.fromkeys(accounts, initial_balance)
    machine = fixture.start()
    lines, expect = [], []
    base_iter = iter(base)
    guarded = 0
    for i in range(length):
        if i in positions:
            account, fn, value = next(base_iter)
        else:
            choice = rng.random()
            if choice < 0.5:
                for fn in rng.sample(functions, len(functions)):
                    account, value = owner[fn]
                    if not fixture.call(machine, account, fn, value, balances[account])[1][0]:
                        guarded += 1
                        break
                else:
                    raise ValueError(f"every call of the fixture succeeds at call {i}")
            elif choice < 0.8:
                fn = rng.choice(functions)
                account = rng.choice([a for a in accounts if a != owner[fn][0]])
                value = 0
            elif choice < 0.9:
                fn, account, value = rng.choice(functions), rng.choice(accounts), 10 ** 6
            else:
                fn = rng.choice(unpaid)
                account, value = owner[fn][0], 1
        machine, outcome = fixture.call(machine, account, fn, value, balances[account])
        if i not in positions and outcome[0]:
            raise ValueError(f"filler call {i} would succeed")
        if outcome[0]:
            balances[account] -= value
        lines.append(f"{account} {fn} value={value}" if value else f"{account} {fn}")
        expect.append(outcome)
    props = {"script_len": length, "script_ok": sum(ok for ok, _m in expect),
             "script_guarded_reverts": guarded}
    return "\n".join(lines) + "\n", expect, props


def deep_nesting_source(depth: int) -> str:
    """A contract whose single clause nests `depth` boxes."""
    return (
        "agents a, b;\nactions x;\n"
        + "{a,b}[x](" * depth + "{a,b}O(x)" + ")" * depth + ";\n"
    )
