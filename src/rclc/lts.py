"""The `dump-lts` listing of a contract's subset lattice, streamed: each
state in `fired_sets` order, derived and dropped in turn, then each edge,
its target ranked within the next size level alone. A dump holds at most
one level, C(16, 8) = 12,870 fired sets. The states of one
`ContractSemantics` share its prebuilt norms, boxes and watches, so each
distinct one is hashed and formatted once per dump, then found by
identity. Only `dump-lts` loads this module."""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .semantics import ContractSemantics, Event, Norm, NormState, format_event

__all__ = ["MAX_LTS_EVENTS", "fired_sets", "clash_order", "clashes", "dump_lts", "lts_to_dot"]

# 2^16 states admit both fixtures
MAX_LTS_EVENTS = 16


def fired_sets(universe: tuple[Event, ...]) -> Iterator[tuple[Event, ...]]:
    """Every subset of `universe` as a tuple in universe order, smallest
    first, then lexicographic in event indices: the order of a dump's
    states. Firing order never matters, so the first set showing a clash
    is a shortest witness, which `check` finds without walking these."""
    for size in range(len(universe) + 1):
        yield from itertools.combinations(universe, size)


def clash_order(clash: tuple[Norm, Norm]):
    """Total order on the clashes within one state: prohibition origin,
    then the clashing (pair, action), then obligation origin. The (pair,
    action) tie-break matters only for norms sharing an origin, which
    parsed contracts never have but hand-built ones may."""
    ob, forbid = clash
    return (forbid.origin.line, forbid.origin.col, forbid.pair, forbid.action,
            ob.origin.line, ob.origin.col)


def clashes(state: NormState) -> list[tuple[Norm, Norm]]:
    """The (obligation, prohibition) pairs on one (pair, action) that are
    both in force in `state`, in `clash_order`."""
    obliged: dict[Event, list[Norm]] = {}
    for norm in state.active:
        if norm.kind == "O":
            obliged.setdefault((norm.pair, norm.action), []).append(norm)
    found = [(ob, forbid) for forbid in state.active if forbid.kind == "F"
             for ob in obliged.get((forbid.pair, forbid.action), ())]
    return sorted(found, key=clash_order)


def _states(sem: ContractSemantics) -> Iterator[tuple[int, tuple[int, ...], NormState]]:
    """(rank, fired event indices, state) for every fired set, in
    `fired_sets` order; over MAX_LTS_EVENTS events, ValueError at once."""
    universe, n = sem.universe, len(sem.universe)
    if n > MAX_LTS_EVENTS:
        raise ValueError(f"the transition system of {n} events has 2^{n} states; "
                         f"listing it is limited to {MAX_LTS_EVENTS} events")
    return ((rank, fired, sem.state(frozenset(map(universe.__getitem__, fired))))
            for rank, fired in enumerate(fired_sets(range(n))))


def _edges(n: int) -> Iterator[tuple[int, int, int]]:
    """(source, event index, target) of every edge over n events, in
    order; a fired set is a bit mask, ranked by a map over its level."""
    bits = [1 << i for i in range(n)]
    level, first = [0], 0  # the masks of one size, in rank order; rank of the first
    for size in range(1, n + 1):
        upper = [sum(map(bits.__getitem__, c)) for c in itertools.combinations(range(n), size)]
        rank = {mask: r for r, mask in enumerate(upper, first + len(level))}
        for src, mask in enumerate(level, first):
            for i, bit in enumerate(bits):
                if not mask & bit:
                    yield src, i, rank[mask | bit]
        level, first = upper, first + len(level)


def _lines(key: Callable, line: Callable) -> Callable[..., list[str]]:
    """A function from a state's items to their lines, one per distinct
    item, in `key` order. An item is hashed when first met, then found by
    identity (kept, so its id stays its own); a serial parts unequal ones."""
    by_id: dict[int, tuple[object, tuple]] = {}
    by_value: dict[object, tuple] = {}

    def lines(items) -> list[str]:
        rows = set()
        for item in items:
            seen = by_id.get(id(item))
            if seen is None:
                row = by_value.setdefault(item, (key(item), len(by_value), line(item)))
                seen = by_id[id(item)] = (item, row)
            rows.add(seen[1])
        return [text for _key, _serial, text in sorted(rows)]

    return lines


def dump_lts(sem: ContractSemantics) -> Iterator[str]:
    """The deterministic text dump, golden-file and scan friendly, as
    lines; ValueError over MAX_LTS_EVENTS events, before the first."""
    states, universe, n = _states(sem), sem.universe, len(sem.universe)
    names = [f"e{i}" for i in range(n)]
    # norms sort as (kind, pair, action, origin), boxes by event; one line
    # per distinct box or watch, as in a set of them
    norms = _lines(lambda norm: norm, lambda norm: f"  {norm}\n")
    boxes = _lines(lambda box: box[0], lambda box: f"  box {format_event(box[0])}\n")
    watches = _lines(lambda watch: (watch[0], watch[2]),
                     lambda watch: f"  watch [{'' if watch[2] else '!'}{watch[0]}]*\n")

    def block(rank, fired, state):
        return "".join([f"state {rank} fired={{{','.join(map(names.__getitem__, fired))}}}\n",
                        *norms(state.active), *boxes(state.pending_boxes),
                        *watches(state.iter_watch)])

    return itertools.chain(
        [f"lts states={2 ** n} transitions={n * 2 ** n // 2} events={n}\n", "events\n"],
        (f"  {name} {format_event(event)}\n" for name, event in zip(names, universe)),
        itertools.starmap(block, states),
        ["transitions\n"],
        (f"  {src} e{i} {dst}\n" for src, i, dst in _edges(n)),
    )


def lts_to_dot(sem: ContractSemantics) -> Iterator[str]:
    """The GraphViz rendering, as lines; states with an obligation and a
    prohibition clashing on one (pair, action) are highlighted.
    ValueError over MAX_LTS_EVENTS events, before the first line."""
    states = _states(sem)
    labels = [format_event(event) for event in sem.universe]
    clash = ' style=filled fillcolor="#ffb3b3"'
    return itertools.chain(
        ["digraph lts {\n", "  rankdir=LR;\n", "  node [shape=circle, fontsize=10];\n"],
        (f'  s{rank} [label="s{rank}"{clash if clashes(state) else ""}];\n'
         for rank, _fired, state in states),
        (f'  s{src} -> s{dst} [label="{labels[i]}"];\n' for src, i, dst in _edges(len(labels))),
        ["}\n"],
    )
