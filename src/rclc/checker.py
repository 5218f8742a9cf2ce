"""Conflict search by path conditions.

A conflict is an obligation and a prohibition on the same (pair,
action) active in the same reachable state. A norm state depends only
on the fired set, so each O/F occurrence is in force exactly under a
conjunction of literals on that set, its path condition, as
`ContractSemantics.conditions` reads it off the clause table. `check`
tests each O/F pair's two conditions together with one and of bitmasks
over the watched actions: the banned ones against those wanted or
performed by a needed guard event. Only a pair that passes walks its
two guard chains, and the lowest-index event of each wanted action not
yet performed joins them in the shortest witness. The clashes are
sorted once by witness rank and `lts.clash_order`, and each is verified
by `admit` and `holds`: no state of the 2^n subset lattice is derived. A contract without a prohibition
has nothing to clash, so its conditions are not derived either. The
verified conflicts depend on the clauses alone, so the clause table
keeps them, and a later check of the same contract, `lower`'s own
included, reports them again with its own time.
`rclc.oracle.brute_force_oracle` answers the same question by
exhaustive enumeration with its own walk and interpreter; it shares
nothing with `check` and keeps it honest. No command loads it, and this
module resolves its two names, `brute_force_oracle` and
`ORACLE_EVENT_BOUND`, on first use.
"""

from __future__ import annotations

import time

from .ast import Contract, Frozen
from .semantics import Condition, ContractSemantics, Event, Norm, chain_indices, format_event

__all__ = [
    "Conflict",
    "CheckStats",
    "CheckReport",
    "check",
    "report_to_json",
    "report_to_text",
]

# names of `rclc.oracle`, still importable from here; the first use loads it
_ORACLE_NAMES = {"brute_force_oracle", "ORACLE_EVENT_BOUND"}


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


_set = object.__setattr__  # writes a field of a Frozen value


class Conflict(Frozen):
    __slots__ = _fields = ("obligation", "prohibition", "witness")

    def __init__(self, obligation: Norm, prohibition: Norm, witness: tuple[Event, ...]):
        _set(self, "obligation", obligation)
        _set(self, "prohibition", prohibition)
        _set(self, "witness", witness)

    @property
    def pair(self):
        return self.obligation.pair

    @property
    def action(self) -> str:
        return self.obligation.action


class CheckStats(Frozen):
    __slots__ = _fields = ("states", "transitions", "wall_ms")

    def __init__(self, states: int, transitions: int, wall_ms: float):
        _set(self, "states", states)
        _set(self, "transitions", transitions)
        _set(self, "wall_ms", wall_ms)


class CheckReport(Frozen):
    __slots__ = _fields = ("conflicts", "stats")

    def __init__(self, conflicts: tuple[Conflict, ...], stats: CheckStats):
        _set(self, "conflicts", conflicts)
        _set(self, "stats", stats)

    @property
    def ok(self) -> bool:
        return not self.conflicts


def check(contract: Contract | ContractSemantics) -> CheckReport:
    """Report each obligation/prohibition origin pair that clashes in some
    reachable state, with its witness: the first fired set in
    `lts.fired_sets` order (smallest, then by event index) at which
    the clash shows. Reports follow (witness, `lts.clash_order`), the
    order a walk of the lattice finds them in. Each is verified at its
    witness first, once per clause table: a later check of the same
    table reports the kept conflicts.
    """
    begin = time.perf_counter()
    sem = ContractSemantics.of(contract)
    shared = sem._shared  # the clause table, which keeps the verified conflicts
    if shared.conflicts is None:
        # without a prohibition no O/F pair can clash
        shared.conflicts = _conflicts(sem) if shared.forbids else ()
    return _report(shared.conflicts, len(sem.universe), begin)


def _conflicts(sem: ContractSemantics) -> tuple[Conflict, ...]:
    """`check`'s conflicts: every O/F pair's conditions tested together,
    the least witness of each, verified at it and sorted."""
    universe = sem.universe
    obligations: list[tuple[Norm, Condition]] = []
    forbidden: list[tuple[Norm, Condition]] = []
    for entry in sem.conditions():
        (obligations if entry[0].kind == "O" else forbidden).append(entry)

    bit_of = sem.watched
    first_with: dict[int, int] = {}  # a watched action's bit -> its lowest event index
    for i, (_pair, action) in enumerate(universe):
        if action in bit_of:
            first_with.setdefault(bit_of[action], i)
    ids: dict[Norm, int] = {}  # a clash is keyed by two norm ids
    obliged: dict[Event, list[tuple[int, Condition]]] = {}
    for ob, cond in obligations:
        oid = ids.setdefault(ob, len(ids))
        obliged.setdefault((ob.pair, ob.action), []).append((oid, cond))

    # (obligation id, prohibition id) -> the least witness as (size, event
    # indices), the rank of a fired set in `fired_sets` order
    least: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for forbid, (f_need, f_banned, f_wanted, f_done) in forbidden:
        fid = ids.setdefault(forbid, len(ids))
        same_event = obliged.get((forbid.pair, forbid.action), ())
        for oid, (o_need, o_banned, o_wanted, o_done) in same_event:
            # The obligation's own literal, its event unfired, needs no
            # test: the prohibition bans that event's action.
            wanted = f_wanted | o_wanted
            done = f_done | o_done
            if (f_banned | o_banned) & (wanted | done):
                continue
            need = {*chain_indices(f_need), *chain_indices(o_need)}
            # each watched action not yet performed costs one event, and
            # the lowest-index one is the least choice
            missing = wanted & ~done
            while missing:
                low = missing & -missing
                need.add(first_with[low])
                missing ^= low
            witness = tuple(sorted(need))
            rank = (len(witness), witness)
            best = least.get((oid, fid))
            if best is None or rank < best:
                least[oid, fid] = rank

    # rank, then `clash_order` by halves built once per norm (an
    # obligation's pair and action are its prohibition's); parsed clashes
    # never tie on both
    norm_of = list(ids)
    order = [(n.origin.line, n.origin.col, n.pair, n.action) for n in norm_of]
    conflicts = []
    last = fired = None
    for (_size, indices), _f, _o, ob, forbid in sorted(
        (rank, order[fid], order[oid], norm_of[oid], norm_of[fid])
        for (oid, fid), rank in least.items()
    ):
        if indices != last:
            last = indices
            witness = tuple(map(universe.__getitem__, indices))
            fired = sem.admit(witness)
        if not (sem.holds(ob, fired) and sem.holds(forbid, fired)):
            raise RuntimeError(f"witness replay failed for {ob.pair} {ob.action}")
        conflicts.append(Conflict(ob, forbid, witness))
    return tuple(conflicts)


def _report(conflicts: tuple[Conflict, ...], n: int, begin: float) -> CheckReport:
    # the lattice is full: 2^n states, and each of the n events labels
    # the edges out of the half of them where it is unfired
    wall_ms = (time.perf_counter() - begin) * 1000.0
    return CheckReport(conflicts, CheckStats(2**n, n * 2**n // 2, wall_ms))


# -- report rendering --------------------------------------------------

def _span_at(origin, file: str) -> str:
    return f"{file}:{origin.line}:{origin.col}"


def report_to_json(report: CheckReport, file: str = "<input>") -> str:
    import json

    payload = {
        "conflicts": [
            {
                "pair": [c.pair.performer, c.pair.counterparty],
                "action": c.action,
                "obligation_at": _span_at(c.obligation.origin, file),
                "prohibition_at": _span_at(c.prohibition.origin, file),
                "witness": [
                    {"pair": [p.performer, p.counterparty], "action": a}
                    for p, a in c.witness
                ],
            }
            for c in report.conflicts
        ],
        "stats": {
            "states": report.stats.states,
            "transitions": report.stats.transitions,
            "wall_ms": round(report.stats.wall_ms, 3),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(report: CheckReport, file: str = "<input>",
                   color: bool = False) -> str:
    red = "\x1b[31m" if color else ""
    green = "\x1b[32m" if color else ""
    reset = "\x1b[0m" if color else ""
    lines = []
    for c in report.conflicts:
        head = f"{red}conflict{reset}" if color else "conflict"
        lines.append(
            f"{_span_at(c.obligation.origin, file)}: {head}: "
            f"{c.pair} is both obliged and forbidden to {c.action}"
        )
        lines.append(f"  obligation at {_span_at(c.obligation.origin, file)}")
        lines.append(f"  prohibition at {_span_at(c.prohibition.origin, file)}")
        if c.witness:
            shown = " -> ".join(format_event(e) for e in c.witness)
            lines.append(f"  witness: {shown}")
        else:
            lines.append("  witness: (initial state)")
    verdict = (
        f"{len(report.conflicts)} conflict(s)" if report.conflicts
        else f"{green}no conflicts{reset}"
    )
    lines.append(
        f"{verdict}, {report.stats.states} states, "
        f"{report.stats.transitions} transitions, "
        f"{report.stats.wall_ms:.1f} ms"
    )
    return "\n".join(lines) + "\n"
