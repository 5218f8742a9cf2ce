#!/usr/bin/env python3
"""rclc benchmark: one seeded workload, timed, checked, reported as JSON.

    python3 perfbench/run.py --workload check_scaling --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. With `--trace 0` the last line of
standard output carries the end-to-end metrics; with `--trace 1` a
separate traced loop records spans around every call into rclc and the
last line carries the per-layer metrics derived from them. Per-run item
properties and spans are written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# On a shared host this machine's speed flips between states for fractions
# of a second and drifts by a third over minutes, so every reported time is
# scaled to the speed at which `reference_kernel` takes REFERENCE_S, or, for
# items that are subprocesses, at which `python -c pass` takes START_S. The
# loop takes a reference sample between items, off the clock, once
# SAMPLE_EVERY_S of item time has passed since the last one, and scales each
# item by the two samples around it.
REFERENCE_S = 0.0045
START_S = 0.09
SAMPLE_EVERY_S = 0.05


def reference_kernel() -> int:
    """Fixed pure-Python work in two halves of about equal time: frozensets
    built from tuples and used as dict keys, like the checker's inner loop,
    then a tuple grown by concatenation, like the simulator's call log. The
    machine's fast and slow states speed the checker and the parser about
    as much as the first half and the simulator as the second, so the sum
    follows all of them."""
    seen = {}
    base = tuple(range(24))
    total = 0
    for i in range(1500):
        key = frozenset(base[i % 8: i % 8 + 12])
        seen[key] = seen.get(key, 0) + 1
        total += len(key) + (i in seen)
    log = ()
    for i in range(1060):
        log = log + (i,)
    return total + len(log)


def _kernel_slowness() -> float:
    """The faster of two back-to-back kernel runs, over REFERENCE_S."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def _start_slowness(workload) -> float:
    """The faster of two interpreter starts, over START_S. A fresh process
    does not follow the kernel: over a 100 s probe, CLI command times
    divided by the kernel varied as much as the raw times did, and divided
    by this sample about a quarter as much."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        workload.spawn([sys.executable, "-c", "pass"])
        best = min(best, time.perf_counter() - t0)
    return best / START_S


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_rclc() -> float:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rclc", "__init__.py")):
        raise SystemExit(f"perfbench: no rclc sources under {src}; run from a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    begin = time.perf_counter()
    import rclc  # noqa: F401
    import rclc.cli  # noqa: F401
    elapsed = time.perf_counter() - begin
    if not os.path.abspath(rclc.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: rclc imported from {rclc.__file__}, not {src}")
    return elapsed


def _api(workloads):
    import rclc.cli
    from rclc import simulator
    from rclc.ast import validate
    from rclc.checker import check
    from rclc.codegen import emit_solidity, lower
    from rclc.parser import parse_contract

    return SimpleNamespace(
        parse=parse_contract,
        validate=validate,
        check=check,
        lower=lower,
        emit=emit_solidity,
        parse_script=simulator.parse_script,
        run_script=simulator.run_script,
        render=simulator.render_trace,
        cosim=simulator.co_simulate,
        replay=workloads.replay_witnesses,
        cli_main=rclc.cli.main,
    )


def _traced_api(tracer, workloads):
    """The same calls with a span around each, patched into every rclc
    module that binds the function under its own name."""
    import rclc.cli
    from rclc import ast, codegen, parser, semantics, simulator

    base = _api(workloads)

    def check_counts(args, report):
        return {
            "states": report.stats.states,
            "transitions": report.stats.transitions,
            "conflicts": len(report.conflicts),
            "events": len(semantics.event_universe(args[0])),
        }

    def lower_counts(args, ir):
        return {
            "ir_states": len(ir.states),
            "ir_flags": len(ir.flags),
            "ir_functions": len(ir.functions),
        }

    tracer.patch(parser, "tokenize", "parser.tokenize", lambda a, r: {"tokens": len(r)})
    tracer.patch(simulator, "call", "simulator.call", lambda a, r: r[1].ok)
    wrapped = {
        "parse": ("parser.parse", None, [(rclc.cli, "parse_contract")]),
        "validate": (
            "ast.validate",
            lambda a, r: {"clause_nodes": sum(1 for _ in ast.iter_clauses(a[0]))},
            [(semantics, "validate"), (rclc.cli, "validate")],
        ),
        "check": ("checker.check", check_counts, [(codegen, "check"), (rclc.cli, "check")]),
        "lower": ("codegen.lower", lower_counts, [(rclc.cli, "lower")]),
        "emit": (
            "codegen.emit",
            lambda a, r: {"sol_bytes": len(r.encode("utf-8"))},
            [(rclc.cli, "emit_solidity")],
        ),
        "run_script": ("simulator.run_script", None, [(rclc.cli, "run_script")]),
        "render": ("simulator.render", None, [(rclc.cli, "render_trace")]),
        "cosim": ("simulator.cosim", None, []),
        "replay": (
            "semantics.replay",
            lambda a, r: {"steps": sum(len(c.witness) for c in a[1])},
            [],
        ),
        "cli_main": ("cli.main", None, []),
    }
    api = SimpleNamespace(**vars(base))
    for attr, (name, count, sites) in wrapped.items():
        setattr(api, attr, tracer.wrap(name, getattr(base, attr), count))
        for module, binding in sites:
            tracer.patch(module, binding, name, count)
    return api


class _Loop:
    """What one pass of the timed loop did. An outcome is the item's output
    summary on its first run, then True or False for whether a repeat
    matched it, or the exception the item raised. `collect` holds the
    seconds spent freeing each item's garbage and `paired` each item's
    untraced time in a traced pass. `rounds` holds the (start, end) item
    indices of each whole round; `samples` holds (items run so far,
    slowness) for each sample of `reference`, a function that returns the
    machine's current slowness relative to the reference speed."""

    def __init__(self, reference=_kernel_slowness):
        self.reference = reference
        self.executed = []
        self.latencies = []
        self.collect = []
        self.paired = []
        self.outcomes = []
        self.rounds = []
        self.samples = []

    def sample(self):
        self.samples.append((len(self.latencies), self.reference()))

    def scales(self) -> list[float]:
        """Per item, one over the mean slowness of the samples taken just
        before and just after it."""
        out, k = [], 0
        for i in range(len(self.latencies)):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            before = self.samples[k][1]
            after = self.samples[k + 1][1] if k + 1 < len(self.samples) else before
            out.append(2 / (before + after))
        return out

    def scaled(self, times=None) -> list[float]:
        times = self.latencies if times is None else times
        return [t * f for t, f in zip(times, self.scales())]


def _collect() -> float:
    """Free the last item's cyclic garbage (the checker's state cache), as
    a fresh process per command would, then freeze what survives so the
    next collection scans only the next item's objects. Returns seconds."""
    t0 = time.perf_counter()
    gc.collect()
    gc.freeze()
    return time.perf_counter() - t0


def _timed_loop(workload, api, seconds, reference, tracer=None, plain_api=None) -> _Loop:
    """Run the prologue, then the cycle until the items have taken
    `seconds` and the cycle sits at a round boundary. Only item time
    counts: summarizing outputs and collecting the garbage an item left
    behind happen between items, off the clock, and the collection is
    timed on its own. With `tracer` and `plain_api`, every item also runs
    once untraced, before or after its traced run in turn, with the
    tracer's patches taken out."""
    loop = _Loop(reference)
    firsts = {}
    since_sample = 0.0

    def timed(run_api, item):
        t0 = time.perf_counter()
        try:
            out = workload.run_item(item, run_api)
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        return time.perf_counter() - t0, out

    def untraced(item):
        tracer.restore()
        latency, _out = timed(plain_api, item)
        del _out
        _collect()
        tracer.install()
        loop.paired.append(latency)

    def one(item):
        nonlocal since_sample
        index = len(loop.executed)
        if tracer is not None:
            tracer.item = index
        if plain_api is not None and index % 2:
            untraced(item)
        latency, out = timed(api, item)
        loop.latencies.append(latency)
        loop.executed.append(item)
        if isinstance(out, Exception):
            loop.outcomes.append(out)
        else:
            summary = workload.summarize(out)
            if item.id in firsts:
                loop.outcomes.append(workload.fingerprint(summary) == firsts[item.id])
            else:
                firsts[item.id] = workload.fingerprint(summary)
                loop.outcomes.append(summary)
        del out
        loop.collect.append(_collect())
        if plain_api is not None and index % 2 == 0:
            untraced(item)
        since_sample += latency + (loop.paired[-1] if plain_api is not None else 0.0)
        if since_sample >= SAMPLE_EVERY_S:
            loop.sample()
            since_sample = 0.0

    _collect()
    loop.sample()
    for item in workload.prologue:
        one(item)
    position = 0
    while True:
        one(workload.cycle[position % len(workload.cycle)])
        position += 1
        if position % workload.round_size == 0:
            end = len(loop.executed)
            loop.rounds.append((end - workload.round_size, end))
            if sum(loop.latencies) >= seconds:
                break
    loop.sample()
    return loop


def _check_outputs(workload, loop):
    """Verify each distinct item's first output against its reference;
    a repeat fails when it did not match its first run. Returns (failed
    count, unexpected failures, failure notes)."""
    verdicts = {}
    failed, unexpected, notes = 0, 0, []
    for item, outcome in zip(loop.executed, loop.outcomes):
        if isinstance(outcome, Exception):
            problems = [f"raised {type(outcome).__name__}: {outcome}"]
        elif outcome is True:
            problems = verdicts[item.id]
        elif outcome is False:
            problems = ["output differs from the item's first run"]
        else:
            problems = verdicts[item.id] = workload.verify(item, outcome)
        if problems:
            failed += 1
            if not workload.known_defect(item, problems):
                unexpected += 1
            note = f"{item.id}: {problems[0]}"
            if note not in notes:
                notes.append(note)
    return failed, unexpected, notes


def _peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(which).ru_maxrss / 1024.0


def _median_subprocess_ms(argv, env, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _write_out(name, payload):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with gzip.open(os.path.join(out_dir, name), "wt", encoding="utf-8") as f:
        json.dump(payload, f)


def _item_table(loop, scales):
    """Per distinct item: its properties, runs, unscaled and scaled total
    milliseconds, and the milliseconds spent collecting its garbage."""
    table = {}
    for item, latency, collect, scale in zip(loop.executed, loop.latencies, loop.collect,
                                             scales):
        row = table.setdefault(item.id, {"kind": item.kind, "props": item.props, "runs": 0,
                                         "total_ms": 0.0, "scaled_ms": 0.0, "gc_ms": 0.0})
        row["runs"] += 1
        row["total_ms"] += latency * 1e3
        row["scaled_ms"] += latency * scale * 1e3
        row["gc_ms"] += collect * 1e3
    return table


def main(argv=None) -> int:
    args = _parse_args(argv)
    # One CPU for the benchmark and its children, so that the reference
    # samples measure the CPU the items run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = _import_rclc()
    import stats
    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup = _Loop()
    setup.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup.latencies.append(time.perf_counter() - t0)
        setup.sample()
    setup_s = import_s * setup.scales()[0] + statistics.median(setup.scaled())

    if args.trace:
        tracer = Tracer()
        api = _traced_api(tracer, workloads)
        workload.in_process = True
        try:
            loop = _timed_loop(workload, api, args.seconds, _kernel_slowness,
                               tracer=tracer, plain_api=_api(workloads))
        finally:
            tracer.restore()
        scales = loop.scales()
        metrics = layer_metrics(tracer.spans, scales)
        # paired differences: each item traced and untraced, back to back
        metrics["trace.overhead_ms"] = statistics.median(
            (t - p) * f for t, p, f in zip(loop.latencies, loop.paired, scales)) * 1e3
        metrics["trace.overhead_pct"] = 100.0 * statistics.median(
            (t - p) / p for t, p in zip(loop.latencies, loop.paired))
        metrics["gc.collect_ms"] = statistics.fmean(loop.scaled(loop.collect)) * 1e3
        metrics["cli.interp_start_ms"] = metrics["cli.import_ms"] = 0.0
        if args.workload == "fixtures_cli":
            scale = statistics.median(scales)
            start = _median_subprocess_ms([sys.executable, "-c", "pass"], workload.env)
            imported = _median_subprocess_ms(
                [sys.executable, "-c", "import rclc.cli"], workload.env)
            metrics["cli.interp_start_ms"] = start * scale
            metrics["cli.import_ms"] = (imported - start) * scale
        _write_out(f"trace-{args.workload}-s{args.seed}.json.gz", {
            "items": _item_table(loop, scales),
            "spans": [span.as_list() for span in tracer.spans],
        })
        report = {name: (metrics[name], unit) for name, unit in PER_LAYER}
    else:
        reference = (_kernel_slowness if workload.in_process
                     else functools.partial(_start_slowness, workload))
        loop = _timed_loop(workload, _api(workloads), args.seconds, reference)
        rss = _peak_rss_mb(workload.rss_who)
        scales = loop.scales()
        latencies = loop.scaled()
        rates = [
            sum(workload.units(item) for item in loop.executed[a:b]) / sum(latencies[a:b])
            for a, b in loop.rounds
        ]
        n = len(latencies)
        print(f"{args.workload}: {n} items in {sum(loop.latencies):.2f} s of item time, "
              f"{len(rates)} rounds; tail is p{workload.tail_q} with "
              f"{stats.samples_beyond(n, workload.tail_q)} samples beyond; "
              f"{len(loop.samples)} reference samples, median scale "
              f"{statistics.median(scales):.3f}; unscaled p50 "
              f"{statistics.median(loop.latencies) * 1e3:.4g} ms; garbage collection off the "
              f"clock {sum(loop.collect):.2f} s, median "
              f"{statistics.median(loop.collect) * 1e3:.3g} ms per item", file=sys.stderr)
        _write_out(f"items-{args.workload}-s{args.seed}.json.gz",
                   {"items": _item_table(loop, scales)})
        report = {
            "throughput_per_s": (statistics.median(rates), "items/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (stats.percentile(latencies, workload.tail_q) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        }
    failed, unexpected, notes = _check_outputs(workload, loop)
    for note in notes:
        print(f"failed: {note}", file=sys.stderr)
    if not args.trace:
        report["ok_frac"] = ((len(loop.executed) - failed) / len(loop.executed), "ratio")
    report = {name: {"value": v, "unit": u} for name, (v, u) in report.items()}
    for name, metric in report.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(loop.executed),
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
