"""In-memory spans around calls into rclc, and the per-layer metrics
derived from them.

A span is (name, start, end, parent index, item index, counters, and the
time spent inside it evaluating its children's counters). The
tracer wraps public functions where they are looked up: the benchmark's
own calls go through a wrapped function, and each rclc module that binds
a name of its own (`rclc.codegen.check`, `rclc.cli.check`, ...) gets its
attribute replaced while a traced item runs.
"""

from __future__ import annotations

import functools
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "counts", "counting")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.counts = None
        self.counting = 0.0

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.item, self.counts,
                self.counting]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, result)`, if
        given, returns counters stored on the span. It runs after the span
        has ended, and its time is recorded on the enclosing span so that
        no layer's time includes it."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.item)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                began = clock()
                span.counts = count(args, result)
                if stack:
                    spans[stack[-1]].counting += clock() - began
            return result

        return traced

    def patch(self, module, attr, name, count=None):
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        self._patched.append((module, attr, original, wrapped))
        setattr(module, attr, wrapped)

    def install(self):
        """Put the wrappers back after `restore`."""
        for module, attr, _original, wrapped in self._patched:
            setattr(module, attr, wrapped)

    def restore(self):
        for module, attr, original, _wrapped in reversed(self._patched):
            setattr(module, attr, original)


def inclusive_times(spans) -> list[float]:
    """Each span's duration minus the counter evaluation done inside it or
    inside any of its descendants."""
    counting = [span.counting for span in spans]
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index].parent
        if parent is not None:
            counting[parent] += counting[index]
    return [(span.end - span.start) - c for span, c in zip(spans, counting)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (overlapping children are merged first) and minus the
    counter evaluation done in it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered - span.counting)
    return out


PER_LAYER = (
    ("parser.parse_ms", "ms"),
    ("parser.tokens", "count"),
    ("parser.tokens_per_s", "tokens/s"),
    ("ast.validate_ms", "ms"),
    ("ast.clause_nodes", "count"),
    ("checker.check_ms", "ms"),
    ("checker.states", "count"),
    ("checker.transitions", "count"),
    ("checker.us_per_state", "us"),
    ("checker.conflicts", "count"),
    ("checker.calls", "count"),
    ("semantics.events", "count"),
    ("semantics.replay_ms", "ms"),
    ("semantics.steps", "count"),
    ("codegen.lower_ms", "ms"),
    ("codegen.lower_self_ms", "ms"),
    ("codegen.emit_ms", "ms"),
    ("codegen.ir_states", "count"),
    ("codegen.ir_flags", "count"),
    ("codegen.ir_functions", "count"),
    ("codegen.sol_bytes", "bytes"),
    ("simulator.run_script_ms", "ms"),
    ("simulator.calls", "count"),
    ("simulator.revert_frac", "ratio"),
    ("simulator.render_ms", "ms"),
    ("simulator.cosim_ms", "ms"),
    ("simulator.call_us_growth", "ratio"),
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("gc.collect_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _growth(durations, window=1000) -> float | None:
    if len(durations) < 2 * window:
        return None
    first = sum(durations[:window])
    return sum(durations[-window:]) / first if first > 0 else None


def layer_metrics(spans, item_scale=None) -> dict[str, float]:
    """Per-layer metrics from one traced run. Times are means per call of
    the layer's function and counts are means per call, except where the
    name says otherwise; a layer that never ran reports 0. A span's times
    are multiplied by `item_scale[span.item]` when that list is given."""
    factor = [1.0] * len(spans) if item_scale is None else [item_scale[s.item] for s in spans]
    own = [t * f for t, f in zip(self_times(spans), factor)]
    inclusive = [t * f for t, f in zip(inclusive_times(spans), factor)]
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def total(i):
        return inclusive[i]

    def ms(name, inclusive=False):
        picks = by_name.get(name, ())
        return _mean((total(i) if inclusive else own[i]) * 1e3 for i in picks)

    def count(name, key):
        return _mean(spans[i].counts[key] for i in by_name.get(name, ()))

    m = {}
    parses = by_name.get("parser.parse", ())
    tokens = sum(spans[i].counts["tokens"] for i in by_name.get("parser.tokenize", ()))
    parse_s = sum(total(i) for i in parses)
    m["parser.parse_ms"] = ms("parser.parse", inclusive=True)
    m["parser.tokens"] = tokens / len(parses) if parses else 0.0
    m["parser.tokens_per_s"] = tokens / parse_s if parse_s > 0 else 0.0
    m["ast.validate_ms"] = ms("ast.validate")
    m["ast.clause_nodes"] = count("ast.validate", "clause_nodes")

    checks = by_name.get("checker.check", ())
    states = sum(spans[i].counts["states"] for i in checks)
    m["checker.check_ms"] = ms("checker.check")
    m["checker.states"] = count("checker.check", "states")
    m["checker.transitions"] = count("checker.check", "transitions")
    m["checker.us_per_state"] = (
        sum(own[i] for i in checks) * 1e6 / states if states else 0.0
    )
    m["checker.conflicts"] = count("checker.check", "conflicts")
    lowering_items = {spans[i].item for i in by_name.get("codegen.lower", ())}
    m["checker.calls"] = (
        sum(1 for i in checks if spans[i].item in lowering_items) / len(lowering_items)
        if lowering_items else 0.0
    )
    m["semantics.events"] = count("checker.check", "events")
    m["semantics.replay_ms"] = ms("semantics.replay")
    m["semantics.steps"] = count("semantics.replay", "steps")

    m["codegen.lower_ms"] = ms("codegen.lower", inclusive=True)
    m["codegen.lower_self_ms"] = ms("codegen.lower")
    m["codegen.emit_ms"] = ms("codegen.emit")
    for key in ("ir_states", "ir_flags", "ir_functions"):
        m[f"codegen.{key}"] = count("codegen.lower", key)
    m["codegen.sol_bytes"] = count("codegen.emit", "sol_bytes")

    runs = by_name.get("simulator.run_script", ())
    call_children: dict[int, list[int]] = {i: [] for i in runs}
    for i in by_name.get("simulator.call", ()):
        if spans[i].parent in call_children:
            call_children[spans[i].parent].append(i)
    calls = [i for kids in call_children.values() for i in kids]
    m["simulator.run_script_ms"] = ms("simulator.run_script", inclusive=True)
    m["simulator.calls"] = len(calls) / len(runs) if runs else 0.0
    m["simulator.revert_frac"] = (
        sum(1 for i in calls if not spans[i].counts) / len(calls) if calls else 0.0
    )
    m["simulator.render_ms"] = ms("simulator.render")
    m["simulator.cosim_ms"] = ms("simulator.cosim")
    growth = [
        g for kids in call_children.values()
        if (g := _growth([total(i) for i in kids])) is not None
    ]
    m["simulator.call_us_growth"] = _mean(growth)
    m["cli.main_ms"] = ms("cli.main", inclusive=True)
    return m
