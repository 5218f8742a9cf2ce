"""Tests for the benchmark's own logic; they need neither rclc nor a
timed run, only the golden fixtures under fixtures/.

    python3 -m unittest discover -s perfbench/tests
"""

import itertools
import os
import random
import statistics
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import run  # noqa: E402
import solref  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ACCOUNTS = ["b", "s", "k", "c"]


def _fixture(contract, script):
    with open(os.path.join(ROOT, "fixtures", f"{contract}.sol"), encoding="utf-8") as f:
        sol = f.read()
    with open(os.path.join(ROOT, "fixtures", "scripts", f"{script}.txt"), encoding="utf-8") as f:
        base = gen.parse_script_lines(f.read())
    fixture = solref.Fixture(sol, {"buyer": "b", "seller": "s", "bank": "k", "carrier": "c"},
                             {"paymentAmount": 100, "shippingCosts": 10})
    return fixture, base


def _span(name, start, end, parent=None, item=0, counts=None):
    span = spans.Span(name, start, parent, item)
    span.end = end
    span.counts = counts
    return span


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (
            lambda s: gen.check_corpus(s, 2, (8, 10), (9,)),
            lambda s: gen.gen_corpus(s, 1),
        ):
            first, again = make(7), make(7)
            self.assertEqual([(i.id, i.text, i.props) for i in first],
                             [(i.id, i.text, i.props) for i in again])
            self.assertNotEqual([i.text for i in first], [i.text for i in make(8)])

    def test_script_is_deterministic_and_keeps_the_base_calls_in_order(self):
        fixture, base = _fixture("purchase_fixed", "corrected_run")
        args = (base, 400, fixture, ACCOUNTS, 1000)
        text, expect, props = gen.long_script(random.Random(3), *args)
        self.assertEqual(gen.long_script(random.Random(3), *args)[0], text)
        calls = gen.parse_script_lines(text)
        self.assertEqual(props["script_len"], 400)
        self.assertEqual(props["script_ok"], len(base))
        self.assertEqual([c for c, e in zip(calls, expect) if e[0]], base)
        # about half the fillers pass the role and value checks
        self.assertLess(abs(props["script_guarded_reverts"] / (400 - len(base)) - 0.5), 0.1)

    def test_reference_model_follows_the_golden_solidity(self):
        fixed, base = _fixture("purchase_fixed", "corrected_run")
        machine = fixed.start()
        for account, fn, value in base:
            machine, outcome = fixed.call(machine, account, fn, value, 1000)
            self.assertEqual(outcome, (True, None))
        self.assertEqual(machine[0], "Finalized")
        machine = fixed.start()
        machine, _ok = fixed.call(machine, "b", "buyProduct", 0, 1000)
        self.assertEqual(fixed.call(machine, "b", "buyProduct", 0, 1000)[1],
                         (False, "Estado invalido para essa acao"))
        self.assertEqual(fixed.call(machine, "s", "buyProduct", 0, 1000)[1],
                         (False, "Apenas o Comprador (b)"))
        self.assertEqual(fixed.call(machine, "b", "payProduct", 50, 1000)[1],
                         (False, "Valor do pagamento incorreto"))
        conflicted, base = _fixture("purchase_conflicted", "conflicted_run")
        machine = conflicted.start()
        outcomes = []
        for account, fn, value in base:
            machine, outcome = conflicted.call(machine, account, fn, value, 1000)
            outcomes.append(outcome)
        self.assertEqual(outcomes[-1],
                         (False, "Frete nao foi pago pelo vendedor a transportadora"))
        self.assertTrue(all(ok for ok, _m in outcomes[:-1]))
        self.assertEqual(machine[0], "PaymentNotified")
        self.assertEqual(conflicted.call(machine, "s", "sendProduct", 0, 1000)[1],
                         (False, "Produto ja foi enviado"))

    def test_events_property_matches_the_requested_size(self):
        rng = random.Random(1)
        for n in range(8, 15):
            self.assertEqual(gen.chain_contract(rng, n, "c").props["events"], n)
            self.assertEqual(gen.dense_contract(rng, n, "d").props["events"], n)
        for item in gen.gen_corpus(2, 2):
            self.assertLessEqual(item.props["events"], 8)
            self.assertEqual(2 ** item.props["events"], item.expect["states"])

    def test_planted_conflicts_match_exhaustive_search(self):
        """The closed-form answer agrees with trying every fired set."""
        rng = random.Random(5)
        for n in (6, 7, 8):
            for item in (gen.chain_contract(rng, n, "c"), gen.dense_contract(rng, n, "d")):
                clauses = item.expect["clauses"]
                leaves = {leaf.id: leaf for leaf, _r, _b in gen._occurrences(clauses)}
                events = sorted({(leaf.pair, leaf.action) for leaf in leaves.values()}
                                | _guards(clauses))
                smallest = {}
                for size in range(len(events) + 1):
                    for fired in itertools.combinations(events, size):
                        active = gen.active_leaves(clauses, fired)
                        for o, f in itertools.product(active, active):
                            lo, lf = leaves[o], leaves[f]
                            if (lo.kind, lf.kind) == ("O", "F") and \
                                    (lo.pair, lo.action) == (lf.pair, lf.action):
                                smallest.setdefault((o, f), frozenset(fired))
                self.assertEqual(smallest, item.expect["conflicts"])


def _guards(clauses):
    found, stack = set(), list(clauses)
    while stack:
        node = stack.pop()
        if isinstance(node, gen.And):
            stack.extend(node.parts)
        elif not isinstance(node, gen.Leaf):
            found.add((node.pair, node.action))
            stack.append(node.body)
    return found


class PercentileTest(unittest.TestCase):
    def test_tail_rule(self):
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(1000), 90)
        self.assertEqual(stats.tail_percentile(60), 83)
        self.assertEqual(stats.tail_percentile(28), 64)
        self.assertIsNone(stats.tail_percentile(10))
        for n in range(11, 300):
            q = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, q), 10)
            if q < 90:
                self.assertLess(stats.samples_beyond(n, q + 1), 10)

    def test_percentile_matches_statistics_inclusive(self):
        values = [random.Random(4).random() for _ in range(37)]
        values = [v * (i + 1) for i, v in enumerate(values)]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        for q, want in zip((25, 50, 75), quartiles):
            self.assertAlmostEqual(stats.percentile(values, q), want)
        self.assertEqual(stats.percentile([3.0], 90), 3.0)


class ScaleTest(unittest.TestCase):
    def test_each_item_scales_by_the_samples_around_it(self):
        loop = run._Loop()
        loop.latencies = [1.0, 1.0, 1.0]
        # sampled before item 0, after item 1, after item 2
        loop.samples = [(0, 0.8), (2, 1.2), (3, 2.0)]
        self.assertEqual(loop.scales(), [2 / 2.0, 2 / 2.0, 2 / 3.2])
        self.assertEqual(loop.scaled(), loop.scales())

    def test_layer_times_scale_per_item(self):
        trace = [_span("ast.validate", 0.0, 0.002, item=0, counts={"clause_nodes": 1}),
                 _span("ast.validate", 0.010, 0.012, item=1, counts={"clause_nodes": 1})]
        m = spans.layer_metrics(trace, item_scale=[1.0, 2.0])
        self.assertAlmostEqual(m["ast.validate_ms"], 3.0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_merged_direct_children(self):
        trace = [
            _span("outer", 0.0, 10.0),
            _span("a", 1.0, 3.0, parent=0),
            _span("b", 2.0, 4.0, parent=0),  # overlaps a: counted once
            _span("c", 5.0, 6.0, parent=0),
            _span("grandchild", 5.2, 5.8, parent=3),
        ]
        for got, want in zip(spans.self_times(trace), [6.0, 2.0, 2.0, 0.4, 0.6]):
            self.assertAlmostEqual(got, want)

    def test_counter_evaluation_is_kept_out_of_layer_times(self):
        trace = [
            _span("outer", 0.0, 10.0),
            _span("inner", 1.0, 3.0, parent=0),
            _span("leaf", 1.5, 2.0, parent=1),
        ]
        trace[0].counting = 1.0  # evaluating inner's counters, inside outer
        trace[1].counting = 0.25  # evaluating leaf's counters, inside inner
        for got, want in zip(spans.self_times(trace), [7.0, 1.25, 0.5]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(spans.inclusive_times(trace), [8.75, 1.75, 0.5]):
            self.assertAlmostEqual(got, want)

    def test_tracer_charges_counter_time_to_the_enclosing_span(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: None, lambda args, result: time.sleep(0.01))
        outer = tracer.wrap("outer", lambda: inner())
        outer()
        self.assertGreaterEqual(tracer.spans[0].counting, 0.01)
        self.assertLess(spans.self_times(tracer.spans)[0], 0.005)

    def test_tracer_links_nested_calls_and_items(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1, lambda args, result: {"arg": args[0]})
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        tracer.item = 4
        self.assertEqual(outer(1), 4)
        names = [(s.name, s.parent, s.item, s.counts) for s in tracer.spans]
        self.assertEqual(names, [("outer", None, 4, None), ("inner", 0, 4, {"arg": 1})])
        self.assertLessEqual(tracer.spans[0].start, tracer.spans[1].start)
        self.assertLessEqual(tracer.spans[1].end, tracer.spans[0].end)

    def test_patch_and_restore(self):
        holder = type("M", (), {"f": staticmethod(lambda: 1)})
        tracer = spans.Tracer()
        original = holder.f
        tracer.patch(holder, "f", "m.f")
        self.assertEqual(holder.f(), 1)
        self.assertEqual(len(tracer.spans), 1)
        tracer.restore()
        self.assertIs(holder.f, original)
        tracer.install()
        self.assertEqual(holder.f(), 1)
        self.assertEqual(len(tracer.spans), 2)
        tracer.restore()
        self.assertIs(holder.f, original)

    def test_layer_metrics_lower_self_time_and_check_calls(self):
        check_counts = {"states": 4, "transitions": 4, "conflicts": 0, "events": 2}
        trace = [
            _span("codegen.lower", 0.0, 0.010, item=0, counts={
                "ir_states": 3, "ir_flags": 1, "ir_functions": 2}),
            _span("checker.check", 0.001, 0.007, parent=0, item=0, counts=check_counts),
            _span("checker.check", 0.020, 0.026, item=0, counts=check_counts),
            _span("checker.check", 0.030, 0.036, item=1, counts=check_counts),
        ]
        m = spans.layer_metrics(trace)
        self.assertAlmostEqual(m["codegen.lower_ms"], 10.0)
        self.assertAlmostEqual(m["codegen.lower_self_ms"], 4.0)
        self.assertEqual(m["checker.calls"], 2)
        self.assertAlmostEqual(m["checker.us_per_state"], 18e3 / 12)
        self.assertEqual(m["simulator.call_us_growth"], 0.0)
        self.assertEqual(set(m) | {"cli.interp_start_ms", "cli.import_ms", "gc.collect_ms",
                                   "trace.overhead_ms", "trace.overhead_pct"},
                         {name for name, _unit in spans.PER_LAYER})

    def test_call_growth_compares_last_to_first_thousand_calls(self):
        trace = [_span("simulator.run_script", 0.0, 100.0)]
        t = 0.0
        for i in range(3000):
            step = 1.0 if i < 1000 else 2.0
            trace.append(_span("simulator.call", t, t + step * 1e-6, parent=0, counts=i % 2 == 0))
            t += 1e-5
        m = spans.layer_metrics(trace)
        self.assertAlmostEqual(m["simulator.call_us_growth"], 2.0, places=6)
        self.assertEqual(m["simulator.calls"], 3000)
        self.assertAlmostEqual(m["simulator.revert_frac"], 0.5)


if __name__ == "__main__":
    unittest.main()
