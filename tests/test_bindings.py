"""The package's and every module's public names, and the module
bindings the benchmark harness (perfbench/run.py) wraps or patches, all
still resolve."""

import importlib
import pkgutil
from pathlib import Path

import rclc
import rclc.simulator
from rclc.codegen import lower
from rclc.parser import parse_contract

# (module, attribute) pairs perfbench/run.py patches with its tracer
PATCHED = [
    ("rclc.cli", "parse_contract"),
    ("rclc.cli", "validate"),
    ("rclc.cli", "check"),
    ("rclc.cli", "lower"),
    ("rclc.cli", "emit_solidity"),
    ("rclc.cli", "run_script"),
    ("rclc.cli", "render_trace"),
    ("rclc.semantics", "validate"),
    ("rclc.codegen", "check"),
    ("rclc.parser", "tokenize"),
    ("rclc.simulator", "call"),
    ("rclc.ast", "iter_clauses"),
]


def test_public_names_resolve():
    missing = [name for name in rclc.__all__ if not hasattr(rclc, name)]
    assert missing == []


def test_module_public_names_resolve():
    modules = [
        importlib.import_module(f"rclc.{info.name}")
        for info in pkgutil.iter_modules(rclc.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_benchmark_bindings_resolve():
    missing = [
        f"{module}.{name}"
        for module, name in PATCHED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []



def test_run_script_calls_the_module_binding_once_per_line(monkeypatch):
    # perfbench counts simulator calls by patching rclc.simulator.call, so
    # run_script must look the binding up there on every call
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    contract = parse_contract((fixtures / "purchase_fixed.rcl").read_text()).contract
    ir = lower(contract)
    script = rclc.simulator.parse_script(
        (fixtures / "scripts" / "corrected_run.txt").read_text()
    )
    script = script + [("s", "buyProduct", 0)] * 5  # reverts count too
    seen = []
    original = rclc.simulator.call

    def counting(world, caller, function, value=0):
        seen.append((caller, function, value))
        return original(world, caller, function, value)

    monkeypatch.setattr(rclc.simulator, "call", counting)
    _world, records = rclc.simulator.run_script(
        ir, script, {"buyer": "b", "seller": "s", "bank": "k", "carrier": "c"},
        {"paymentAmount": 100, "shippingCosts": 10},
    )
    assert seen == script
    assert len(records) == len(script) == 17
