"""The package's and every module's public names, and the module
bindings the benchmark harness (perfbench/run.py) wraps or patches, all
still resolve."""

import importlib
import pkgutil

import rclc

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

