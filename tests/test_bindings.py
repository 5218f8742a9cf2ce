"""The package's and every module's public names, and the module
bindings the benchmark harness (perfbench/run.py) wraps or patches, all
still resolve; the CLI calls through those bindings and loads only the
stages a command runs."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rclc
import rclc.cli
import rclc.simulator
from rclc.codegen import lower
from rclc.parser import parse_contract

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

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


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rclc.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        rclc.cli.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rclc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(rclc.__all__)


def test_benchmark_bindings_resolve():
    missing = [
        f"{module}.{name}"
        for module, name in PATCHED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_gen_and_sim_call_the_cli_bindings(monkeypatch, capsys):
    calls = []

    def spy(name):
        original = getattr(rclc.cli, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(rclc.cli, name, counted)

    for name in ("lower", "emit_solidity", "run_script", "render_trace"):
        spy(name)
    fixed = str(FIXTURES / "purchase_fixed.rcl")
    assert rclc.cli.main(["gen", fixed]) == 0
    assert calls == ["lower", "emit_solidity"]
    script = str(FIXTURES / "scripts" / "corrected_run.txt")
    sim = ["sim", fixed, "--script", script,
           "--amount", "paymentAmount=100", "--amount", "shippingCosts=10"]
    assert rclc.cli.main(sim) == 0
    assert calls == ["lower", "emit_solidity", "lower", "run_script", "render_trace"]
    capsys.readouterr()


def _stages_loaded(tmp_path, *argv):
    """The rclc modules in `sys.modules` when a `python -m rclc.cli` run
    exits, as written by an exit hook that a sitecustomize installs."""
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(lambda: open('loaded.txt', 'w').write(\n"
        "    ' '.join(name for name in sys.modules if name.startswith('rclc'))))\n"
    )
    path = f"{tmp_path}{os.pathsep}{ROOT / 'src'}"
    run = subprocess.run(
        [sys.executable, "-m", "rclc.cli", *argv, str(FIXTURES / "purchase_fixed.rcl")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return set((tmp_path / "loaded.txt").read_text().split())


def test_commands_load_only_their_stages(tmp_path):
    checked = _stages_loaded(tmp_path, "check")
    assert "rclc.checker" in checked
    assert not checked & {"rclc.codegen", "rclc.simulator", "rclc.lts"}
    generated = _stages_loaded(tmp_path, "gen")
    assert "rclc.codegen" in generated
    assert not generated & {"rclc.simulator", "rclc.lts"}
    simulated = _stages_loaded(
        tmp_path, "sim", "--script", str(FIXTURES / "scripts" / "corrected_run.txt"),
        "--amount", "paymentAmount=100", "--amount", "shippingCosts=10",
    )
    assert {"rclc.codegen", "rclc.simulator"} <= simulated
    assert "rclc.lts" not in simulated
    dumped = _stages_loaded(tmp_path, "dump-lts")
    assert "rclc.lts" in dumped
    assert not dumped & {"rclc.codegen", "rclc.simulator"}


def test_no_command_imports_dataclass_machinery():
    # `dataclasses` pulls in `inspect` and execs generated methods per
    # class, and `argparse` loads `gettext` and with it `locale`; a module
    # the interpreter's own start loaded does not count. A help request and
    # a usage error load none of them either.
    fixed = str(FIXTURES / "purchase_fixed.rcl")
    commands = [
        (["check", fixed], 0),
        (["gen", fixed], 0),
        (["sim", fixed, "--script", str(FIXTURES / "scripts" / "corrected_run.txt"),
          "--amount", "paymentAmount=100", "--amount", "shippingCosts=10"], 0),
        (["dump-ast", fixed], 0),
        (["dump-lts", fixed], 0),
        (["-h"], 0),
        (["sim", "--help"], 0),
        (["check", "--format", "xml", fixed], 2),
        (["sim", fixed], 2),
    ]
    child = (
        "import io, json, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "before = set(sys.modules)\n"
        "import rclc.cli, rclc.codegen, rclc.simulator\n"
        "commands = json.loads(sys.argv[1])\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        "    codes = [rclc.cli.main(argv) for argv, _code in commands]\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(codes != [code for _argv, code in commands])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stderr.split())
    assert {"rclc.checker", "rclc.codegen", "rclc.simulator"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext", "locale"}


def test_run_script_calls_the_module_binding_once_per_line(monkeypatch):
    # perfbench counts simulator calls by patching rclc.simulator.call, so
    # run_script must look the binding up there on every call
    contract = parse_contract((FIXTURES / "purchase_fixed.rcl").read_text()).contract
    ir = lower(contract)
    script = rclc.simulator.parse_script(
        (FIXTURES / "scripts" / "corrected_run.txt").read_text()
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
