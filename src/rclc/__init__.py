"""Contract-language toolchain: parse, check, generate, simulate.

The names below are resolved on first use (PEP 562), so importing the
package, or `rclc.cli` for one command, loads only the stages in use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ast": ["Contract", "ValidationIssue", "pretty_print", "validate"],
    "checker": ["CheckReport", "Conflict", "brute_force_oracle", "check"],
    "codegen": ["FunctionIR", "LowerError", "MachineIR", "emit_solidity", "lower"],
    "parser": ["ParseError", "ParseResult", "parse_contract"],
    "semantics": ["ContractSemantics", "Lts", "Norm", "NormState", "StepError", "dump_lts",
                  "enumerate_reachable", "event_universe", "initial_state"],
    "simulator": ["CallRecord", "SimError", "World", "call", "co_simulate", "deploy",
                  "parse_script", "render_trace", "run_script"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value
