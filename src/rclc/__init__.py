"""Contract-language toolchain: parse, check, generate, simulate."""

from .ast import Contract, ValidationIssue, pretty_print, validate
from .checker import CheckReport, Conflict, brute_force_oracle, check
from .codegen import FunctionIR, LowerError, MachineIR, emit_solidity, lower
from .parser import ParseError, ParseResult, parse_contract
from .semantics import (
    ContractSemantics,
    Lts,
    Norm,
    NormState,
    StepError,
    dump_lts,
    enumerate_reachable,
    event_universe,
    initial_state,
)
from .simulator import (
    CallRecord,
    SimError,
    World,
    call,
    co_simulate,
    deploy,
    parse_script,
    render_trace,
    run_script,
)

__version__ = "0.1.0"

__all__ = [
    "CallRecord",
    "CheckReport",
    "Conflict",
    "Contract",
    "ContractSemantics",
    "FunctionIR",
    "LowerError",
    "Lts",
    "MachineIR",
    "Norm",
    "NormState",
    "ParseError",
    "ParseResult",
    "SimError",
    "StepError",
    "ValidationIssue",
    "World",
    "brute_force_oracle",
    "call",
    "check",
    "co_simulate",
    "deploy",
    "dump_lts",
    "emit_solidity",
    "enumerate_reachable",
    "event_universe",
    "initial_state",
    "lower",
    "parse_contract",
    "parse_script",
    "pretty_print",
    "render_trace",
    "run_script",
    "validate",
    "__version__",
]
