"""A reference interpreter for the golden Solidity fixtures.

sim_long needs the expected outcome of every call in its long scripts,
including calls that pass the role and value checks and then revert on the
state guard or on a flag precondition. This module reads the committed
`.sol` file, which the code under test does not produce at run time, and
interprets the few statement forms the fixtures use: role modifiers,
`atState`, `require`, assignments to `state` and to flags, and calls to
private functions with `if` blocks. Reverts that happen before any
Solidity code runs use the simulator's documented messages.
"""

from __future__ import annotations

import re

_MODIFIER = re.compile(
    r"modifier (\w+)\(\) \{\s*require\(msg\.sender == (\w+), \"([^\"]*)\"\);")
_FUNCTION = re.compile(
    r"^    function (\w+)\(\) (external|private)((?: \w+(?:\([\w.]+\))?)*) \{\n(.*?)^    \}",
    re.M | re.S)
_INITIAL = re.compile(r"constructor\(.*?state = ContractState\.(\w+);", re.S)
_STATE_GUARD = re.compile(
    r"modifier atState\(ContractState _requiredState\) \{\s*"
    r"require\(state == _requiredState, \"([^\"]*)\"\);")
_REQUIRE = re.compile(r"require\((.*), \"([^\"]*)\"\);$")


class Fixture:
    """One golden contract: per function its payability, modifiers and
    body lines, plus the role modifiers and the initial state."""

    def __init__(self, sol: str, bindings: dict[str, str], amounts: dict[str, int]):
        self.roles = {name: (var, message) for name, var, message in _MODIFIER.findall(sol)}
        self.bindings = bindings
        self.amounts = amounts
        self.state_message = _STATE_GUARD.search(sol).group(1)
        self.initial = _INITIAL.search(sol).group(1)
        self.functions = {}
        self._memo = {}
        for name, visibility, modifiers, body in _FUNCTION.findall(sol):
            lines = [line.strip() for line in body.splitlines()]
            self.functions[name] = (
                visibility == "private",
                "payable" in modifiers.split(),
                modifiers.split(),
                [line for line in lines if line and not line.startswith(("emit ", "//"))],
            )

    def start(self):
        """The deployed contract's (state, set flags); every flag starts false."""
        return (self.initial, frozenset())

    def call(self, machine, caller: str, function: str, value: int, balance: int):
        """(machine after the call, (ok, revert message)) for `caller`
        holding `balance` calling `function` with `value`."""
        key = (machine, caller, function, value, balance)
        if key not in self._memo:
            self._memo[key] = self._call(machine, caller, function, value, balance)
        return self._memo[key]

    def _call(self, machine, caller, function, value, balance):
        private, payable, modifiers, body = self.functions[function]
        if private:
            return machine, (False, f"{function} is private")
        if value > balance:
            return machine, (False, "insufficient funds")
        if value > 0 and not payable:
            return machine, (False, f"{function} is not payable")
        state, flags = machine[0], set(machine[1])
        for modifier in modifiers:
            if modifier in self.roles:
                var, message = self.roles[modifier]
                if caller != self.bindings[var]:
                    return machine, (False, message)
            elif modifier.startswith("atState(") and state != modifier[22:-1]:
                return machine, (False, self.state_message)
        env = {"state": state, "flags": flags, "value": value}
        message = self._run(body, env)
        if message is not None:
            return machine, (False, message)
        return (env["state"], frozenset(env["flags"])), (True, None)

    def _run(self, lines, env):
        """Run statements; return a revert message or None."""
        skip = 0
        for line in lines:
            if skip:
                skip += line.endswith("{") - (line == "}")
                continue
            if line.startswith("if (") and line.endswith(") {"):
                skip = 0 if self._holds(line[4:-3], env) else 1
            elif line == "}":
                continue
            elif match := _REQUIRE.match(line):
                if not self._holds(match.group(1), env):
                    return match.group(2)
            elif line.startswith("state = ContractState."):
                env["state"] = line[len("state = ContractState."):-1]
            elif line.endswith(" = true;"):
                env["flags"].add(line[:-len(" = true;")])
            elif line.endswith("();"):
                message = self._run(self.functions[line[:-3]][3], env)
                if message is not None:
                    return message
            else:
                raise ValueError(f"unsupported statement in the fixture: {line}")
        return None

    def _holds(self, condition: str, env) -> bool:
        terms = [term.strip() for term in condition.split("&&")]
        return all(self._term(term, env) for term in terms)

    def _term(self, term: str, env) -> bool:
        if term.startswith("msg.value == "):
            return env["value"] == self.amounts[term[len("msg.value == "):]]
        if term.startswith("state == ContractState."):
            return env["state"] == term[len("state == ContractState."):]
        if term.startswith("!"):
            return term[1:] not in env["flags"]
        return term in env["flags"]
