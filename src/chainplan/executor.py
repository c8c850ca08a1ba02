"""Execute validated plans against pluggable tool runtimes.

Steps run strictly in order; every ``$$PREV[i]`` resolves to step i's stored
output, never by re-invoking the tool, and results are not fed back to any
planner. Arithmetic and comparison operators are available both directly and
as built-in pseudo-tools (op_add, op_gt, ...) so plans can chain output
manipulations through references.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field
from typing import Any

from .plan import ListOf, Literal, Plan, PrevRef, validate_refs
from .registry import ArgSpec, Registry, ToolSpec, primitive


class ExecutionError(RuntimeError):
    def __init__(self, message: str, step: int | None = None):
        super().__init__(f"step {step}: {message}" if step is not None else message)
        self.step = step


class OperatorError(ValueError):
    pass


@dataclass(frozen=True)
class Scalar:
    value: Any  # number, text, or boolean

    @property
    def kind(self) -> str:
        if isinstance(self.value, bool):
            return "boolean"
        if isinstance(self.value, (int, float)):
            return "number"
        return "text"


@dataclass(frozen=True)
class ListVal:
    elements: tuple

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class OpaqueObject:
    type_name: str
    payload: dict


RuntimeValue = Scalar | ListVal | OpaqueObject


def _to_runtime(value: Any) -> RuntimeValue:
    if isinstance(value, dict):
        return OpaqueObject(type_name="object", payload=value)
    if isinstance(value, list):
        return ListVal(tuple(_to_runtime(v) for v in value))
    return Scalar(value)


def _to_plain(value: RuntimeValue) -> Any:
    if isinstance(value, Scalar):
        return value.value
    if isinstance(value, ListVal):
        return [_to_plain(v) for v in value.elements]
    return {"type": value.type_name, **value.payload}


@dataclass
class ExecutionStep:
    tool_name: str
    arguments: dict[str, RuntimeValue]
    output: RuntimeValue
    duration_s: float


@dataclass
class ExecutionTrace:
    steps: list[ExecutionStep] = field(default_factory=list)

    @property
    def outputs(self) -> list[RuntimeValue]:
        return [step.output for step in self.steps]

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "tool_name": step.tool_name,
                    "arguments": {k: _to_plain(v) for k, v in step.arguments.items()},
                    "output": _to_plain(step.output),
                    "duration_s": step.duration_s,
                }
                for step in self.steps
            ],
            indent=2,
        )


def _resolve(value, outputs: list[RuntimeValue], step: int) -> RuntimeValue:
    if isinstance(value, PrevRef):
        if not 0 <= value.index < len(outputs):
            raise ExecutionError(f"unresolvable reference $$PREV[{value.index}]", step=step)
        return outputs[value.index]
    if isinstance(value, ListOf):
        return ListVal(tuple(_resolve(item, outputs, step) for item in value.elements))
    if isinstance(value, Literal):
        return _to_runtime(value.value)
    raise ExecutionError(f"unknown argument value {value!r}", step=step)


def execute(plan: Plan, runtime) -> ExecutionTrace:
    """Run the plan sequentially on the runtime.

    Pre-flight: every tool must be covered by the runtime and
    :func:`validate_refs` must find no bad or malformed reference; nothing is
    invoked if either check fails. Deterministic given a deterministic runtime.
    """
    uncovered = [call.tool_name for call in plan.calls if call.tool_name not in runtime.coverage]
    if uncovered:
        raise ExecutionError(f"runtime does not cover tools: {sorted(set(uncovered))}")
    bad_refs = validate_refs(plan)
    if bad_refs:
        raise ExecutionError(f"plan has invalid references: {bad_refs[0].message}")
    trace = ExecutionTrace()
    for step, call in enumerate(plan.calls):
        resolved = {name: _resolve(value, trace.outputs, step) for name, value in call.arguments}
        started = time.monotonic()
        try:
            output = runtime.invoke(call.tool_name, resolved)
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(f"{call.tool_name} failed: {exc}", step=step) from exc
        trace.steps.append(
            ExecutionStep(
                tool_name=call.tool_name,
                arguments=resolved,
                output=output,
                duration_s=time.monotonic() - started,
            )
        )
    return trace


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

_ARITHMETIC = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
    "floordiv": operator.floordiv, "pow": operator.pow, "mod": operator.mod,
}
_COMPARISON = {
    "gt": operator.gt, "lt": operator.lt, "ge": operator.ge, "le": operator.le,
    "eq": operator.eq, "neq": operator.ne,
}
_OPERATORS = {**_ARITHMETIC, **_COMPARISON}
ARITHMETIC_OPS = tuple(_ARITHMETIC)
COMPARISON_OPS = tuple(_COMPARISON)
ALL_OPS = tuple(_OPERATORS)


def _numeric(value: Scalar) -> bool:
    return value.kind == "number"


def apply_operator(op: str, a: RuntimeValue, b: RuntimeValue) -> Scalar:
    """Standard semantics; floor division truncates toward negative infinity
    and the modulus sign follows the divisor, so a = b*q + r always holds."""
    if op not in _OPERATORS:
        raise OperatorError(f"unknown operator {op!r}")
    if not isinstance(a, Scalar) or not isinstance(b, Scalar):
        raise OperatorError(f"{op} requires scalar operands")
    if op in _ARITHMETIC:
        if not (_numeric(a) and _numeric(b)):
            raise OperatorError(f"{op} requires numeric operands, got {a.kind}/{b.kind}")
        if op in ("div", "floordiv", "mod") and b.value == 0:
            raise OperatorError(f"{op} by zero")
    elif op in ("eq", "neq"):
        if a.kind != b.kind:
            raise OperatorError(f"{op} requires operands of the same kind, got {a.kind}/{b.kind}")
    elif a.kind != b.kind or a.kind == "boolean":
        # ordered comparisons: both numeric or both text
        raise OperatorError(f"{op} requires two numbers or two strings, got {a.kind}/{b.kind}")
    return Scalar(_OPERATORS[op](a.value, b.value))


def operator_tool_specs() -> list[ToolSpec]:
    """Pseudo-tool specs for every operator (op_add, op_gt, ...)."""
    number = primitive("float")
    operands = (
        ArgSpec("a", "left operand", number, required=True),
        ArgSpec("b", "right operand", number, required=True),
    )
    return [
        ToolSpec(
            name=f"op_{op}",
            description=(f"Applies {op} to two numeric operands and returns the result" if op in _ARITHMETIC
                         else f"Compares two operands with {op} and returns a boolean"),
            arguments=operands,
            returns=number if op in _ARITHMETIC else primitive("boolean"),
        )
        for op in ALL_OPS
    ]


def register_operator_tools(registry: Registry) -> Registry:
    """New registry version with the operator pseudo-tools added; opt-in so
    retrieval corpora can include or exclude them."""
    specs = list(registry.tools.values()) + operator_tool_specs()
    return Registry.from_tools(specs, version=f"{registry.version}+ops")


class OperatorRuntime:
    """Covers the op_* pseudo-tools."""

    def __init__(self):
        self.coverage = frozenset(f"op_{op}" for op in ALL_OPS)

    def invoke(self, tool_name: str, arguments: dict[str, RuntimeValue]) -> RuntimeValue:
        op = tool_name.removeprefix("op_")
        if "a" not in arguments or "b" not in arguments:
            raise OperatorError(f"{tool_name} needs arguments a and b")
        return apply_operator(op, arguments["a"], arguments["b"])


def _work_item(item_id: str, title: str) -> OpaqueObject:
    return OpaqueObject(type_name="WorkItem", payload={"id": item_id, "title": title})


class StubRuntime:
    """Deterministic synthetic runtime for the bundled nine-tool fixture;
    values are implementer-authored test data, no service is contacted."""

    def __init__(self):
        self._operators = OperatorRuntime()
        self.coverage = self._operators.coverage | {
            "works_list", "summarize_objects", "prioritize_objects",
            "add_work_items_to_sprint", "get_sprint_id", "get_similar_work_items",
            "search_object_by_name", "create_actionable_tasks_from_text", "who_am_i",
        }

    def invoke(self, tool_name: str, arguments: dict[str, RuntimeValue]) -> RuntimeValue:
        if tool_name in self._operators.coverage:
            return self._operators.invoke(tool_name, arguments)
        if tool_name == "who_am_i":
            return Scalar("USER-001")
        if tool_name == "get_sprint_id":
            return Scalar("SPRINT-42")
        if tool_name == "works_list":
            return ListVal((_work_item("ITEM-001", "Fix login flow"),
                            _work_item("ITEM-002", "Update billing page")))
        if tool_name == "prioritize_objects":
            objects = arguments.get("objects", ListVal(()))
            if not isinstance(objects, ListVal):
                objects = ListVal((objects,))
            return ListVal(tuple(reversed(objects.elements)))
        if tool_name == "summarize_objects":
            objects = arguments.get("objects", ListVal(()))
            count = len(objects) if isinstance(objects, ListVal) else 1
            return ListVal((OpaqueObject("Summary", {"text": f"{count} objects summarized"}),))
        if tool_name == "add_work_items_to_sprint":
            return Scalar(True)
        if tool_name == "get_similar_work_items":
            return ListVal((_work_item("ITEM-003", "Similar: login timeout"),))
        if tool_name == "search_object_by_name":
            return Scalar("OBJ-007")
        if tool_name == "create_actionable_tasks_from_text":
            return ListVal((_work_item("TASK-001", "Follow up on notes"),))
        raise ExecutionError(f"stub runtime does not cover {tool_name!r}")
