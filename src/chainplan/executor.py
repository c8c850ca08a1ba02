"""Execute validated plans against pluggable tool runtimes.

A runtime has ``coverage``, the tool names it runs, and ``invoke(tool_name,
arguments) -> value``. Arguments map names to the JSON values the plan holds
(string, number, boolean, null or dict; an array is a tuple, so no step can
change an array an earlier step stored), and a runtime returns such a value.
A runtime gets a copy of its arguments that shares nothing mutable with the
plan, a stored output, the trace or another argument: every dict, list and
tuple is rebuilt, JSON scalars are immutable and pass as they are, and any
other value goes through ``copy.deepcopy``. So a runtime cannot change the
plan, an earlier step's stored output or the arguments the trace records.

Steps run strictly in order; every ``$$PREV[i]`` resolves to step i's stored
output, never by re-invoking the tool, and results are not fed back to any
planner. Arithmetic and comparison operators are available both directly, as
:func:`apply_operator`, and as built-in pseudo-tools (op_add, op_gt, ...) so
plans can chain output manipulations through references. :class:`StubRuntime`
runs the fixture's tools and the pseudo-tools itself; another runtime that
covers them calls :func:`apply_operator` the same way.
"""

from __future__ import annotations

import copy
import json
import operator
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from .plan import Plan, map_refs, validate_refs
from .registry import ArgSpec, Registry, ToolSpec, primitive


class ExecutionError(RuntimeError):
    def __init__(self, message: str, step: int | None = None):
        super().__init__(f"step {step}: {message}" if step is not None else message)
        self.step = step


class OperatorError(ValueError):
    pass


@dataclass
class ExecutionStep:
    tool_name: str
    arguments: dict[str, Any]
    output: Any
    duration_s: float


@dataclass
class ExecutionTrace:
    steps: list[ExecutionStep] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps([asdict(step) for step in self.steps], indent=2)


def execute(plan: Plan, runtime) -> ExecutionTrace:
    """Run the plan sequentially on the runtime.

    Pre-flight: every tool must be covered by the runtime and
    :func:`validate_refs` must find no bad or malformed reference; nothing is
    invoked if either check fails. A ``$$PREV[i]`` resolves to
    ``trace.steps[i].output``: the trace is the one store of outputs.
    Deterministic given a deterministic runtime.
    """
    uncovered = [call.tool_name for call in plan.calls if call.tool_name not in runtime.coverage]
    if uncovered:
        raise ExecutionError(f"runtime does not cover tools: {sorted(set(uncovered))}")
    bad_refs = validate_refs(plan)
    if bad_refs:
        raise ExecutionError(f"plan has invalid references: {bad_refs[0].message}")
    trace = ExecutionTrace()
    for step, call in enumerate(plan.calls):
        resolved = {name: map_refs(value, lambda ref: trace.steps[ref.index].output)
                    for name, value in call.arguments}
        started = time.monotonic()
        try:
            output = runtime.invoke(call.tool_name, _copy(resolved))
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(f"{call.tool_name} failed: {exc}", step=step) from exc
        trace.steps.append(ExecutionStep(tool_name=call.tool_name, arguments=resolved, output=output,
                                         duration_s=time.monotonic() - started))
    return trace


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _copy(value: Any) -> Any:
    """A copy of ``value`` that shares nothing mutable with it, built for the
    JSON values a plan holds; deep-copies any other value."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict:
        return {_copy(key): _copy(item) for key, item in value.items()}
    if kind is list:
        return [_copy(item) for item in value]
    if kind is tuple:
        return tuple([_copy(item) for item in value])
    return copy.deepcopy(value)


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
ALL_OPS = tuple(_OPERATORS)


def _kind(value: Any, op: str) -> str:
    """An operand's kind: "boolean", "number" or "text" (null included)."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, (tuple, list, dict)):
        raise OperatorError(f"{op} requires scalar operands")
    return "text"


def apply_operator(op: str, a: Any, b: Any) -> Any:
    """Standard semantics; floor division truncates toward negative infinity
    and the modulus sign follows the divisor, so a = b*q + r always holds."""
    if op not in _OPERATORS:
        raise OperatorError(f"unknown operator {op!r}")
    kind_a, kind_b = _kind(a, op), _kind(b, op)
    if op in _ARITHMETIC:
        if kind_a != "number" or kind_b != "number":
            raise OperatorError(f"{op} requires numeric operands, got {kind_a}/{kind_b}")
        if op in ("div", "floordiv", "mod") and b == 0:
            raise OperatorError(f"{op} by zero")
    elif op in ("eq", "neq"):
        if kind_a != kind_b:
            raise OperatorError(f"{op} requires operands of the same kind, got {kind_a}/{kind_b}")
    elif a is None or b is None:
        raise OperatorError(f"{op} cannot order null")
    elif kind_a != kind_b or kind_a == "boolean":
        # ordered comparisons: both numeric or both text
        raise OperatorError(f"{op} requires two numbers or two strings, got {kind_a}/{kind_b}")
    try:
        # an int power is computed in full, so one that no float holds is refused uncomputed
        if op == "pow" and isinstance(a, int) and isinstance(b, int) and b > 0 and (abs(a).bit_length() - 1) * b > 1024:
            raise OverflowError
        result = _OPERATORS[op](a, b)
    except OverflowError:
        raise OperatorError(f"{op} result out of range") from None
    except ZeroDivisionError:
        raise OperatorError(f"{op} by zero") from None
    if isinstance(result, complex):
        raise OperatorError(f"{op} has no real result for {a!r} and {b!r}")
    # JSON writes no infinite or NaN float, nor an int past the largest float, as a number
    if not abs(result) <= sys.float_info.max:
        raise OperatorError(f"{op} result out of range")
    return result


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


def _work_item(item_id: str, title: str) -> dict:
    return {"type": "WorkItem", "id": item_id, "title": title}


def _objects(arguments: dict[str, Any]) -> tuple:
    objects = arguments.get("objects", ())
    return tuple(objects) if isinstance(objects, (tuple, list)) else (objects,)


_STUB_TOOLS = {
    "who_am_i": lambda _: "USER-001",
    "get_sprint_id": lambda _: "SPRINT-42",
    "works_list": lambda _: (_work_item("ITEM-001", "Fix login flow"),
                             _work_item("ITEM-002", "Update billing page")),
    "prioritize_objects": lambda arguments: tuple(reversed(_objects(arguments))),
    "summarize_objects": lambda arguments: (
        {"type": "Summary", "text": f"{len(_objects(arguments))} objects summarized"},),
    "add_work_items_to_sprint": lambda _: True,
    "get_similar_work_items": lambda _: (_work_item("ITEM-003", "Similar: login timeout"),),
    "search_object_by_name": lambda _: "OBJ-007",
    "create_actionable_tasks_from_text": lambda _: (_work_item("TASK-001", "Follow up on notes"),),
}


class StubRuntime:
    """Deterministic synthetic runtime for the bundled nine-tool fixture:
    ``_STUB_TOOLS`` maps each tool to its output given the arguments (a lone
    ``objects`` value counts as one object), and an op_* pseudo-tool applies
    :func:`apply_operator` to its ``a`` and ``b``. The values are
    implementer-authored test data; no service is contacted."""

    coverage = frozenset(_STUB_TOOLS) | frozenset(f"op_{op}" for op in ALL_OPS)

    def invoke(self, tool_name: str, arguments: dict[str, Any]) -> Any:
        if tool_name in _STUB_TOOLS:
            return _STUB_TOOLS[tool_name](arguments)
        if tool_name not in self.coverage:
            raise ExecutionError(f"stub runtime does not cover {tool_name!r}")
        if "a" not in arguments or "b" not in arguments:
            raise OperatorError(f"{tool_name} needs arguments a and b")
        return apply_operator(tool_name.removeprefix("op_"), arguments["a"], arguments["b"])
