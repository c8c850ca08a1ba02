"""Plan wire format: ordered tool calls chained with ``$$PREV[i]`` references.

The wire format is a JSON array of calls::

    [{"tool_name": str,
      "arguments": [{"argument_name": str,
                     "argument_value": <scalar | "$$PREV[i]" | array | object>}]}]

An argument value is the value that was on the wire: a string, number,
boolean, null or object as JSON gives it, and each array a tuple. A whole
``"$$PREV[i]"`` string (0-indexed, ``i`` without a leading zero), at the top
of a value or inside arrays at any depth, decodes to :class:`PrevRef`, the one
wrapper a plan adds to JSON; every other string stays a string, and strings
inside objects are never references. Parsing and serialization are pure,
and plans are immutable. Every walk over a parsed value goes through
``leaves`` (each non-array value with its array depth) or ``map_refs`` (the
value with its references mapped).

The records a parse builds, :class:`PrevRef`, :class:`ToolCall`,
:class:`Plan` and :class:`ParseOutcome`, are frozen slotted dataclasses. Each
has a hand-written ``__init__`` with its fields' names, order and defaults,
which stores each field through its slot descriptor's ``__set__`` (read once,
by ``_slot_stores``) instead of the generated frozen ``__init__``'s
``object.__setattr__`` per field; equality, hashing, repr, ``replace``, copy
and pickle are the dataclass ones.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Any, Iterator

from .registry import Registry, load_json

# A canonical index, as the schema automaton spells it: no leading zero.
PREV_REF_PATTERN = re.compile(r"\$\$PREV\[(0|[1-9][0-9]*)\]")


def _slot_stores(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order: it
    stores past the frozen ``__setattr__`` without looking the name up."""
    return tuple(vars(cls)[field.name].__set__ for field in fields(cls))


@dataclass(frozen=True, slots=True)
class PrevRef:
    """Reference to the output of the ``index``-th call in the same plan."""

    index: int

    def __init__(self, index: int):
        _set_index(self, index)

    def render(self) -> str:
        return f"$$PREV[{self.index}]"


(_set_index,) = _slot_stores(PrevRef)


# An argument value: a JSON scalar or object, a PrevRef, or a tuple of
# argument values for a JSON array.
ArgValue = Any


@dataclass(frozen=True, slots=True)
class ToolCall:
    tool_name: str
    arguments: tuple[tuple[str, "ArgValue"], ...] = ()

    def __init__(self, tool_name: str, arguments: tuple[tuple[str, "ArgValue"], ...] = ()):
        _set_tool_name(self, tool_name)
        _set_arguments(self, arguments)

    def argument(self, name: str) -> "ArgValue | None":
        for arg_name, value in self.arguments:
            if arg_name == name:
                return value
        return None

    @property
    def argument_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.arguments)


_set_tool_name, _set_arguments = _slot_stores(ToolCall)


@dataclass(frozen=True, slots=True)
class Plan:
    calls: tuple[ToolCall, ...] = ()

    def __init__(self, calls: tuple[ToolCall, ...] = ()):
        _set_calls(self, calls)

    @property
    def tool_sequence(self) -> tuple[str, ...]:
        return tuple(call.tool_name for call in self.calls)


(_set_calls,) = _slot_stores(Plan)


@dataclass(frozen=True, slots=True)
class ParseOutcome:
    """Result of :func:`parse_plan`: exactly one of ok / invalid JSON /
    schema violation. Invalid JSON feeds the invalid-JSON-rate metric."""

    kind: str  # "ok" | "invalid_json" | "schema_violation"
    plan: Plan | None = None
    path: str | None = None
    detail: str | None = None

    def __init__(self, kind: str, plan: Plan | None = None, path: str | None = None, detail: str | None = None):
        _set_kind(self, kind)
        _set_plan(self, plan)
        _set_path(self, path)
        _set_detail(self, detail)

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


_set_kind, _set_plan, _set_path, _set_detail = _slot_stores(ParseOutcome)


class _Violation(Exception):
    def __init__(self, path: str, detail: str):
        super().__init__(f"{detail} (at {path})")
        self.path = path
        self.detail = detail


def _decode_value(raw: Any) -> ArgValue:
    if isinstance(raw, str):
        match = raw.startswith("$$PREV[") and PREV_REF_PATTERN.fullmatch(raw)
        if match:
            return PrevRef(int(match.group(1)))
    elif isinstance(raw, list):
        return tuple([_decode_value(item) for item in raw])
    # Scalars and objects stay as they are; prev-ref strings nested inside
    # objects are NOT recognized (references live at argument top level
    # or inside arrays).
    return raw


def _record_name(raw: Any, path: str, record: str, name_key: str, value_key: str) -> str:
    """The string name of a call or argument record, once its two keys are checked."""
    if not isinstance(raw, dict):
        raise _Violation(path, f"{record} must be a JSON object")
    if set(raw) != {name_key, value_key}:
        raise _Violation(path, f"{record} must have exactly {name_key} and {value_key}")
    if not isinstance(raw[name_key], str):
        raise _Violation(f"{path}/{name_key}", f"{name_key} must be a string")
    return raw[name_key]


def plan_from_data(data: Any) -> ParseOutcome:
    """Build a plan from already-decoded JSON data, checking the wire shape.
    A well-formed record, a ``dict`` of exactly its two keys whose name is a
    ``str``, passes one test without a keys view; any other record, a
    ``dict`` or ``str`` subclass included, goes through ``_record_name``,
    which accepts it or names what is wrong by its path."""
    try:
        if not isinstance(data, list):
            raise _Violation("", "plan must be a JSON array of calls")
        calls: list[ToolCall] = []
        for i, raw_call in enumerate(data):
            if not (type(raw_call) is dict and len(raw_call) == 2 and "arguments" in raw_call
                    and type(name := raw_call.get("tool_name")) is str):
                name = _record_name(raw_call, f"/{i}", "call", "tool_name", "arguments")
            raw_args = raw_call["arguments"]
            if not isinstance(raw_args, list):
                raise _Violation(f"/{i}/arguments", "arguments must be an array")
            arguments: dict[str, ArgValue] = {}
            for j, raw_arg in enumerate(raw_args):
                if not (type(raw_arg) is dict and len(raw_arg) == 2 and "argument_value" in raw_arg
                        and type(arg_name := raw_arg.get("argument_name")) is str):
                    arg_name = _record_name(raw_arg, f"/{i}/arguments/{j}", "argument", "argument_name",
                                            "argument_value")
                if arg_name in arguments:
                    raise _Violation(f"/{i}/arguments/{j}/argument_name", f"duplicate argument name {arg_name!r}")
                arguments[arg_name] = _decode_value(raw_arg["argument_value"])
            calls.append(ToolCall(name, tuple(arguments.items())))
        return ParseOutcome("ok", Plan(tuple(calls)))
    except _Violation as exc:
        return ParseOutcome("schema_violation", path=exc.path, detail=exc.detail)


def parse_plan(text: str) -> ParseOutcome:
    """Parse plan wire-format text; a non-finite number is invalid JSON.
    Forward/self references still parse; they are validated separately so
    metrics can score malformed plans."""
    try:
        data = load_json(text)
    except ValueError as exc:
        return ParseOutcome("invalid_json", detail=str(exc))
    return plan_from_data(data)


def leaves(value: ArgValue, depth: int = 0) -> Iterator[tuple[ArgValue, int]]:
    """Every value in ``value`` that holds no other value, a non-array value
    or an empty array, in order, with the number of arrays around it."""
    if isinstance(value, tuple) and value:
        for item in value:
            yield from leaves(item, depth + 1)
    else:
        yield value, depth


def map_refs(value: ArgValue, fn) -> ArgValue:
    """``value`` with each PrevRef, at any array depth, replaced by ``fn(ref)``."""
    if isinstance(value, PrevRef):
        return fn(value)
    if isinstance(value, tuple):
        return tuple([map_refs(item, fn) for item in value])
    return value


def plan_to_data(plan: Plan) -> list:
    return [
        {
            "tool_name": call.tool_name,
            "arguments": [
                {"argument_name": name, "argument_value": map_refs(value, PrevRef.render)}
                for name, value in call.arguments
            ],
        }
        for call in plan.calls
    ]


# The canonical JSON text of a plan, a sub-task list or a literal: no
# insignificant whitespace, ASCII only, and no NaN or infinity, which
# strict JSON does not have (``encode`` raises ValueError on them).
CANONICAL_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True, allow_nan=False)


def serialize_plan(plan: Plan) -> str:
    """Canonical single-line form (``CANONICAL_JSON``): key order tool_name
    then arguments, arguments in stored order. A hand-built plan holding a
    NaN or an infinity raises ValueError, as strict JSON has neither.

    Note: a hand-built string argument that happens to match the
    ``$$PREV[i]`` pattern is indistinguishable from a reference on the wire
    and re-parses as one; parsing never produces such strings.
    """
    return CANONICAL_JSON.encode(plan_to_data(plan))


def iter_prev_refs(value: ArgValue) -> Iterator[PrevRef]:
    """Yield every PrevRef in ``value``, including inside nested arrays."""
    return (leaf for leaf, _ in leaves(value) if isinstance(leaf, PrevRef))


@dataclass(frozen=True)
class RefDiagnostic:
    position: int
    argument: str | None  # None for the call's tool name
    index: int | None  # the referenced call, for a bad_reference
    # validate_refs: "unknown_tool" | "unknown_argument" | "bad_reference" | "malformed_reference";
    # typegraph.check_ref: "incompatible" | "wrapping";
    # typegraph.validate_plan adds "wrong_type" | "missing_required"
    kind: str
    message: str

    @property
    def is_error(self) -> bool:
        return self.kind != "wrapping"  # a wrapping mismatch is one repair_plan fixes


def _reference_findings(value: ArgValue, position: int, argument: str) -> Iterator[RefDiagnostic]:
    """Every reference in ``value``, at any list depth, that does not point
    strictly backwards or is malformed."""
    for leaf, _ in leaves(value):
        if isinstance(leaf, PrevRef):
            if not 0 <= leaf.index < position:
                way = "negative" if leaf.index < 0 else "self" if leaf.index == position else "forward/out-of-range"
                yield RefDiagnostic(position, argument, leaf.index, "bad_reference",
                                    f"{way} reference $$PREV[{leaf.index}] at call {position}")
        elif isinstance(leaf, str) and leaf.startswith("$$PREV") and not PREV_REF_PATTERN.fullmatch(leaf):
            yield RefDiagnostic(position, argument, None, "malformed_reference",
                                f"malformed reference {leaf!r} at call {position}")


def validate_refs(plan: Plan, registry: Registry | None = None) -> list[RefDiagnostic]:
    """The one definition of a hallucinated plan unit: one diagnostic per
    finding, in plan order. With a registry, an unknown tool or argument
    name; always, a ``$$PREV[i]`` at any list depth with ``i >= position`` or
    ``i < 0`` and a ``$$PREV``-prefixed string that is not a whole match."""
    out: list[RefDiagnostic] = []
    for position, call in enumerate(plan.calls):
        spec = None if registry is None else registry.get(call.tool_name)
        if registry is not None and spec is None:
            out.append(RefDiagnostic(position, None, None, "unknown_tool",
                                     f"unknown tool {call.tool_name!r} at call {position}"))
        for arg_name, value in call.arguments:
            if spec is not None and spec.argument(arg_name) is None:
                out.append(RefDiagnostic(position, arg_name, None, "unknown_argument",
                                         f"unknown argument {arg_name!r} for tool {call.tool_name!r} at call {position}"))
            out.extend(_reference_findings(value, position, arg_name))
    return out
