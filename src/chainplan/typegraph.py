"""Directed tool-compatibility graph and ``$$PREV`` wrapping repair.

An edge of weight 1 from tool A to argument g of tool B means A's return type
equals g's type exactly; weight 2 means g is list-typed and A's return type
equals its element type. At most one edge can exist per (A, B, g) triple
because a type never equals a list of itself. The graph keeps only the types;
edges are computed from them when asked for.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .plan import ArgValue, Plan, PrevRef
from .registry import Registry, ValueType

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"
NOT_A_PREV_REF = "not_a_prev_ref"


@dataclass(frozen=True)
class TypeEdge:
    from_tool: str
    to_tool: str
    to_argument: str
    weight: int  # 1 = direct, 2 = list-wrapped


class TypeGraph:
    """Immutable after build; check/repair are pure and safe to share."""

    def __init__(self, returns: dict[str, ValueType], arguments: dict[str, dict[str, ValueType]]):
        self.tool_names = frozenset(returns)
        self._returns = returns
        self._arguments = arguments

    def edge_weight(self, from_tool: str, to_tool: str, argument: str) -> int | None:
        source = self._returns.get(from_tool)
        target = self._arguments.get(to_tool, {}).get(argument)
        if source is None or target is None:
            return None
        if target == source:
            return 1
        if target.is_list and target.element == source:
            return 2
        return None

    @property
    def edges(self) -> frozenset[TypeEdge]:
        """Every edge, found through an index of the tools by return type."""
        by_return: dict[ValueType, list[str]] = defaultdict(list)
        for tool, returns in self._returns.items():
            by_return[returns].append(tool)
        edges = set()
        for to_tool, arguments in self._arguments.items():
            for argument, target in arguments.items():
                feeds = [(1, target)] + ([(2, target.element)] if target.is_list else [])
                for weight, source in feeds:
                    for from_tool in by_return.get(source, ()):
                        edges.add(TypeEdge(from_tool, to_tool, argument, weight))
        return frozenset(edges)

    def dump(self) -> list[dict]:
        rows = [
            {"from": e.from_tool, "to": e.to_tool, "argument": e.to_argument, "weight": e.weight}
            for e in self.edges
        ]
        rows.sort(key=lambda r: (r["from"], r["to"], r["argument"]))
        return rows


def build_graph(registry: Registry) -> TypeGraph:
    """Edge (A, B, g) with weight 1 iff returns(A) = type(g), weight 2 iff
    type(g) = list of returns(A); no edge otherwise. Ordered pairs include
    A = B since a tool may feed a later call of itself."""
    return TypeGraph(
        {name: spec.returns for name, spec in registry.tools.items()},
        {name: {arg.name: arg.value_type for arg in spec.arguments} for name, spec in registry.tools.items()},
    )


@dataclass(frozen=True)
class CheckResult:
    status: str  # COMPATIBLE | INCOMPATIBLE | NOT_A_PREV_REF
    weight: int | None = None
    wrapping_mismatch: bool = False
    note: str | None = None

    @property
    def compatible(self) -> bool:
        return self.status == COMPATIBLE


def _edge_for(graph: TypeGraph, plan: Plan, position: int, ref: PrevRef, argument: str) -> tuple[int | None, str | None]:
    """(weight, error) for the edge feeding ``ref`` into the call's argument."""
    if not 0 <= ref.index < position:
        return None, f"reference $$PREV[{ref.index}] does not point strictly backwards"
    to_tool = plan.calls[position].tool_name
    from_tool = plan.calls[ref.index].tool_name
    if from_tool not in graph.tool_names or to_tool not in graph.tool_names:
        return None, "unknown tool"
    weight = graph.edge_weight(from_tool, to_tool, argument)
    if weight is None:
        return None, f"no type edge {from_tool} -> {to_tool}.{argument}"
    return weight, None


@dataclass(frozen=True)
class _RefValue:
    """How one argument value references earlier calls."""

    ref: PrevRef | None  # the one reference of a bare or singleton value
    wrapped: bool  # the value is an array
    weight: int | None  # weight of the edge the value sits on
    errors: tuple[str, ...]  # one per reference without a fitting edge

    @property
    def wrapping_mismatch(self) -> bool:
        return not self.errors and self.weight != (2 if self.wrapped else 1)


def _classify(graph: TypeGraph, plan: Plan, position: int, argument: str,
              value: ArgValue) -> _RefValue | None:
    """Classify a bare reference, a singleton array holding one, or a
    multi-element array holding some; ``None`` for any other value."""
    if isinstance(value, PrevRef):
        ref, wrapped = value, False
    elif isinstance(value, tuple) and any(isinstance(item, PrevRef) for item in value):
        if len(value) > 1:
            # Multi-element arrays: each referenced element needs its own
            # weight-2 edge; unwrapping would drop siblings.
            errors = []
            for item in value:
                if isinstance(item, PrevRef):
                    weight, error = _edge_for(graph, plan, position, item, argument)
                    if weight != 2:
                        errors.append(error or "array element without a list-wrapped edge")
            return _RefValue(None, True, 2, tuple(errors))
        ref, wrapped = value[0], True
    else:
        return None
    weight, error = _edge_for(graph, plan, position, ref, argument)
    return _RefValue(ref, wrapped, weight, () if weight is not None else (error,))


def check_ref(graph: TypeGraph, plan: Plan, position: int, argument: str) -> CheckResult:
    """Check the reference held by one argument of one call.

    Compatible with matching wrapping when a bare value sits on a weight-1
    edge or an array-wrapped value on a weight-2 edge; compatible with a
    wrapping-mismatch note when the edge exists but the wrapping disagrees.
    """
    value = plan.calls[position].argument(argument)
    if value is None:
        return CheckResult(status=NOT_A_PREV_REF, note=f"no argument {argument!r} on call {position}")
    found = _classify(graph, plan, position, argument, value)
    if found is None:
        return CheckResult(status=NOT_A_PREV_REF)
    if found.errors:
        return CheckResult(status=INCOMPATIBLE, note=found.errors[0])
    if found.wrapping_mismatch:
        note = "array where bare value required" if found.wrapped else "bare value where array required"
        return CheckResult(status=COMPATIBLE, weight=found.weight, wrapping_mismatch=True, note=note)
    return CheckResult(status=COMPATIBLE, weight=found.weight)


@dataclass(frozen=True)
class Repair:
    position: int
    argument: str
    action: str  # "wrapped" | "unwrapped" | "unrepaired"
    detail: str


def _repair_value(graph: TypeGraph, plan: Plan, position: int, argument: str,
                  value: ArgValue, repairs: list[Repair]) -> ArgValue:
    found = _classify(graph, plan, position, argument, value)
    if found is None:
        return value
    for error in found.errors:
        repairs.append(Repair(position, argument, "unrepaired", error))
    if not found.wrapping_mismatch:
        return value
    tool = plan.calls[position].tool_name
    ref = found.ref
    if found.wrapped:
        repairs.append(Repair(position, argument, "unwrapped",
                              f"[$$PREV[{ref.index}]] unwrapped to bare value for {tool}.{argument}"))
        return ref
    repairs.append(Repair(position, argument, "wrapped",
                          f"$$PREV[{ref.index}] wrapped into array for {tool}.{argument}"))
    return (ref,)


def repair_plan(graph: TypeGraph, plan: Plan) -> tuple[Plan, list[Repair]]:
    """Re-wrap every referenced value to match its edge weight.

    The tool sequence, tool names and all non-reference values are left
    unchanged; incompatible references stay untouched and are reported as
    unrepaired. Idempotent: repairing a repaired plan changes nothing.
    """
    repairs: list[Repair] = []
    calls: list = []
    for position, call in enumerate(plan.calls):
        new_args = tuple(
            (name, _repair_value(graph, plan, position, name, value, repairs))
            for name, value in call.arguments
        )
        calls.append(type(call)(tool_name=call.tool_name, arguments=new_args))
    return Plan(calls=tuple(calls)), repairs
