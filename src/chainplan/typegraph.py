"""Tool-compatibility graph, the one wiring check, ``$$PREV`` repair, and
the one plan validator.

An edge of weight 1 from tool A to argument g of tool B means A's return type
equals g's type exactly; weight 2 means g is list-typed and A's return type
equals its element type. At most one edge can exist per (A, B, g) triple
because a type never equals a list of itself. The graph is a view of the
registry, and edges are computed from it when asked for.

``check_ref`` gives the findings on the references one argument holds, and
both ``validate_plan`` and ``repair_plan`` act on them: an ``incompatible``
for each reference without a fitting edge, else at most one ``wrapping``. A
bare reference, or one alone in an array, may sit on either edge; a wrapping
that disagrees is a repairable mismatch. Any other reference nested d arrays
deep fits only if g's type less d list layers is A's return type.

``validate_plan`` gives every finding on a plan: ``validate_refs``'s names
and references, literal types, required arguments, and the first of
``check_ref``'s findings on each argument left clean. A literal's type is
the schema automaton's: this module keeps only the list depth, and each
literal under it fits when ``enforcer.literal_fits`` walks its canonical
text through the automaton's value states, so the validator and the decoder
read one grammar.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from .enforcer import literal_fits
from .plan import Plan, PrevRef, RefDiagnostic, iter_prev_refs, leaves, validate_refs
from .registry import Registry, ValueType


@dataclass(frozen=True)
class TypeEdge:
    from_tool: str
    to_tool: str
    to_argument: str
    weight: int  # 1 = direct, 2 = list-wrapped


def _layers(source: ValueType, target: ValueType) -> int | None:
    """How many list layers of ``target`` wrap ``source``, if any number does."""
    if (target.kind, target.name) == (source.kind, source.name) and target.depth >= source.depth:
        return target.depth - source.depth
    return None


class TypeGraph:
    """A view of one registry; check/repair are pure and safe to share."""

    def __init__(self, registry: Registry):
        self.registry = registry

    @property
    def edges(self) -> frozenset[TypeEdge]:
        """Every edge, found through an index of the tools by return type."""
        by_return: dict[ValueType, list[str]] = defaultdict(list)
        for spec in self.registry.tools.values():
            by_return[spec.returns].append(spec.name)
        edges = set()
        for to_spec in self.registry.tools.values():
            for arg in to_spec.arguments:
                for weight, source in ((1, arg.value_type), (2, arg.value_type.element)):
                    for from_tool in by_return.get(source, ()):
                        edges.add(TypeEdge(from_tool, to_spec.name, arg.name, weight))
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
    return TypeGraph(registry)


def _edge_for(graph: TypeGraph, plan: Plan, position: int, argument: str,
              ref: PrevRef, depth: int, relaxed: bool) -> tuple[int | None, str | None]:
    """(layers, error) for ``ref`` nested ``depth`` arrays deep in the call's
    argument: how many list layers of the argument's type wrap the return
    type. A relaxed reference takes 0 or 1 layers, any other only ``depth``."""
    if not 0 <= ref.index < position:
        return None, f"reference $$PREV[{ref.index}] does not point strictly backwards"
    source = graph.registry.get(plan.calls[ref.index].tool_name)
    spec = graph.registry.get(plan.calls[position].tool_name)
    if source is None or spec is None:
        return None, "unknown tool"
    arg = spec.argument(argument)
    fit = _layers(source.returns, arg.value_type) if arg is not None else None
    if fit == depth or (relaxed and fit in (0, 1)):
        return fit, None
    if depth < 2 and fit == 0:
        return None, "array element without a list-wrapped edge"
    missing = f"no type edge {source.name} -> {spec.name}.{argument}"
    return None, missing if depth < 2 else f"{missing} for $$PREV[{ref.index}] at array depth {depth}"


def check_ref(graph: TypeGraph, plan: Plan, position: int, argument: str) -> list[RefDiagnostic]:
    """The findings on the references one argument of one call holds.

    An ``incompatible`` for each reference without a fitting edge; if there
    is none, a ``wrapping`` when the first reference's edge exists but its
    wrapping disagrees (a bare value on a weight-2 edge, or one alone in an
    array on a weight-1 edge). No finding when every reference fits as
    written, or the argument, written or not, holds no reference.
    """
    value = plan.calls[position].argument(argument)
    refs = [(leaf, depth) for leaf, depth in leaves(value) if isinstance(leaf, PrevRef)]
    if not refs:
        return []
    first, depth = refs[0]
    relaxed = value == first or value == (first,)  # bare, or alone in an array
    verdicts = [_edge_for(graph, plan, position, argument, ref, d, relaxed) for ref, d in refs]
    found = [RefDiagnostic(position, argument, None, "incompatible", error)
             for _, error in verdicts if error is not None]
    if found or verdicts[0][0] == depth:
        return found
    note = "array where bare value required" if depth else "bare value where array required"
    return [RefDiagnostic(position, argument, None, "wrapping", note)]


@dataclass(frozen=True)
class Repair:
    position: int
    argument: str
    action: str  # "wrapped" | "unwrapped" | "unrepaired"
    detail: str


def repair_plan(graph: TypeGraph, plan: Plan) -> tuple[Plan, list[Repair]]:
    """Re-wrap every referenced value to match its edge weight.

    The tool sequence, tool names and all non-reference values are left
    unchanged; incompatible references stay untouched and are reported as
    unrepaired. Only a call with a re-wrapped value is built anew, and a
    plan with none is returned as it is. Idempotent: repairing a repaired
    plan changes nothing.
    """
    repairs: list[Repair] = []
    calls = None  # a copy of plan.calls, once a value is re-wrapped
    for position, call in enumerate(plan.calls):
        arguments = None  # likewise for call.arguments
        for i, (name, value) in enumerate(call.arguments):
            if not isinstance(value, (PrevRef, tuple)):
                continue  # a scalar or an object holds no reference
            found = check_ref(graph, plan, position, name)
            repairs.extend(Repair(position, name, "unrepaired", diag.message)
                           for diag in found if diag.kind == "incompatible")
            if not found or found[0].kind != "wrapping":
                continue
            if isinstance(value, PrevRef):
                repairs.append(Repair(position, name, "wrapped",
                                      f"$$PREV[{value.index}] wrapped into array for {call.tool_name}.{name}"))
                value = (value,)
            else:
                value = value[0]
                repairs.append(Repair(position, name, "unwrapped",
                                      f"[$$PREV[{value.index}]] unwrapped to bare value for {call.tool_name}.{name}"))
            arguments = arguments or list(call.arguments)
            arguments[i] = (name, value)
        if arguments is not None:
            calls = calls or list(plan.calls)
            calls[position] = type(call)(tool_name=call.tool_name, arguments=tuple(arguments))
    return plan if calls is None else Plan(calls=tuple(calls)), repairs


def _wrong_type(value, declared: ValueType) -> str | None:
    """Why a literal in ``value`` does not fit ``declared``, if one does not.

    A literal nested d arrays deep must fit ``declared`` less d list layers,
    which must leave no list layer, in the automaton's value grammar
    (``literal_fits``); an empty array needs a list layer left. References
    are ``check_ref``'s to judge."""
    layers, base = declared.depth, ValueType(declared.kind, declared.name)
    for leaf, depth in leaves(value):
        if isinstance(leaf, PrevRef):
            continue
        misfit = depth >= layers if isinstance(leaf, tuple) else (depth != layers or not literal_fits(leaf, base))
        if misfit:
            where = f" at array depth {depth}" if depth else ""
            return f"{json.dumps(leaf)}{where} does not fit {declared.render()}"
    return None


def validate_plan(plan: Plan, registry: Registry) -> list[RefDiagnostic]:
    """Every finding on ``plan`` against ``registry``, in plan order.

    Each ``validate_refs`` finding. On each argument of a known tool with no
    finding of its own, its first literal that does not fit (``wrong_type``);
    else, unless a reference names an unknown tool, the first of
    ``check_ref``'s findings: ``incompatible``, or ``wrapping`` for a
    mismatch ``repair_plan`` fixes, the one kind that is not an error.
    After a known tool's written arguments, each required one it lacks
    (``missing_required``)."""
    graph = build_graph(registry)
    by_unit = defaultdict(list)
    for diag in validate_refs(plan, registry):
        by_unit[diag.position, diag.argument].append(diag)
    flagged = set(by_unit)
    unknown_tools = {position for position, argument in flagged if argument is None}
    out: list[RefDiagnostic] = []
    for position, call in enumerate(plan.calls):
        out.extend(by_unit.pop((position, None), ()))
        spec = registry.get(call.tool_name)
        for name, value in call.arguments:
            out.extend(by_unit.pop((position, name), ()))
            if (position, name) in flagged or spec is None:
                continue
            misfit = _wrong_type(value, spec.argument(name).value_type)
            if misfit is not None:
                out.append(RefDiagnostic(position, name, None, "wrong_type", misfit))
            elif not any(ref.index in unknown_tools for ref in iter_prev_refs(value)):
                out.extend(check_ref(graph, plan, position, name)[:1])
        if spec is not None:
            written = call.argument_names
            out.extend(RefDiagnostic(position, arg.name, None, "missing_required",
                                     f"missing required argument {spec.name}.{arg.name}")
                       for arg in spec.arguments if arg.required and arg.name not in written)
    return out
