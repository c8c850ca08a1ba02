import math
import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from chainplan.enforcer import _BOOLEAN, _OBJECT, _PREV, _value_spec, compile_schema, enforced_repair
from chainplan.plan import Plan, PrevRef, RefDiagnostic, ToolCall, iter_prev_refs, parse_plan, serialize_plan, validate_refs
from chainplan.registry import (
    MAX_LIST_DEPTH,
    PRIMITIVES,
    ArgSpec,
    Registry,
    ToolSpec,
    ValueType,
    list_of,
    object_type,
    parse_type,
    primitive,
)
from chainplan.typegraph import Repair, TypeEdge, _layers, build_graph, check_ref, repair_plan, validate_plan

from conftest import random_plan, random_registry


def test_fixture_weight_one_edge(fixture_registry):
    graph = build_graph(fixture_registry)
    assert TypeEdge("works_list", "prioritize_objects", "objects", 1) in graph.edges


def test_fixture_weight_two_edge(fixture_registry):
    graph = build_graph(fixture_registry)
    assert TypeEdge("who_am_i", "works_list", "owned_by", 2) in graph.edges


def test_fixture_no_edge_on_type_mismatch(fixture_registry):
    graph = build_graph(fixture_registry)
    triple = ("get_sprint_id", "prioritize_objects", "objects")
    assert not [e for e in graph.edges if (e.from_tool, e.to_tool, e.to_argument) == triple]


def _oracle_edges(registry):
    """Brute-force triple enumeration with textual type comparison."""
    edges = set()
    for src in registry.tools.values():
        for dst in registry.tools.values():
            for arg in dst.arguments:
                if arg.value_type.render() == src.returns.render():
                    edges.add(TypeEdge(src.name, dst.name, arg.name, 1))
                elif arg.value_type.render() == f"array of {src.returns.render()}":
                    edges.add(TypeEdge(src.name, dst.name, arg.name, 2))
    return edges


def test_build_graph_matches_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(50):
        registry = random_registry(rng)
        graph = build_graph(registry)
        assert graph.edges == frozenset(_oracle_edges(registry))


def test_check_ref_compatible_wrapped(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),
    ))
    assert check_ref(graph, plan, 1, "owned_by") == []


def test_check_ref_bare_where_array_required(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", PrevRef(0)),)),
    ))
    assert check_ref(graph, plan, 1, "owned_by") == [
        RefDiagnostic(1, "owned_by", None, "wrapping", "bare value where array required"),
    ]


def test_check_ref_incompatible(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("get_sprint_id"),
        ToolCall("prioritize_objects", (("objects", PrevRef(0)),)),
    ))
    assert [diag.kind for diag in check_ref(graph, plan, 1, "objects")] == ["incompatible"]


def test_check_ref_unknown_tool(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("made_up_tool"),
        ToolCall("works_list", (("owned_by", PrevRef(0)),)),
    ))
    assert check_ref(graph, plan, 1, "owned_by") == [RefDiagnostic(1, "owned_by", None, "incompatible", "unknown tool")]


def test_check_ref_literal_is_not_a_ref(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((ToolCall("works_list", (("type", "issue"),)),))
    assert check_ref(graph, plan, 0, "type") == []


def test_check_ref_tells_a_written_null_from_a_missing_argument(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = parse_plan('[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":null}]}]').plan
    assert check_ref(graph, plan, 0, "limit") == []
    assert check_ref(graph, plan, 0, "owned_by") == []


def test_repair_wraps_bare_reference(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", PrevRef(0)),)),
    ))
    repaired, repairs = repair_plan(graph, plan)
    assert repaired.calls[1].argument("owned_by") == (PrevRef(0),)
    assert len(repairs) == 1
    assert repairs[0].action == "wrapped"


def test_repair_unwraps_singleton_on_weight_one(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("works_list"),
        ToolCall("prioritize_objects", (("objects", (PrevRef(0),)),)),
    ))
    repaired, repairs = repair_plan(graph, plan)
    assert repaired.calls[1].argument("objects") == PrevRef(0)
    assert [r.action for r in repairs] == ["unwrapped"]


def test_repair_is_fixed_point_on_correct_plan(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),
        ToolCall("prioritize_objects", (("objects", PrevRef(1)),)),
    ))
    repaired, repairs = repair_plan(graph, plan)
    assert repaired == plan
    assert repairs == []


def test_repair_returns_the_plan_itself_unless_it_rewraps(fixture_registry):
    # a plan with nothing to re-wrap comes back as the very object; one
    # mismatch builds a new plan that keeps the untouched calls as they are
    graph = build_graph(fixture_registry)
    clean = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)), ("limit", 5))),
        ToolCall("prioritize_objects", (("objects", PrevRef(1)),)),
    ))
    assert repair_plan(graph, clean) == (clean, [])
    assert repair_plan(graph, clean)[0] is clean
    incompatible = Plan((ToolCall("get_sprint_id"), ToolCall("prioritize_objects", (("objects", PrevRef(0)),))))
    assert repair_plan(graph, incompatible)[0] is incompatible
    miswrapped = Plan((
        clean.calls[0],
        ToolCall("works_list", (("owned_by", PrevRef(0)), ("limit", 5))),
        clean.calls[2],
    ))
    repaired, repairs = repair_plan(graph, miswrapped)
    assert repaired == clean
    assert repaired.calls[0] is miswrapped.calls[0] and repaired.calls[2] is miswrapped.calls[2]
    assert miswrapped.calls[1].argument("owned_by") == PrevRef(0)
    assert [r.action for r in repairs] == ["wrapped"]
    rng = random.Random(41)
    for _ in range(200):
        registry = random_registry(rng)
        plan = random_plan(rng, tool_names=registry.names)
        repaired, repairs = repair_plan(build_graph(registry), plan)
        rewrapped = any(r.action != "unrepaired" for r in repairs)
        assert (repaired is plan) is not rewrapped


def test_repair_leaves_incompatible_refs_untouched(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("get_sprint_id"),
        ToolCall("prioritize_objects", (("objects", PrevRef(0)),)),
    ))
    repaired, repairs = repair_plan(graph, plan)
    assert repaired == plan
    assert [r.action for r in repairs] == ["unrepaired"]


def test_repair_idempotent_on_random_plans():
    rng = random.Random(23)
    for _ in range(200):
        registry = random_registry(rng)
        graph = build_graph(registry)
        plan = random_plan(rng, tool_names=registry.names or ("tool0",))
        once, _ = repair_plan(graph, plan)
        twice, _ = repair_plan(graph, once)
        assert twice == once
        assert once.tool_sequence == plan.tool_sequence


def test_post_repair_check_passes_for_every_edged_reference():
    rng = random.Random(31)
    for _ in range(100):
        registry = random_registry(rng)
        graph = build_graph(registry)
        plan = random_plan(rng, tool_names=registry.names or ("tool0",))
        repaired, _ = repair_plan(graph, plan)
        for position, call in enumerate(repaired.calls):
            for name, value in call.arguments:
                refs = list(iter_prev_refs(value))
                if not refs:
                    continue
                found = check_ref(graph, repaired, position, name)
                assert "wrapping" not in [diag.kind for diag in found], (position, name, value)


def test_forward_reference_in_array_is_unrepaired(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(1),)),)),
    ))
    detail = "reference $$PREV[1] does not point strictly backwards"
    assert check_ref(graph, plan, 1, "owned_by") == [RefDiagnostic(1, "owned_by", None, "incompatible", detail)]
    repaired, repairs = repair_plan(graph, plan)
    assert repaired == plan
    assert repairs == [Repair(1, "owned_by", "unrepaired", detail)]


def test_reference_among_literals_on_weight_two_edge(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0), "x")),)),
    ))
    assert check_ref(graph, plan, 1, "owned_by") == []
    assert repair_plan(graph, plan) == (plan, [])


def test_array_elements_on_weight_one_edge_are_unrepaired(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("works_list"),
        ToolCall("prioritize_objects", (("objects", (PrevRef(0), PrevRef(0))),)),
    ))
    repaired, repairs = repair_plan(graph, plan)
    assert repaired == plan
    assert repairs == [Repair(1, "objects", "unrepaired", "array element without a list-wrapped edge")] * 2
    assert [diag.message for diag in check_ref(graph, plan, 1, "objects")] == [r.detail for r in repairs]


def test_reference_two_arrays_deep_without_fitting_type_is_unrepaired(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", ((PrevRef(0),),)),)),
    ))
    detail = "no type edge who_am_i -> works_list.owned_by for $$PREV[0] at array depth 2"
    assert check_ref(graph, plan, 1, "owned_by") == [RefDiagnostic(1, "owned_by", None, "incompatible", detail)]
    assert repair_plan(graph, plan) == (plan, [Repair(1, "owned_by", "unrepaired", detail)])


def test_reference_two_arrays_deep_fits_a_list_of_lists():
    string = primitive("string")
    registry = Registry.from_tools([ToolSpec(
        "t", "a tool", (ArgSpec("a", "rows", list_of(list_of(string))),), string,
    )])
    graph = build_graph(registry)
    for value in [((PrevRef(0),),), ((PrevRef(0), "x"), ("y",))]:
        plan = Plan((ToolCall("t"), ToolCall("t", (("a", value),))))
        assert check_ref(graph, plan, 1, "a") == [], value
        assert repair_plan(graph, plan) == (plan, [])
    # a reference directly inside the outer array, or bare, does not fit
    for value in [(PrevRef(0),), PrevRef(0), ((PrevRef(0),), PrevRef(0))]:
        plan = Plan((ToolCall("t"), ToolCall("t", (("a", value),))))
        assert {diag.kind for diag in check_ref(graph, plan, 1, "a")} == {"incompatible"}, value


# ---------------------------------------------------------------------------
# A value type as a linked record, one node per list layer, and the recursive
# readers of it: the oracles for a kind, a name and a depth.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LinkedType:
    kind: str  # "primitive" | "list" | "object"
    primitive: str | None = None
    element: "_LinkedType | None" = None
    type_name: str | None = None

    def render(self) -> str:
        if self.kind == "primitive":
            return self.primitive or "?"
        if self.kind == "list":
            return f"array of {self.element.render()}" if self.element else "array of ?"
        return f"object:{self.type_name}"


def _linked_value_spec(vt: _LinkedType) -> tuple:
    if vt.kind == "primitive":
        return _BOOLEAN if vt.primitive == "boolean" else (vt.primitive,)
    if vt.kind == "object":
        return _OBJECT
    return ("list", ("union", (_linked_value_spec(vt.element), _PREV)))


def _linked_layers(source: _LinkedType, target: _LinkedType | None) -> int | None:
    depth = 0
    while target is not None and target != source:
        target, depth = target.element, depth + 1
    return None if target is None else depth


def test_a_kind_name_and_depth_reads_as_the_linked_record():
    # every type of depth 0 to MAX_LIST_DEPTH over the four primitives and
    # two object names, built both ways
    pairs = []
    for kind, name in [("primitive", p) for p in PRIMITIVES] + [("object", "Foo"), ("object", "Bar")]:
        linked = _LinkedType(kind, primitive=name) if kind == "primitive" else _LinkedType(kind, type_name=name)
        for depth in range(MAX_LIST_DEPTH + 1):
            pairs.append((ValueType(kind, name, depth), linked))
            linked = _LinkedType("list", element=linked)
    assert len(pairs) == 18
    for vt, linked in pairs:
        assert _value_spec(vt) == _linked_value_spec(linked)
        assert vt.render() == linked.render()
        assert parse_type(vt.render()) == vt
    for source, linked_source in pairs:
        for target, linked_target in pairs:
            assert _layers(source, target) == _linked_layers(linked_source, linked_target), (source, target)


# ---------------------------------------------------------------------------
# validate_plan: the one list of findings `chainplan check` and `exec` read
# ---------------------------------------------------------------------------

_REF_KINDS = ("unknown_tool", "unknown_argument", "bad_reference", "malformed_reference")


def _oracle_check_lines(plan, registry):
    """The lines `chainplan check` printed before validate_plan: its body from
    the first finding on, verbatim but for ``click.echo``, which collects."""
    lines = []
    echo = lines.append
    findings = validate_refs(plan, registry)
    for diag in findings:
        unit = f"call {diag.position}" if diag.argument is None else f"call {diag.position} argument {diag.argument!r}"
        echo(f"error: {unit}: {diag.message}")
    errors = len(findings)
    flagged = {(diag.position, diag.argument) for diag in findings}
    unknown_tools = {position for position, argument in flagged if argument is None}
    graph = build_graph(registry)
    for position, call in enumerate(plan.calls):
        for name, value in call.arguments:
            if ((position, name) in flagged or position in unknown_tools
                    or any(ref.index in unknown_tools for ref in iter_prev_refs(value))):
                continue
            found = check_ref(graph, plan, position, name)
            if found and found[0].kind == "incompatible":
                echo(f"error: call {position} argument {name!r}: {found[0].message}")
                errors += 1
            elif found and found[0].kind == "wrapping":
                echo(f"warning: call {position} argument {name!r}: {found[0].message} (repairable)")
    return lines


def _wiring_line(diag):
    if diag.is_error:
        return f"error: call {diag.position} argument {diag.argument!r}: {diag.message}"
    return f"warning: call {diag.position} argument {diag.argument!r}: {diag.message} (repairable)"


def test_validate_plan_keeps_the_check_merge_rule():
    rng = random.Random(3701)
    kinds = Counter()
    for draw in range(2000):
        registry = random_registry(rng)
        # every fourth plan may call a tool the registry lacks
        plan = random_plan(rng, tool_names=registry.names + ("ghost",) * (draw % 4 == 0))
        found = validate_plan(plan, registry)
        kinds.update(diag.kind for diag in found)
        refs = validate_refs(plan, registry)
        assert [diag for diag in found if diag.kind in _REF_KINDS] == refs
        # the oracle's wiring lines, less those on arguments with a literal
        # that does not fit: such an argument gets no wiring finding
        typed = tuple(f"call {diag.position} argument {diag.argument!r}:"
                      for diag in found if diag.kind == "wrong_type")
        expected = [line for line in _oracle_check_lines(plan, registry)[len(refs):]
                    if not line.split(" ", 1)[1].startswith(typed)]
        assert [_wiring_line(diag) for diag in found if diag.kind in ("incompatible", "wrapping")] == expected
    # random_plan writes backward references only; every other kind is drawn,
    # the wiring ones often enough to test the rule
    assert kinds.keys() == {"unknown_tool", "unknown_argument", "wrong_type", "missing_required",
                            "incompatible", "wrapping"}, kinds
    assert kinds["incompatible"] > 500 and kinds["wrapping"] > 50, kinds


def test_every_golden_plan_has_no_finding(fixture_registry, golden_examples):
    for example in golden_examples:
        assert validate_plan(parse_plan(example.gold_text).plan, fixture_registry) == []


def test_missing_required_follows_the_written_arguments(fixture_registry):
    plan = Plan(calls=(
        ToolCall("add_work_items_to_sprint", (("ghost", 1), ("sprint_id", "S-1"))),
        ToolCall("phantom_tool"),
    ))
    found = [(diag.position, diag.argument, diag.kind, diag.message) for diag in validate_plan(plan, fixture_registry)]
    assert found == [
        (0, "ghost", "unknown_argument", "unknown argument 'ghost' for tool 'add_work_items_to_sprint' at call 0"),
        (0, "work_items", "missing_required", "missing required argument add_work_items_to_sprint.work_items"),
        (1, None, "unknown_tool", "unknown tool 'phantom_tool' at call 1"),
    ]


@pytest.mark.parametrize("declared, value, message", [
    ("string", "a", None),
    ("string", 1, "1 does not fit string"),
    ("string", True, "true does not fit string"),
    ("integer", 10, None),
    ("integer", True, "true does not fit integer"),
    ("integer", 1.5, "1.5 does not fit integer"),
    ("integer", "many", '"many" does not fit integer'),
    ("integer", (), "[] does not fit integer"),
    ("float", 10, None),
    ("float", 2.5, None),
    ("float", 1e-07, None),
    ("float", False, "false does not fit float"),
    ("float", math.inf, "Infinity does not fit float"),
    ("float", math.nan, "NaN does not fit float"),
    ("boolean", True, None),
    ("boolean", 1, "1 does not fit boolean"),
    ("object:WorkItem", {"k": [1, 2]}, None),
    ("object:WorkItem", {"k": {"a": 1}}, None),
    # member values nest at most MAX_LIST_DEPTH levels below their object
    ("object:WorkItem", {"k": [[[1]]]}, '{"k": [[[1]]]} does not fit object:WorkItem'),
    ("object:WorkItem", "x", '"x" does not fit object:WorkItem'),
    ("object:WorkItem", (), "[] does not fit object:WorkItem"),
    ("string", None, "null does not fit string"),
    ("object:WorkItem", None, "null does not fit object:WorkItem"),
    ("array of string", ("a",), None),
    ("array of string", (), None),
    ("array of string", "a", '"a" does not fit array of string'),
    ("array of string", (("a",),), '"a" at array depth 2 does not fit array of string'),
    ("array of string", ((),), "[] at array depth 1 does not fit array of string"),
    ("array of string", ("a", 1, None), "1 at array depth 1 does not fit array of string"),
    ("array of array of string", (("a",), ()), None),
    ("array of array of string", ("a",), '"a" at array depth 1 does not fit array of array of string'),
    ("array of array of string", (((),),), "[] at array depth 2 does not fit array of array of string"),
    # references are check_ref's: bare, alone in an array, or among literals
    ("integer", PrevRef(0), None),
    ("integer", (PrevRef(0),), None),
    ("integer", (PrevRef(0), 5), "5 at array depth 1 does not fit integer"),
    ("array of string", ("a", PrevRef(0)), None),
], ids=lambda item: repr(item) if not isinstance(item, str) else item)
def test_wrong_type_rules(declared, value, message):
    arg = ArgSpec(name="a", description="a", value_type=parse_type(declared))
    registry = Registry.from_tools([ToolSpec(name="t", description="t", arguments=(arg,), returns=primitive("string"))])
    plan = Plan(calls=(ToolCall("t"), ToolCall("t", (("a", value),))))
    typed = [diag.message for diag in validate_plan(plan, registry) if diag.kind == "wrong_type"]
    assert typed == ([] if message is None else [message])


# Every declarable type: each base type under 0 to MAX_LIST_DEPTH list layers.
_BASE_TYPES = tuple(primitive(kind) for kind in PRIMITIVES) + (object_type("Foo"),)


def _with_layers(vt, layers: int):
    for _ in range(layers):
        vt = list_of(vt)
    return vt


_ALL_TYPES = tuple(_with_layers(base, layers) for base in _BASE_TYPES for layers in range(MAX_LIST_DEPTH + 1))


def _one_argument(declared):
    arg = ArgSpec(name="a", description="a", value_type=declared, required=True)
    return Registry.from_tools([ToolSpec(name="t", description="t", arguments=(arg,), returns=primitive("string"))])


def _accepts(automaton, text: str) -> bool:
    node, i = automaton.walk(automaton.node(automaton.initial_state), text)
    return i == len(text) and automaton.accepting(node[None])


# A string outside an object that starts with $$PREV is a reference, or a
# malformed one; either is not a literal.
_STRINGS = st.text() | st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é中\U0001f4a5", "$$PREV[0"])
_PLAIN_STRINGS = _STRINGS.filter(lambda text: not text.startswith("$$PREV"))
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -0.0, 2.2250738585072014e-308, 1e-07, 1e16, 1.5e300, 1.7976931348623157e308, -1.7976931348623157e308]
)


def _member_values(depth: int):
    """Member values whose arrays and objects nest at most ``depth`` levels."""
    values = st.none() | st.booleans() | st.integers() | _FINITE_FLOATS | _STRINGS
    if depth:
        inner = _member_values(depth - 1)
        values |= st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3)
    return values


_SCALAR_VALUES = {
    "string": _PLAIN_STRINGS,
    "integer": st.integers(),
    "float": _FINITE_FLOATS | st.integers(),
    "boolean": st.booleans(),
}


def _typed_values(declared):
    """Values of ``declared``, arrays as tuples, as a parsed plan holds them."""
    if declared.is_list:
        return st.lists(_typed_values(declared.element), max_size=3).map(tuple)
    if declared.kind == "object":
        return st.dictionaries(_STRINGS, _member_values(MAX_LIST_DEPTH), max_size=3)
    return _SCALAR_VALUES[declared.name]


# Any JSON value, NaN and infinities included, arrays as tuples.
_ANY_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _PLAIN_STRINGS,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.dictionaries(_STRINGS, _member_values(1), max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("declared", _ALL_TYPES, ids=lambda vt: vt.render())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wrong_type_is_the_automaton_refusing_the_canonical_text(declared, data):
    # validate_plan and the automaton read one literal grammar: for random
    # and type-directed values alike, no wrong_type exactly when the plan
    # automaton accepts the value's serialized text; a value holding NaN or
    # an infinity has no such text, and fits no type
    value = data.draw(_ANY_VALUES | _typed_values(declared))
    registry = _one_argument(declared)
    plan = Plan(calls=(ToolCall("t", (("a", value),)),))
    typed = [diag for diag in validate_plan(plan, registry) if diag.kind == "wrong_type"]
    try:
        text = serialize_plan(plan)
    except ValueError:
        assert typed
        return
    assert (not typed) == _accepts(compile_schema(registry), text), (typed, text)


@pytest.mark.parametrize("declared", _ALL_TYPES, ids=lambda vt: vt.render())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_value_of_its_type_passes_enforcement_unchanged(declared, data):
    # the automaton takes every value serialize_plan writes for a type:
    # escaped and non-ASCII strings, any int, finite floats with exponents,
    # objects with members nested up to the bound
    plan = Plan(calls=(ToolCall("t", (("a", data.draw(_typed_values(declared))),)),))
    registry = _one_argument(declared)
    assert validate_plan(plan, registry) == []
    text = serialize_plan(plan)
    assert enforced_repair(compile_schema(registry), text) == (text, [])


def test_wrong_type_leaves_no_wiring_finding():
    # who_am_i returns a string: the reference among literals would be
    # incompatible with an integer, but the literal already does not fit
    registry = Registry.from_tools([
        ToolSpec(name="who", description="w", arguments=(), returns=primitive("string")),
        ToolSpec(name="t", description="t", returns=primitive("string"),
                 arguments=(ArgSpec(name="a", description="a", value_type=primitive("integer")),)),
    ])
    plan = Plan(calls=(ToolCall("who"), ToolCall("t", (("a", (PrevRef(0), "x")),))))
    assert [diag.kind for diag in validate_plan(plan, registry)] == ["wrong_type"]
    assert [diag.kind for diag in check_ref(build_graph(registry), plan, 1, "a")] == ["incompatible"]
