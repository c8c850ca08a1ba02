import random

from chainplan.plan import Plan, PrevRef, ToolCall, iter_prev_refs
from chainplan.registry import ArgSpec, Registry, ToolSpec, list_of, primitive
from chainplan.typegraph import Repair, TypeEdge, build_graph, check_ref, repair_plan

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
    result = check_ref(graph, plan, 1, "owned_by")
    assert result.compatible
    assert result.weight == 2
    assert not result.wrapping_mismatch


def test_check_ref_bare_where_array_required(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", PrevRef(0)),)),
    ))
    result = check_ref(graph, plan, 1, "owned_by")
    assert result.compatible
    assert result.weight == 2
    assert result.wrapping_mismatch


def test_check_ref_incompatible(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("get_sprint_id"),
        ToolCall("prioritize_objects", (("objects", PrevRef(0)),)),
    ))
    result = check_ref(graph, plan, 1, "objects")
    assert result.status == "incompatible"


def test_check_ref_unknown_tool(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("made_up_tool"),
        ToolCall("works_list", (("owned_by", PrevRef(0)),)),
    ))
    result = check_ref(graph, plan, 1, "owned_by")
    assert result.status == "incompatible"
    assert "unknown tool" in result.note


def test_check_ref_literal_is_not_a_ref(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((ToolCall("works_list", (("type", "issue"),)),))
    assert check_ref(graph, plan, 0, "type").status == "not_a_prev_ref"


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
                result = check_ref(graph, repaired, position, name)
                if result.compatible:
                    assert not result.wrapping_mismatch, (position, name, value)


def test_forward_reference_in_array_is_unrepaired(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(1),)),)),
    ))
    detail = "reference $$PREV[1] does not point strictly backwards"
    result = check_ref(graph, plan, 1, "owned_by")
    assert result.status == "incompatible"
    assert result.note == detail
    repaired, repairs = repair_plan(graph, plan)
    assert repaired == plan
    assert repairs == [Repair(1, "owned_by", "unrepaired", detail)]


def test_reference_among_literals_on_weight_two_edge(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0), "x")),)),
    ))
    result = check_ref(graph, plan, 1, "owned_by")
    assert result.compatible
    assert result.weight == 2
    assert not result.wrapping_mismatch
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
    assert check_ref(graph, plan, 1, "objects").note == repairs[0].detail


def test_reference_two_arrays_deep_without_fitting_type_is_unrepaired(fixture_registry):
    graph = build_graph(fixture_registry)
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", ((PrevRef(0),),)),)),
    ))
    detail = "no type edge who_am_i -> works_list.owned_by for $$PREV[0] at array depth 2"
    result = check_ref(graph, plan, 1, "owned_by")
    assert result.status == "incompatible"
    assert result.note == detail
    assert result.errors == (detail,)
    assert repair_plan(graph, plan) == (plan, [Repair(1, "owned_by", "unrepaired", detail)])


def test_reference_two_arrays_deep_fits_a_list_of_lists():
    string = primitive("string")
    registry = Registry.from_tools([ToolSpec(
        "t", "a tool", (ArgSpec("a", "rows", list_of(list_of(string))),), string,
    )])
    graph = build_graph(registry)
    for value in [((PrevRef(0),),), ((PrevRef(0), "x"), ("y",))]:
        plan = Plan((ToolCall("t"), ToolCall("t", (("a", value),))))
        result = check_ref(graph, plan, 1, "a")
        assert result.compatible, value
        assert not result.wrapping_mismatch and result.errors == ()
        assert repair_plan(graph, plan) == (plan, [])
    # a reference directly inside the outer array, or bare, does not fit
    for value in [(PrevRef(0),), PrevRef(0), ((PrevRef(0),), PrevRef(0))]:
        plan = Plan((ToolCall("t"), ToolCall("t", (("a", value),))))
        assert check_ref(graph, plan, 1, "a").status == "incompatible", value
