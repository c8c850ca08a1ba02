import random

import pytest

from chainplan.executor import (
    ExecutionError,
    OperatorError,
    OperatorRuntime,
    StubRuntime,
    apply_operator,
    execute,
    operator_tool_specs,
    register_operator_tools,
)
from chainplan.plan import Plan, PrevRef, ToolCall, parse_plan, serialize_plan


def test_execute_two_step_chain(fixture_registry):
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),
    ))
    trace = execute(plan, StubRuntime())
    assert len(trace.steps) == 2
    owned_by = trace.steps[1].arguments["owned_by"]
    assert isinstance(owned_by, tuple)
    assert owned_by[0] == "USER-001"


def test_execute_empty_plan(fixture_registry):
    trace = execute(Plan(), StubRuntime())
    assert trace.steps == []


def test_execute_uncovered_tool_preflight(fixture_registry):
    class Recording(StubRuntime):
        def __init__(self):
            super().__init__()
            self.invocations = 0

        def invoke(self, tool_name, arguments):
            self.invocations += 1
            return super().invoke(tool_name, arguments)

    runtime = Recording()
    plan = Plan((ToolCall("who_am_i"), ToolCall("unknown_tool")))
    with pytest.raises(ExecutionError):
        execute(plan, runtime)
    assert runtime.invocations == 0


def test_execute_rejects_forward_reference(fixture_registry):
    plan = Plan((ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),))
    with pytest.raises(ExecutionError):
        execute(plan, StubRuntime())


def test_execute_rejects_malformed_reference_before_invoking(fixture_registry):
    class Recording(StubRuntime):
        invocations = 0

        def invoke(self, tool_name, arguments):
            self.invocations += 1
            return super().invoke(tool_name, arguments)

    runtime = Recording()
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", ("$$PREV[x]",)),)),
    ))
    with pytest.raises(ExecutionError, match="malformed reference"):
        execute(plan, runtime)
    assert runtime.invocations == 0


def test_execute_wraps_a_failed_call_with_its_step():
    plan = Plan((ToolCall("op_div", (("a", 1), ("b", 0))),))
    with pytest.raises(ExecutionError) as err:
        execute(plan, StubRuntime())
    assert err.value.step == 0
    assert str(err.value) == "step 0: op_div failed: div by zero"
    assert isinstance(err.value.__cause__, OperatorError)


def test_execute_passes_a_runtimes_execution_error_through():
    raised = ExecutionError("runtime refused", step=7)

    class Refusing:
        coverage = frozenset({"t"})

        def invoke(self, tool_name, arguments):
            raise raised

    with pytest.raises(ExecutionError) as err:
        execute(Plan((ToolCall("t"),)), Refusing())
    assert err.value is raised


def test_execute_resolution_uses_trace_not_reinvocation(fixture_registry):
    class CountingRuntime(StubRuntime):
        def __init__(self):
            super().__init__()
            self.count = {}

        def invoke(self, tool_name, arguments):
            self.count[tool_name] = self.count.get(tool_name, 0) + 1
            return super().invoke(tool_name, arguments)

    runtime = CountingRuntime()
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),
        ToolCall("summarize_objects", (("objects", PrevRef(1)),)),
        ToolCall("prioritize_objects", (("objects", PrevRef(1)),)),
    ))
    execute(plan, runtime)
    assert runtime.count["who_am_i"] == 1
    assert runtime.count["works_list"] == 1


def test_execute_resolves_a_reference_two_arrays_deep():
    class Echo:
        coverage = {"a", "b"}

        def invoke(self, tool_name, arguments):
            return "out-a" if tool_name == "a" else arguments

    plan = Plan((ToolCall("a"), ToolCall("b", (("x", ((PrevRef(0),), "x")),))))
    text = serialize_plan(plan)
    assert '"argument_value":[["$$PREV[0]"],"x"]' in text
    assert parse_plan(text).plan == plan
    trace = execute(plan, Echo())
    assert trace.steps[1].arguments == {"x": (("out-a",), "x")}
    assert trace.steps[1].output == {"x": (("out-a",), "x")}


def test_runtime_cannot_change_the_plans_objects():
    class Mutating:
        coverage = {"t"}

        def invoke(self, tool_name, arguments):
            arguments["o"]["k"] = 99
            arguments["os"][0]["k"] = 99
            return None

    plan = parse_plan('[{"tool_name":"t","arguments":[{"argument_name":"o","argument_value":{"k":1}},'
                      '{"argument_name":"os","argument_value":[{"k":1}]}]}]').plan
    before = serialize_plan(plan)
    execute(plan, Mutating())
    assert serialize_plan(plan) == before
    assert plan.calls[0].argument("o") == {"k": 1}


def test_runtime_cannot_change_a_stored_output():
    class Mutating:
        coverage = {"a", "b"}

        def invoke(self, tool_name, arguments):
            if tool_name == "a":
                return {"k": 1}
            arguments["x"]["k"] = 99
            return None

    plan = parse_plan('[{"tool_name":"a","arguments":[]},'
                      '{"tool_name":"b","arguments":[{"argument_name":"x","argument_value":"$$PREV[0]"}]}]').plan
    trace = execute(plan, Mutating())
    assert trace.steps[0].output == {"k": 1}
    assert trace.steps[1].arguments == {"x": {"k": 1}}


def test_runtime_cannot_change_a_list_inside_an_object_literal():
    class Mutating:
        coverage = {"t"}

        def invoke(self, tool_name, arguments):
            arguments["o"]["ks"].append(3)
            arguments["o"]["inner"]["ks"][0] = 99
            return None

    plan = parse_plan('[{"tool_name":"t","arguments":[{"argument_name":"o",'
                      '"argument_value":{"ks":[1,2],"inner":{"ks":[1]}}}]}]').plan
    assert plan.calls[0].argument("o") == {"ks": [1, 2], "inner": {"ks": [1]}}
    before = serialize_plan(plan)
    trace = execute(plan, Mutating())
    assert serialize_plan(plan) == before
    assert trace.steps[0].arguments == {"o": {"ks": [1, 2], "inner": {"ks": [1]}}}


def test_two_arguments_of_one_stored_output_get_their_own_copies():
    seen = {}

    class Mutating:
        coverage = {"a", "b"}

        def invoke(self, tool_name, arguments):
            if tool_name == "a":
                return {"k": [1]}
            arguments["x"]["k"].append(99)
            seen.update(arguments)
            return None

    plan = parse_plan('[{"tool_name":"a","arguments":[]},{"tool_name":"b","arguments":['
                      '{"argument_name":"x","argument_value":"$$PREV[0]"},'
                      '{"argument_name":"y","argument_value":"$$PREV[0]"}]}]').plan
    trace = execute(plan, Mutating())
    assert seen == {"x": {"k": [1, 99]}, "y": {"k": [1]}}
    assert trace.steps[0].output == {"k": [1]}
    assert trace.steps[1].arguments == {"x": {"k": [1]}, "y": {"k": [1]}}


class _Box:
    def __init__(self, items):
        self.items = items


def _contents(value):
    return value.items if isinstance(value, _Box) else value


@pytest.mark.parametrize("output", [{1, 2}, _Box({1, 2})], ids=["set", "object"])
def test_an_output_that_is_not_json_reaches_the_next_call_as_a_deep_copy(output):
    received = []

    class Mutating:
        coverage = {"a", "b"}

        def invoke(self, tool_name, arguments):
            if tool_name == "a":
                return output
            received.append(arguments["x"][0])
            _contents(arguments["x"][0]).add(3)
            return None

    plan = parse_plan('[{"tool_name":"a","arguments":[]},'
                      '{"tool_name":"b","arguments":[{"argument_name":"x","argument_value":["$$PREV[0]"]}]}]').plan
    trace = execute(plan, Mutating())
    assert received[0] is not output and trace.steps[0].output is output
    assert _contents(output) == {1, 2} and _contents(received[0]) == {1, 2, 3}


def test_trace_records_the_arguments_a_runtime_was_given():
    import json

    class Mutating:
        coverage = {"t"}

        def invoke(self, tool_name, arguments):
            arguments["o"]["k"] = 99
            return None

    plan = parse_plan('[{"tool_name":"t","arguments":[{"argument_name":"o","argument_value":{"k":1}}]}]').plan
    trace = execute(plan, Mutating())
    assert json.loads(trace.to_json())[0]["arguments"] == {"o": {"k": 1}}


def test_trace_dump_is_json(fixture_registry):
    import json

    plan = Plan((ToolCall("get_sprint_id"),))
    trace = execute(plan, StubRuntime())
    doc = json.loads(trace.to_json())
    assert doc[0]["tool_name"] == "get_sprint_id"
    assert doc[0]["output"] == "SPRINT-42"


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def test_add():
    assert apply_operator("add", 2, 3) == 5


def test_division_by_zero():
    with pytest.raises(OperatorError):
        apply_operator("div", 1, 0)
    with pytest.raises(OperatorError):
        apply_operator("mod", 1, 0)
    with pytest.raises(OperatorError):
        apply_operator("floordiv", 1, 0)


@pytest.mark.parametrize(("op", "a", "b", "message"), [
    ("xor", 1, 2, "unknown operator 'xor'"),
    ("add", [1], 2, "add requires scalar operands"),
    ("eq", 1, [2], "eq requires scalar operands"),
])
def test_unknown_operator_and_list_operand_are_refused(op, a, b, message):
    with pytest.raises(OperatorError) as err:
        apply_operator(op, a, b)
    assert str(err.value) == message


def test_floor_division_and_modulus_signs():
    assert apply_operator("floordiv", -7, 2) == -4
    assert apply_operator("mod", -7, 2) == 1


def test_floor_division_identity_random_pairs():
    rng = random.Random(6)
    for _ in range(100):
        a = rng.randint(-1000, 1000)
        b = rng.randint(-50, 50) or 7
        q = apply_operator("floordiv", a, b)
        r = apply_operator("mod", a, b)
        assert a == b * q + r
        if b > 0:
            assert 0 <= r < b


def test_comparison_trichotomy():
    rng = random.Random(9)
    for _ in range(100):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        results = [
            apply_operator("gt", a, b),
            apply_operator("lt", a, b),
            apply_operator("eq", a, b),
        ]
        assert results.count(True) == 1


def test_kind_mismatch_errors():
    with pytest.raises(OperatorError):
        apply_operator("add", "x", 1)
    with pytest.raises(OperatorError):
        apply_operator("gt", "x", 1)
    with pytest.raises(OperatorError):
        apply_operator("eq", "x", 1)
    with pytest.raises(OperatorError):
        apply_operator("gt", True, False)  # booleans are not ordered here


def test_text_comparisons_allowed():
    assert apply_operator("lt", "apple", "banana") is True
    assert apply_operator("eq", "a", "a") is True
    assert apply_operator("neq", True, False) is True


def test_operator_reference_semantics():
    import operator as op_mod

    rng = random.Random(14)
    table = {
        "add": op_mod.add, "sub": op_mod.sub, "mul": op_mod.mul, "div": op_mod.truediv,
        "floordiv": op_mod.floordiv, "mod": op_mod.mod,
        "gt": op_mod.gt, "lt": op_mod.lt, "ge": op_mod.ge, "le": op_mod.le,
        "eq": op_mod.eq, "neq": op_mod.ne,
    }
    for _ in range(100):
        name = rng.choice(list(table))
        a = rng.randint(-100, 100)
        b = rng.randint(1, 50)
        got = apply_operator(name, a, b)
        assert got == table[name](a, b)


def test_pow_exact_integers():
    assert apply_operator("pow", 2, 30) == 2 ** 30


@pytest.mark.parametrize(
    ("a", "b"),
    [(-8, 0.5), (2.0, 10000), (0, -1), (10, 5000)],
    ids=["complex-result", "overflow", "zero-to-negative-power", "int-overflow"],
)
def test_pow_without_a_real_result_raises_operator_error(a, b):
    with pytest.raises(OperatorError, match="pow"):
        apply_operator("pow", a, b)


@pytest.mark.parametrize(("op", "a", "b"), [
    ("mul", 1e308, 10),
    ("add", 1e308, 1e308),
    ("div", 1e308, 1e-10),
    ("floordiv", 1e308, 1e-10),
    ("mul", 10 ** 200, 10 ** 200),
], ids=["float-mul", "float-add", "float-div", "float-floordiv", "int-mul"])
def test_result_json_cannot_hold_raises_operator_error(op, a, b):
    # an infinite float is not JSON, and an int past the largest float is no JSON number
    with pytest.raises(OperatorError, match=f"^{op} result out of range$"):
        apply_operator(op, a, b)


@pytest.mark.parametrize("op", ["gt", "lt", "ge", "le"])
@pytest.mark.parametrize(("a", "b"), [(None, "a"), ("a", None), (None, 1), (None, None)])
def test_ordered_comparison_with_null_raises_operator_error(op, a, b):
    with pytest.raises(OperatorError, match=op):
        apply_operator(op, a, b)


def test_equality_with_null_is_unchanged():
    assert apply_operator("eq", None, None) is True
    assert apply_operator("eq", None, "a") is False
    assert apply_operator("neq", None, "a") is True
    with pytest.raises(OperatorError, match="same kind"):
        apply_operator("eq", None, 1)


# ---------------------------------------------------------------------------
# Pseudo-tools
# ---------------------------------------------------------------------------

def test_operator_tool_specs_cover_all_ops():
    names = {spec.name for spec in operator_tool_specs()}
    assert names == {
        "op_add", "op_sub", "op_mul", "op_div", "op_floordiv", "op_pow", "op_mod",
        "op_gt", "op_lt", "op_ge", "op_le", "op_eq", "op_neq",
    }


def test_register_operator_tools_bumps_version(fixture_registry):
    extended = register_operator_tools(fixture_registry)
    assert len(extended) == 22
    assert extended.version != fixture_registry.version
    assert extended.version.endswith("+ops")
    # opt-in: the source registry is untouched
    assert len(fixture_registry) == 9


def test_operator_pseudo_tools_chain_via_references(fixture_registry):
    text = (
        '[{"tool_name":"op_add","arguments":['
        '{"argument_name":"a","argument_value":2},{"argument_name":"b","argument_value":3}]},'
        '{"tool_name":"op_mul","arguments":['
        '{"argument_name":"a","argument_value":"$$PREV[0]"},{"argument_name":"b","argument_value":4}]},'
        '{"tool_name":"op_gt","arguments":['
        '{"argument_name":"a","argument_value":"$$PREV[1]"},{"argument_name":"b","argument_value":10}]}]'
    )
    outcome = parse_plan(text)
    assert outcome.ok
    trace = execute(outcome.plan, StubRuntime())
    assert trace.outputs[0] == 5
    assert trace.outputs[1] == 20
    assert trace.outputs[2] is True


def test_operator_runtime_requires_both_operands():
    runtime = OperatorRuntime()
    with pytest.raises(OperatorError):
        runtime.invoke("op_add", {"a": 1})


def test_literal_resolution_kinds(fixture_registry):
    plan = Plan((
        ToolCall("works_list", (
            ("type", "issue"),
            ("limit", 5),
            ("owned_by", ("u1", "u2")),
        )),
    ))
    trace = execute(plan, StubRuntime())
    args = trace.steps[0].arguments
    assert args["type"] == "issue"
    assert args["limit"] == 5
    assert args["owned_by"] == ("u1", "u2")


def test_exec_trace_json_is_pinned(golden_examples):
    # sha256 over ExecutionTrace.to_json() of every golden plan run on the
    # stub runtime, each step's duration zeroed: any change to a step field,
    # its value or the layout changes it.
    import hashlib

    digest = hashlib.sha256()
    for example in golden_examples:
        trace = execute(example.gold, StubRuntime())
        for step in trace.steps:
            step.duration_s = 0.0
        digest.update(trace.to_json().encode("utf-8"))
    assert digest.hexdigest() == "0e1d55e6cafeb02dba3174b013a9bf1753b1f86f8fbd7a4d0f3ee2ce8f152fe1"
