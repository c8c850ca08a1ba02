import copy
import dataclasses
import inspect
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from chainplan.metrics import hallucination_rate
from chainplan.plan import (
    PREV_REF_PATTERN,
    ParseOutcome,
    Plan,
    PrevRef,
    ToolCall,
    parse_plan,
    plan_from_data,
    serialize_plan,
    validate_refs,
)

from chainplan.registry import fixture_tools_path, load_registry

from conftest import random_plan


def test_parse_single_call_no_args():
    outcome = parse_plan('[{"tool_name":"who_am_i","arguments":[]}]')
    assert outcome.ok
    assert len(outcome.plan.calls) == 1
    assert outcome.plan.calls[0].tool_name == "who_am_i"
    assert outcome.plan.calls[0].arguments == ()


def test_parse_array_wrapped_reference():
    text = '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[0]"]}]}]'
    outcome = parse_plan(text)
    assert outcome.ok
    value = outcome.plan.calls[0].argument("owned_by")
    assert value == (PrevRef(0),)


def test_parse_malformed_json():
    outcome = parse_plan('[{"tool_name": "x", "arguments": [}]')
    assert outcome.kind == "invalid_json"
    assert not outcome.ok


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e999"])
def test_parse_refuses_non_finite_numbers(number):
    text = ('[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":'
            + number + "}]}]")
    outcome = parse_plan(text)
    assert outcome.kind == "invalid_json", outcome
    assert number in outcome.detail


def test_parse_schema_violation_has_pointer_path():
    outcome = parse_plan('[{"tool_name": 3, "arguments": []}]')
    assert outcome.kind == "schema_violation"
    assert outcome.path == "/0/tool_name"

    outcome = parse_plan('[{"tool_name": "x"}]')
    assert outcome.kind == "schema_violation"
    assert outcome.path == "/0"


@pytest.mark.parametrize(("data", "path", "detail"), [
    ({}, "", "plan must be a JSON array of calls"),
    ([1], "/0", "call must be a JSON object"),
    ([{"tool_name": "x", "arguments": {}}], "/0/arguments", "arguments must be an array"),
    ([{"tool_name": "x", "arguments": [1]}], "/0/arguments/0", "argument must be a JSON object"),
    ([{"tool_name": "x", "arguments": [{"argument_name": "a"}]}], "/0/arguments/0",
     "argument must have exactly argument_name and argument_value"),
    ([{"tool_name": "x", "arguments": [{"argument_name": 1, "argument_value": 2}]}],
     "/0/arguments/0/argument_name", "argument_name must be a string"),
], ids=["plan_object", "call_number", "arguments_object", "argument_number", "argument_without_value",
        "argument_name_number"])
def test_plan_from_data_pins_each_violation(data, path, detail):
    outcome = plan_from_data(data)
    assert (outcome.kind, outcome.path, outcome.detail) == ("schema_violation", path, detail)


def test_parse_duplicate_argument_name_rejected():
    text = ('[{"tool_name":"works_list","arguments":['
            '{"argument_name":"type","argument_value":"issue"},'
            '{"argument_name":"type","argument_value":"ticket"}]}]')
    outcome = parse_plan(text)
    assert outcome.kind == "schema_violation"
    assert "duplicate" in outcome.detail


def test_prev_ref_recognition_is_exact():
    text = '[{"tool_name":"x","arguments":[{"argument_name":"a","argument_value":"$$PREV[x]"}]}]'
    outcome = parse_plan(text)
    assert outcome.ok
    assert outcome.plan.calls[0].argument("a") == "$$PREV[x]"


def test_serialize_empty_plan():
    assert serialize_plan(Plan()) == "[]"


def test_serialize_renders_reference_tag():
    plan = Plan((ToolCall("x", (("a", PrevRef(2)),)),))
    assert '"$$PREV[2]"' in serialize_plan(plan)


def test_serialize_is_canonical_single_line():
    plan = Plan((ToolCall("who_am_i"),))
    assert serialize_plan(plan) == '[{"tool_name":"who_am_i","arguments":[]}]'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, (1.0, math.nan), {"k": math.inf}],
                         ids=["nan", "inf", "-inf", "nan_in_array", "inf_in_object"])
def test_serialize_refuses_a_non_finite_value(value):
    # strict JSON has no NaN or infinity, and parse_plan reads either as invalid JSON
    plan = Plan((ToolCall("op_mul", (("a", value),)),))
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        serialize_plan(plan)


def test_round_trip_random_plans():
    rng = random.Random(42)
    for _ in range(200):
        plan = random_plan(rng)
        outcome = parse_plan(serialize_plan(plan))
        assert outcome.ok
        assert outcome.plan == plan


def test_parse_is_pure():
    text = '[{"tool_name":"who_am_i","arguments":[]}]'
    assert parse_plan(text) == parse_plan(text)


def test_validate_refs_clean_chain():
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),
    ))
    assert validate_refs(plan) == []


def test_validate_refs_self_reference():
    plan = Plan((ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),))
    diagnostics = validate_refs(plan)
    assert len(diagnostics) == 1
    assert diagnostics[0].position == 0
    assert "self" in diagnostics[0].message


def test_validate_refs_out_of_range():
    plan = Plan((ToolCall("a"), ToolCall("b", (("x", PrevRef(5)),))))
    diagnostics = validate_refs(plan)
    assert len(diagnostics) == 1
    assert diagnostics[0].index == 5


def test_forward_reference_still_parses():
    text = '[{"tool_name":"a","arguments":[{"argument_name":"x","argument_value":"$$PREV[9]"}]}]'
    outcome = parse_plan(text)
    assert outcome.ok
    assert len(validate_refs(outcome.plan)) == 1


def test_reference_with_trailing_newline_stays_literal():
    text = '[{"tool_name":"a","arguments":[{"argument_name":"x","argument_value":"$$PREV[0]\\n"}]}]'
    outcome = parse_plan(text)
    assert outcome.plan.calls[0].argument("x") == "$$PREV[0]\n"
    assert serialize_plan(outcome.plan) == text


def test_reference_with_non_ascii_digit_stays_literal():
    # U+0663 ARABIC-INDIC DIGIT THREE is a Unicode digit, not an index digit.
    text = '[{"tool_name":"a","arguments":[{"argument_name":"x","argument_value":"$$PREV[\\u0663]"}]}]'
    outcome = parse_plan(text)
    assert outcome.plan.calls[0].argument("x") == "$$PREV[\u0663]"
    assert serialize_plan(outcome.plan) == text
    assert [d.kind for d in validate_refs(outcome.plan)] == ["malformed_reference"]


def test_reference_with_leading_zero_stays_literal():
    # the index is canonical, as the automaton spells it
    text = '[{"tool_name":"a","arguments":[{"argument_name":"x","argument_value":"$$PREV[01]"}]}]'
    outcome = parse_plan(text)
    assert outcome.plan.calls[0].argument("x") == "$$PREV[01]"
    assert serialize_plan(outcome.plan) == text
    assert [d.kind for d in validate_refs(outcome.plan)] == ["malformed_reference"]


def test_validate_refs_reports_each_kind(fixture_registry):
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("ghost_tool", (("x", 1),)),
        ToolCall("works_list", (
            ("ghost_arg", 1),
            ("owned_by", ((PrevRef(2),), "$$PREV[x]")),
        )),
    ))
    found = [(d.position, d.argument, d.index, d.kind) for d in validate_refs(plan, fixture_registry)]
    assert found == [
        (1, None, None, "unknown_tool"),
        (2, "ghost_arg", None, "unknown_argument"),
        (2, "owned_by", 2, "bad_reference"),
        (2, "owned_by", None, "malformed_reference"),
    ]
    # without a registry only the reference findings remain
    assert [d.kind for d in validate_refs(plan)] == ["bad_reference", "malformed_reference"]


_FIXTURE = load_registry(fixture_tools_path())


def _values(position: int):
    leaves = st.one_of(
        st.sampled_from(["x", 1, None, "$$PREV", "$$PREV[x]", "$$PREV[0]\n", "$$PREV[0]"]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.dictionaries(st.sampled_from(["key", "$$PREV[0]"]), st.sampled_from(["$$PREV[0]", 2.5, None]), max_size=2),
        st.builds(PrevRef, st.integers(-1, position + 1)),
    )
    return st.recursive(leaves, lambda inner: st.tuples(inner) | st.tuples(inner, inner),
                        max_leaves=4)


@st.composite
def _fixture_plans(draw):
    calls = []
    for position in range(draw(st.integers(0, 4))):
        tool = draw(st.sampled_from(_FIXTURE.names + ("ghost_tool",)))
        spec = _FIXTURE.get(tool)
        known = tuple(arg.name for arg in spec.arguments) if spec else ()
        names = draw(st.lists(st.sampled_from(known + ("ghost_arg",)), max_size=3, unique=True))
        calls.append(ToolCall(tool, tuple((name, draw(_values(position))) for name in names)))
    return Plan(tuple(calls))


@settings(max_examples=300, deadline=None)
@given(_fixture_plans())
def test_hallucination_rate_positive_iff_validate_refs_finds(plan):
    assert (hallucination_rate(plan, _FIXTURE) > 0) == bool(validate_refs(plan, _FIXTURE))


def _as_parsed(value):
    """What parsing makes of a hand-built value: a string matching
    ``$$PREV[i]`` outside an object becomes a reference, and a negative
    reference becomes a string."""
    if isinstance(value, tuple):
        return tuple(_as_parsed(item) for item in value)
    if isinstance(value, PrevRef) and value.index < 0:
        return value.render()
    if isinstance(value, str) and PREV_REF_PATTERN.fullmatch(value):
        return PrevRef(int(value[len("$$PREV["):-1]))
    return value


@settings(max_examples=300, deadline=None)
@given(_fixture_plans())
def test_round_trip_hypothesis_plans(plan):
    text = serialize_plan(plan)
    outcome = parse_plan(text)
    assert outcome.ok
    assert serialize_plan(outcome.plan) == text
    assert outcome.plan == Plan(tuple(
        ToolCall(call.tool_name, tuple((name, _as_parsed(value)) for name, value in call.arguments))
        for call in plan.calls
    ))


# Values whose canonical text could drift on a second pass: float reprs,
# negative zero, an int beyond 64 bits, escapes and non-ASCII text, an
# object member holding a list, and a hand-built string that re-parses as a
# reference.
_EDGE_VALUES = st.sampled_from([
    1e-07, 1.5e+300, -0.0, 2**70, "Zürich ☃ \U0001F600", 'a "quote", a \\ and \n\t\x00',
    {"k": (1, "$$PREV[0]", [2.5])}, "$$PREV[0]",
])


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(_EDGE_VALUES | st.tuples(_EDGE_VALUES, _EDGE_VALUES), max_size=4))
def test_canonical_text_is_a_fixed_point_of_parse_then_serialize(rng, edge_values):
    # what scoring a prediction that is its gold's canonical text rests on
    plan = random_plan(rng, max_calls=8)
    edge_call = ToolCall("edge", tuple((f"arg{i}", value) for i, value in enumerate(edge_values)))
    calls = list(plan.calls)
    calls.insert(rng.randint(0, len(calls)), edge_call)
    text = serialize_plan(Plan(tuple(calls)))
    assert serialize_plan(parse_plan(text).plan) == text


# The reference parser: every check on every record, each record named by its
# path before it is looked at. plan_from_data must return an equal outcome.
class _ReferenceViolation(Exception):
    def __init__(self, path, detail):
        super().__init__(f"{detail} (at {path})")
        self.path = path
        self.detail = detail


def _reference_decode_value(raw):
    if isinstance(raw, str):
        match = PREV_REF_PATTERN.fullmatch(raw)
        if match:
            return PrevRef(index=int(match.group(1)))
    elif isinstance(raw, list):
        return tuple(_reference_decode_value(item) for item in raw)
    return raw


def _reference_record_name(raw, path, record, name_key, value_key):
    if not isinstance(raw, dict):
        raise _ReferenceViolation(path, f"{record} must be a JSON object")
    if set(raw) != {name_key, value_key}:
        raise _ReferenceViolation(path, f"{record} must have exactly {name_key} and {value_key}")
    if not isinstance(raw[name_key], str):
        raise _ReferenceViolation(f"{path}/{name_key}", f"{name_key} must be a string")
    return raw[name_key]


def _reference_plan_from_data(data):
    try:
        if not isinstance(data, list):
            raise _ReferenceViolation("", "plan must be a JSON array of calls")
        calls = []
        for i, raw_call in enumerate(data):
            call_path = f"/{i}"
            name = _reference_record_name(raw_call, call_path, "call", "tool_name", "arguments")
            raw_args = raw_call["arguments"]
            if not isinstance(raw_args, list):
                raise _ReferenceViolation(f"{call_path}/arguments", "arguments must be an array")
            pairs = []
            seen = set()
            for j, raw_arg in enumerate(raw_args):
                arg_path = f"{call_path}/arguments/{j}"
                arg_name = _reference_record_name(raw_arg, arg_path, "argument", "argument_name", "argument_value")
                if arg_name in seen:
                    raise _ReferenceViolation(f"{arg_path}/argument_name", f"duplicate argument name {arg_name!r}")
                seen.add(arg_name)
                pairs.append((arg_name, _reference_decode_value(raw_arg["argument_value"])))
            calls.append(ToolCall(tool_name=name, arguments=tuple(pairs)))
        return ParseOutcome("ok", plan=Plan(calls=tuple(calls)))
    except _ReferenceViolation as exc:
        return ParseOutcome("schema_violation", path=exc.path, detail=exc.detail)


# Strings that look like references: canonical ones, and ones with a leading
# zero, a non-ASCII digit (U+0663), a trailing newline or no closing bracket.
_REF_LIKE = st.sampled_from(["$$PREV[0]", "$$PREV[12]", "$$PREV[01]", "$$PREV[00]", "$$PREV[٣]",
                             "$$PREV[0]\n", "$$PREV[", "$$PREV", "$$PREV[x]", "x", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _REF_LIKE | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_REF_LIKE | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_NAMES = st.sampled_from(["a", "b", "c"])
_VALUES = _REF_LIKE | _JSON | st.lists(_REF_LIKE | _JSON, max_size=3)


def _records(name_key, value_key, values):
    """A well-formed record half the time; otherwise one that is not an
    object, lacks a key, has an extra key or has a name that is not a string."""
    good = st.builds(lambda name, value: {name_key: name, value_key: value}, _NAMES, values)
    return good | st.one_of(
        _JSON.filter(lambda raw: not isinstance(raw, dict)),
        good.map(lambda record: {name_key: record[name_key]}),
        good.map(lambda record: {value_key: record[value_key]}),
        good.map(lambda record: {**record, "extra": 1}),
        st.builds(lambda name, value: {name_key: name, value_key: value},
                  st.integers() | st.none() | st.lists(_NAMES, max_size=1), values),
    )


def _calls(arguments):
    return st.builds(lambda name, args: {"tool_name": name, "arguments": args}, _NAMES, arguments)


_GOOD_CALLS = _calls(st.lists(st.builds(lambda name, value: {"argument_name": name, "argument_value": value},
                                        _NAMES, _VALUES), max_size=3, unique_by=lambda arg: arg["argument_name"]))


# plan_from_data takes already-decoded data from any caller, so records may be
# dict subclasses and names and values str subclasses, which JSON never gives.
class _Dict(dict):
    pass


class _Str(str):
    pass


def _maybe_dict_subclass(records):
    return records | records.map(lambda raw: _Dict(raw) if type(raw) is dict else raw)


_SUBCLASS_NAMES = _NAMES | _NAMES.map(_Str)
_SUBCLASS_VALUES = _REF_LIKE.map(_Str) | st.lists(_REF_LIKE.map(_Str) | _JSON, min_size=1, max_size=3) | _VALUES
_SUBCLASS_CALLS = _maybe_dict_subclass(st.builds(
    lambda name, args: {"tool_name": name, "arguments": args}, _SUBCLASS_NAMES,
    st.lists(_maybe_dict_subclass(st.builds(lambda name, value: {"argument_name": name, "argument_value": value},
                                            _SUBCLASS_NAMES, _SUBCLASS_VALUES)), max_size=3)))
_WIRE_DATA = st.one_of(
    st.lists(_GOOD_CALLS, max_size=4),
    _JSON.filter(lambda data: not isinstance(data, list)),
    st.lists(_GOOD_CALLS | _calls(_JSON.filter(lambda raw: not isinstance(raw, list))), max_size=4),
    st.lists(_records("tool_name", "arguments", st.just([])), max_size=4),
    # argument records that may be damaged or repeat a name
    st.lists(_calls(st.lists(_records("argument_name", "argument_value", _VALUES), max_size=4)), max_size=3),
    # dict-subclass records and str-subclass names and values, whole or damaged
    st.lists(_SUBCLASS_CALLS, max_size=4),
    st.lists(_maybe_dict_subclass(_records("tool_name", "arguments", st.just([]))), max_size=3),
    st.lists(_calls(st.lists(_maybe_dict_subclass(_records("argument_name", "argument_value", _SUBCLASS_VALUES)),
                             max_size=4)), max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(_WIRE_DATA)
def test_plan_from_data_equals_the_reference_parser(data):
    outcome, reference = plan_from_data(data), _reference_plan_from_data(data)
    assert outcome == reference
    assert repr(outcome) == repr(reference)


# The record contract: each of the four plan records is a frozen slotted
# dataclass with a hand-written __init__, and behaves as a plain frozen
# dataclass of the same fields (its twin here) does.
@dataclasses.dataclass(frozen=True)
class _PlainPrevRef:
    index: int


@dataclasses.dataclass(frozen=True)
class _PlainToolCall:
    tool_name: str
    arguments: tuple = ()


@dataclasses.dataclass(frozen=True)
class _PlainPlan:
    calls: tuple = ()


@dataclasses.dataclass(frozen=True)
class _PlainParseOutcome:
    kind: str
    plan: object = None
    path: object = None
    detail: object = None


_TWINS = {PrevRef: _PlainPrevRef, ToolCall: _PlainToolCall, Plan: _PlainPlan, ParseOutcome: _PlainParseOutcome}

_HASHABLE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
    | st.builds(PrevRef, st.integers()),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=4,
)
_RECORD_CALLS = st.builds(ToolCall, st.text(max_size=3),
                          st.lists(st.tuples(st.text(max_size=2), _HASHABLE_VALUES), max_size=2).map(tuple))
_OPTIONAL_TEXT = st.none() | st.text(max_size=3)
# Keyword arguments for each record; a field left out takes its default.
_RECORD_KWARGS = {
    PrevRef: st.fixed_dictionaries({"index": st.integers()}),
    ToolCall: st.fixed_dictionaries({"tool_name": st.text(max_size=3)}, optional={
        "arguments": st.lists(st.tuples(st.text(max_size=2), _HASHABLE_VALUES), max_size=2).map(tuple)}),
    Plan: st.fixed_dictionaries({}, optional={"calls": st.lists(_RECORD_CALLS, max_size=2).map(tuple)}),
    ParseOutcome: st.fixed_dictionaries({"kind": st.sampled_from(["ok", "invalid_json", "schema_violation"])}, optional={
        "plan": st.none() | st.lists(_RECORD_CALLS, max_size=2).map(lambda calls: Plan(tuple(calls))),
        "path": _OPTIONAL_TEXT, "detail": _OPTIONAL_TEXT}),
}


@pytest.mark.parametrize("cls", list(_TWINS), ids=lambda cls: cls.__name__)
def test_record_init_has_exactly_its_fields(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    ]


@pytest.mark.parametrize("cls", list(_TWINS), ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_behaves_as_a_plain_frozen_dataclass(cls, data):
    kwargs, other_kwargs = data.draw(_RECORD_KWARGS[cls]), data.draw(_RECORD_KWARGS[cls])
    record, twin = cls(**kwargs), _TWINS[cls](**kwargs)
    values = [getattr(twin, f.name) for f in dataclasses.fields(twin)]
    assert [getattr(record, f.name) for f in dataclasses.fields(cls)] == values
    assert cls(*values) == record
    assert hash(record) == hash(twin) == hash(cls(**kwargs))
    assert repr(twin).startswith("_Plain") and repr(record) == repr(twin)[len("_Plain"):]
    assert (record == cls(**other_kwargs)) == (twin == _TWINS[cls](**other_kwargs))
    assert record != twin

    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    assert not hasattr(record, "__dict__")

    copies = [copy.copy(record), copy.deepcopy(record), dataclasses.replace(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)
        assert hash(copied) == hash(record)
