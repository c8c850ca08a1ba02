import json
import math

import pytest
from click.testing import CliRunner

from chainplan.cli import main
from chainplan.registry import (
    ArgSpec,
    Registry,
    RegistryError,
    ToolSpec,
    ValueType,
    fixture_tools_path,
    list_of,
    load_registry,
    object_type,
    parse_type,
    primitive,
    serialize_registry,
    validate_registry,
)


def test_fixture_loads_nine_tools(fixture_registry):
    assert len(fixture_registry) == 9
    assert fixture_registry.names[0] == "works_list"
    assert "who_am_i" in fixture_registry.names


def test_duplicate_tool_name_rejected():
    doc = json.dumps([
        {"tool_name": "works_list", "tool_description": "a", "arguments": [], "return_type": "string"},
        {"tool_name": "works_list", "tool_description": "b", "arguments": [], "return_type": "string"},
    ])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert "works_list" in str(err.value)


def test_unknown_type_keyword_names_tool_and_argument():
    doc = json.dumps([
        {
            "tool_name": "broken",
            "tool_description": "bad arg type",
            "arguments": [
                {"argument_name": "xs", "argument_description": "d", "argument_type": "listt_of_strings"}
            ],
            "return_type": "string",
        }
    ])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    message = str(err.value)
    assert "listt_of_strings" in message
    assert "broken" in message
    assert "arguments[0]" in message


@pytest.mark.parametrize("tool_name, argument_names, message, path", [
    pytest.param('a"b', ["q"], "tool_name is not an identifier", "at=$[0]", id='a"b-q-at=$[0]'),
    pytest.param("search", ["q limit"], "argument_name 'q limit' is not an identifier", "at=$[0].arguments[0]",
                 id="search-q limit-at=$[0].arguments[0]"),
])
def test_non_identifier_names_rejected(tool_name, argument_names, message, path):
    doc = json.dumps([
        {"tool_name": tool_name, "tool_description": "d", "arguments": [
            {"argument_name": name, "argument_description": "d", "argument_type": "string"}
            for name in argument_names
        ], "return_type": "string"},
    ])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert str(err.value).startswith(message)
    assert str(err.value).endswith(path)



def test_validate_duplicate_argument_names_error():
    # The loader refuses the second argument, so validate_registry never sees it.
    doc = json.dumps([
        {
            "tool_name": "dup",
            "tool_description": "duplicate args",
            "arguments": [
                {"argument_name": "a", "argument_description": "x", "argument_type": "string"},
                {"argument_name": "a", "argument_description": "y", "argument_type": "integer"},
            ],
            "return_type": "string",
        }
    ])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert str(err.value) == "duplicate argument_name 'a'; tool=dup; at=$[0].arguments[1]"


def _tool(name="t", arguments=(("a", primitive("string")),), returns=primitive("string")):
    return ToolSpec(name, "d", tuple(ArgSpec(n, "d", vt) for n, vt in arguments), returns)


@pytest.mark.parametrize("build", [
    Registry.from_tools,
    lambda specs: Registry(tools={spec.name: spec for spec in specs}, version="v"),
], ids=["from_tools", "direct"])
@pytest.mark.parametrize("tool, error", [
    (_tool(name="a b"), "tool_name is not an identifier; tool=a b; at=$[1]"),
    (_tool(arguments=(("q", primitive("string")), ("q-2", primitive("integer")))),
     "argument_name 'q-2' is not an identifier; tool=t; at=$[1].arguments[1]"),
    (_tool(arguments=(("a", primitive("string")), ("a", primitive("integer")))),
     "duplicate argument_name 'a'; tool=t; at=$[1].arguments[1]"),
    (_tool(arguments=(("a", list_of(list_of(list_of(primitive("string"))))),)),
     "list nesting deeper than 2; tool=t; at=$[1].arguments[0]"),
    (_tool(returns=list_of(list_of(list_of(primitive("string"))))),
     "list nesting deeper than 2; tool=t; at=$[1].return_type"),
    (_tool(arguments=(("a", list_of(object_type("Work Item"))),)),
     "object type name 'Work Item' is not an identifier; tool=t; at=$[1].arguments[0]"),
    (_tool(returns=object_type("")), "object type name '' is not an identifier; tool=t; at=$[1].return_type"),
    # hand-built types whose fields no type text can spell
    (_tool(arguments=(("a", ValueType("list", "string")),)),
     "unknown type kind 'list'; tool=t; at=$[1].arguments[0]"),
    (_tool(arguments=(("a", ValueType("primitive", "banana")),)),
     "unknown primitive 'banana'; tool=t; at=$[1].arguments[0]"),
    (_tool(arguments=(("a", ValueType("primitive", "string", 3)),)),
     "list nesting deeper than 2; tool=t; at=$[1].arguments[0]"),
    (_tool(returns=ValueType("primitive", "string", -1)), "negative list depth -1; tool=t; at=$[1].return_type"),
    (_tool(arguments=(("a", ValueType("object", "Work-Item", 1)),)),
     "object type name 'Work-Item' is not an identifier; tool=t; at=$[1].arguments[0]"),
    # fields of the wrong Python type: no comparison or match may raise first
    (_tool(arguments=(("a", ValueType("primitive", "string", "1")),)),
     "list depth '1' is not an integer; tool=t; at=$[1].arguments[0]"),
    (_tool(returns=ValueType("object", 5)), "type name 5 is not a string; tool=t; at=$[1].return_type"),
    (_tool(arguments=(("a", ValueType("primitive", "string", True)),)),
     "list depth True is not an integer; tool=t; at=$[1].arguments[0]"),
    (_tool(arguments=(("a", ValueType("primitive", "string", 1.0)),)),
     "list depth 1.0 is not an integer; tool=t; at=$[1].arguments[0]"),
], ids=["tool-name", "argument-name", "duplicate-argument", "list-depth-3", "return-list-depth-3",
        "argument-object-name", "return-object-name", "unknown-kind", "unknown-primitive", "depth-3",
        "negative-depth", "listed-object-name", "string-depth", "int-name", "bool-depth", "float-depth"])
def test_registry_gate_rejects_broken_specs(build, tool, error):
    with pytest.raises(RegistryError) as err:
        build([_tool(name="ok", arguments=()), tool])
    assert str(err.value) == error


def test_registry_gate_rejects_a_key_that_is_not_the_tool_name():
    with pytest.raises(RegistryError) as err:
        Registry(tools={"ok": _tool(name="ok", arguments=()), "alias": _tool(name="real")}, version="v")
    assert str(err.value) == "registry key 'alias' differs from tool_name; tool=real; at=$[1]"
    assert (err.value.tool, err.value.path) == ("real", "$[1]")


@pytest.mark.parametrize("tool_field, argument_field, error", [
    ({}, {"required": "false"}, "required is not a boolean; tool=t; at=$[0].arguments[0]"),
    ({"return_type": 5}, {}, "return_type is not a string; tool=t; at=$[0].return_type"),
    ({}, {"argument_type": ["string"]}, "argument_type is not a string; tool=t; at=$[0].arguments[0]"),
    ({"tool_description": 7}, {}, "tool_description is not a string; tool=t; at=$[0]"),
], ids=["required-string", "return-type-int", "argument-type-array", "tool-description-int"])
def test_wrong_typed_field_names_tool_and_path(tool_field, argument_field, error):
    argument = {"argument_name": "a", "argument_description": "d", "argument_type": "string", **argument_field}
    doc = json.dumps([{"tool_name": "t", "tool_description": "d", "arguments": [argument],
                       "return_type": "string", **tool_field}])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert str(err.value) == error


# A tool document with one value of each field as raw JSON text.
_RAW_DOCUMENT = ('[{{"tool_name": "t", "tool_description": {description}, "return_type": "string", '
                 '"arguments": [{{"argument_name": "a", "argument_type": "string", "required": {required}}}]}}]')


@pytest.mark.parametrize("description, required, error", [
    ('"d"', "NaN", "parse failure: NaN is not a JSON number"),
    ("Infinity", "false", "parse failure: Infinity is not a JSON number"),
    ("1e999", "false", "parse failure: 1e999 is out of a float's range"),
], ids=["required-nan", "tool-description-infinity", "tool-description-overflow"])
def test_a_number_strict_json_lacks_is_a_parse_failure_that_names_it(tmp_path, description, required, error):
    # Python's json module reads all three as floats, which the field checks
    # would then misname as a value of the wrong kind
    text = _RAW_DOCUMENT.format(description=description, required=required)
    path = tmp_path / "tools.json"
    path.write_text(text, encoding="utf-8")
    for source in (text, path):
        with pytest.raises(RegistryError) as err:
            load_registry(source)
        assert str(err.value) == error
    # the CLI reports it as one error line, and exit 1
    result = CliRunner().invoke(main, ["tools", "--tools", str(path)])
    assert (result.exit_code, result.output) == (1, f"Error: {error}\n")


@pytest.mark.parametrize("tool_field, argument_field, error", [
    ({"tool_descripton": "d"}, {}, "unknown field 'tool_descripton'; tool=t; at=$[0]"),
    ({}, {"requried": True}, "unknown field 'requried'; tool=t; at=$[0].arguments[0]"),
], ids=["tool-key", "argument-key"])
def test_unknown_field_names_tool_and_path(tool_field, argument_field, error):
    # a misspelt field is refused rather than read as absent
    argument = {"argument_name": "a", "argument_type": "string", **argument_field}
    doc = json.dumps([{"tool_name": "t", "tool_description": "d", "arguments": [argument],
                       "return_type": "string", **tool_field}])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert str(err.value) == error


def test_a_document_that_is_not_an_array_is_refused(tmp_path):
    # text that does not start with "[" is a path
    path = tmp_path / "tools.json"
    path.write_text('{"tools": []}', encoding="utf-8")
    with pytest.raises(RegistryError) as err:
        load_registry(path)
    assert str(err.value) == "tool document must be a JSON array"


@pytest.mark.parametrize("doc, error", [
    ("[1]", "tool entry is not an object; at=$[0]"),
    ('[{"tool_name": "t", "tool_description": "d", "return_type": "string", "arguments": ["a"]}]',
     "argument entry is not an object; tool=t; at=$[0].arguments[0]"),
], ids=["tool", "argument"])
def test_an_entry_that_is_not_an_object_is_refused(doc, error):
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert str(err.value) == error


def test_missing_required_field():
    doc = json.dumps([{"tool_name": "x", "arguments": []}])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert "tool_description" in str(err.value)


def test_parse_failure():
    with pytest.raises(RegistryError) as err:
        load_registry("[{bad json")
    assert "parse failure" in str(err.value)


def test_get_tool_lookup(fixture_registry):
    spec = fixture_registry.get("who_am_i")
    assert spec is not None
    assert spec.returns == primitive("string")
    assert fixture_registry.get("WHO_AM_I") is None  # case-sensitive
    assert fixture_registry.get("nonexistent_tool") is None


def test_lookup_is_deterministic(fixture_registry):
    first = fixture_registry.get("works_list")
    for _ in range(5):
        assert fixture_registry.get("works_list") is first


def test_validate_clean_fixture(fixture_registry):
    assert validate_registry(fixture_registry) == []


def test_validate_empty_description_warns():
    doc = json.dumps([
        {"tool_name": "quiet", "tool_description": "", "arguments": [], "return_type": "string"}
    ])
    diagnostics = validate_registry(load_registry(doc))
    assert len(diagnostics) == 1
    assert diagnostics[0].severity == "warning"


def test_registry_version_is_pinned():
    # The sha256 prefix of the fixture's tool document, computed on first read.
    from chainplan.executor import register_operator_tools

    registry = load_registry(fixture_tools_path())
    assert registry.version == "395ebb18f33c"
    assert register_operator_tools(registry).version == "395ebb18f33c+ops"
    assert Registry.from_tools(list(registry.tools.values()), version="given").version == "given"
    assert Registry(tools=registry.tools, version="given").version == "given"


def test_setup_and_a_query_never_write_the_tool_document(monkeypatch, golden_examples):
    # The version is computed on first read, and set-up and a RE-GAINS query
    # read none: with the document writer refusing, all three still succeed.
    import chainplan.registry
    from chainplan.llm import ScriptedModel
    from chainplan.pipelines import PipelineConfig, PlannerContext, run_regains
    from chainplan.retrieval import HashEmbeddingProvider
    from conftest import regains_replay_entries

    def refuse(registry):
        raise AssertionError("the tool document was written")

    monkeypatch.setattr(chainplan.registry, "serialize_registry", refuse)
    registry = load_registry(fixture_tools_path())
    ctx = PlannerContext.build(registry, HashEmbeddingProvider(), golden_examples)
    config = PipelineConfig()
    example = golden_examples[5]
    straying = example.gold_text[:-1] + ",]"
    model = ScriptedModel(dict(regains_replay_entries(example, ctx, config, response_text=straying)))
    trace = run_regains(example.query, ctx, model, config)
    assert trace.enforcement["rap"] == "repaired"
    with pytest.raises(AssertionError, match="the tool document was written"):
        registry.version


def test_compiling_an_automaton_over_names_writes_no_tool_document(monkeypatch):
    # EnChAnT compiles each query's plan automaton over the retrieved names
    # of the one registry; that leaves the registry's version unread.
    import chainplan.enforcer
    import chainplan.registry

    registry = load_registry(fixture_tools_path())
    with monkeypatch.context() as patched:
        patched.setattr(chainplan.registry, "serialize_registry", lambda registry: pytest.fail("document written"))
        automaton = chainplan.enforcer.compile_schema(registry, ["works_list", "who_am_i", "unknown"])
        session = chainplan.enforcer.DecoderSession(automaton).advance('[{"tool_name":"w')
    assert registry.__dict__["_version"] is None
    assert automaton.allowed(session.state) == frozenset("ho")  # who_am_i, works_list
    assert registry.version == "395ebb18f33c"
    assert registry.__dict__["_version"] == "395ebb18f33c"


def test_equal_type_texts_share_one_value_type():
    doc = json.dumps([
        {"tool_name": f"t{i}", "tool_description": "d", "return_type": "array of object:Work",
         "arguments": [{"argument_name": "a", "argument_type": "array of object:Work"},
                       {"argument_name": "b", "argument_type": "string"}]}
        for i in range(3)
    ])
    tools = list(load_registry(doc).tools.values())
    types = [vt for spec in tools for vt in (spec.returns, *(arg.value_type for arg in spec.arguments))]
    assert types[0] == list_of(object_type("Work"))
    assert len({id(vt) for vt in types}) == 2
    assert load_registry(doc).tools["t0"].returns is not tools[0].returns  # nothing outlives one load


def test_the_gate_checks_each_value_type_once(monkeypatch):
    import chainplan.registry

    checked = []
    check = chainplan.registry._reject_bad_type
    monkeypatch.setattr(chainplan.registry, "_reject_bad_type",
                        lambda vt, tool, path: checked.append(vt) or check(vt, tool, path))
    works, text = list_of(object_type("Work")), primitive("string")
    Registry.from_tools([_tool(name=f"t{i}", arguments=(("a", works), ("b", text)), returns=works) for i in range(5)])
    assert checked == [works, text]


@pytest.mark.parametrize("bad_type, error", [
    ("array of array of array of string", "list nesting deeper than 2; tool=t1; at=$[1].arguments[0]"),
    ("vector", "unknown type keyword 'vector'; tool=t1; at=$[1].arguments[0]"),
    ("object:Work Item", "object type name 'Work Item' is not an identifier; tool=t1; at=$[1].arguments[0]"),
], ids=["list-depth-3", "unknown-keyword", "object-name"])
def test_a_bad_type_text_met_twice_is_refused_at_its_first_place(bad_type, error):
    # The same bad text in the second and the fifth tool: the error names the second.
    doc = json.dumps([
        {"tool_name": f"t{i}", "tool_description": "d", "return_type": "string",
         "arguments": [{"argument_name": "a", "argument_type": bad_type if i in (1, 4) else "string"}]}
        for i in range(6)
    ])
    with pytest.raises(RegistryError) as err:
        load_registry(doc)
    assert str(err.value) == error


@pytest.mark.parametrize("raw, offset", [
    (b"\xff\xfe[\x00]\x00", 0),
    ('[{"tool_name": "caf'.encode() + b"\xe9" + b'"}]', 19),
], ids=["utf16-bom", "latin1-byte"])
def test_a_file_that_is_not_utf8_is_refused_with_its_path_and_byte(tmp_path, raw, offset):
    from chainplan.datasets import DatasetError, load_golden_dataset
    from chainplan.llm import CompletionError, load_replay
    from chainplan.pipelines import PipelineConfig

    target = tmp_path / "input.json"
    target.write_bytes(raw)
    for load, error in ((load_registry, RegistryError), (load_golden_dataset, DatasetError),
                        (load_replay, CompletionError), (PipelineConfig.from_file, ValueError)):
        for source in (target, str(target)):
            with pytest.raises(error) as err:
                load(source)
            assert str(err.value).startswith(f"{target} is not UTF-8 at byte {offset}: "), str(err.value)


def test_round_trip_preserves_tools_and_order(fixture_registry):
    reloaded = load_registry(serialize_registry(fixture_registry))
    assert reloaded.names == fixture_registry.names
    assert reloaded.tools == fixture_registry.tools
    assert reloaded.version == fixture_registry.version


def test_parse_type_grammar():
    assert parse_type("string") == primitive("string")
    assert parse_type("array of integer") == list_of(primitive("integer"))
    assert parse_type("object:WorkItem") == object_type("WorkItem")
    assert parse_type("array of array of string") == list_of(list_of(primitive("string")))
    with pytest.raises(RegistryError):
        parse_type("array of array of array of string")  # depth > 2
    with pytest.raises(RegistryError):
        parse_type("object:")


def test_load_from_path(tmp_path):
    target = tmp_path / "tools.json"
    target.write_text(fixture_tools_path().read_text(encoding="utf-8"), encoding="utf-8")
    assert len(load_registry(target)) == 9
    assert len(load_registry(str(target))) == 9


def test_golden_dataset_save_round_trip(tmp_path, golden_examples):
    from chainplan.datasets import load_golden_dataset, save_golden_dataset

    target = tmp_path / "golden.jsonl"
    save_golden_dataset(golden_examples, target)
    reloaded = load_golden_dataset(target)
    assert reloaded == golden_examples  # ids, queries and gold plans
    assert [ex.gold_text for ex in reloaded] == [ex.gold_text for ex in golden_examples]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, (1, math.nan)],
                         ids=["nan", "inf", "minus_inf", "nan_in_array"])
def test_golden_dataset_save_refuses_a_non_finite_value(tmp_path, golden_examples, value):
    from chainplan.datasets import GoldenExample, save_golden_dataset
    from chainplan.plan import Plan, ToolCall

    bad = GoldenExample(id="ex002", query="q", gold=Plan((ToolCall("op_mul", (("a", value),)),)))
    target = tmp_path / "golden.jsonl"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_golden_dataset([golden_examples[0], bad], target)
    assert not target.exists()


@pytest.mark.parametrize("bad_record", [
    '{"query": "missing gold"}',
    '{"query": 7, "gold": []}',
    '{"query": "", "gold": []}',
    '{"query": null, "gold": []}',
    '{"query": "q", "gold": [{"tool_name": "t", "arguments": [{"argument_name": "a", "argument_value": NaN}]}]}',
    '{"query": "q", "gold": [{"tool_name": "t", "arguments": [{"argument_name": "a", "argument_value": 1e999}]}]}',
], ids=["missing_gold", "int_query", "empty_query", "null_query", "nan_value", "overflowing_value"])
def test_dataset_loader_cites_bad_line(tmp_path, bad_record):
    from chainplan.datasets import DatasetError, load_golden_dataset

    target = tmp_path / "bad.jsonl"
    target.write_text('{"query": "ok", "gold": []}\n' + bad_record + "\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_golden_dataset(target)
    assert err.value.line == 2


def test_dataset_loader_refuses_a_gold_plan_off_the_wire_format(tmp_path):
    from chainplan.datasets import DatasetError, load_golden_dataset

    target = tmp_path / "bad.jsonl"
    target.write_text('{"query": "ok", "gold": []}\n{"query": "q", "gold": [{"tool_name": "t"}]}\n',
                      encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_golden_dataset(target)
    assert str(err.value) == (f"{target} line 2: gold plan does not match the wire format: "
                              "call must have exactly tool_name and arguments")
    assert err.value.line == 2
