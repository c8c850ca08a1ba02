import json

import pytest
from click.testing import CliRunner

from chainplan.cli import main
from chainplan.llm import estimate_tokens, save_replay
from chainplan.pipelines import PipelineConfig, PlannerContext
from chainplan.retrieval import HashEmbeddingProvider

from conftest import GOLDEN_PATH, enchant_replay_entries, regains_replay_entries, subtasks_for


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def replay_files(tmp_path_factory, fixture_registry, golden_examples):
    """Replay JSONL files covering every golden example for both pipelines."""
    ctx = PlannerContext.build(fixture_registry, HashEmbeddingProvider(), golden_examples)
    config = PipelineConfig()
    regains_entries = []
    enchant_entries = []
    for example in golden_examples:
        regains_entries.extend(regains_replay_entries(example, ctx, config))
        enchant_entries.extend(enchant_replay_entries(example, ctx, config))
        # eval plans each query with its own example held out of the pool
        others = [other for other in golden_examples if other is not example]
        held_out = PlannerContext.build(fixture_registry, HashEmbeddingProvider(), others)
        regains_entries.extend(regains_replay_entries(example, held_out, config))
    base = tmp_path_factory.mktemp("replays")
    regains_path = base / "regains.jsonl"
    enchant_path = base / "enchant.jsonl"
    save_replay(regains_entries, regains_path)
    save_replay(enchant_entries, enchant_path)
    return {"regains": str(regains_path), "enchant": str(enchant_path)}


def test_plan_regains_mock(runner, tmp_path, replay_files, golden_examples):
    trace_file = tmp_path / "trace.json"
    result = runner.invoke(main, [
        "plan", golden_examples[0].query,
        "--pipeline", "regains",
        "--examples", str(GOLDEN_PATH),
        "--mock", replay_files["regains"],
        "--trace", str(trace_file),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == golden_examples[0].gold_text
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    assert trace["llm_calls"] == 1
    assert trace["retrieved_tools"]
    assert trace["prompt_tokens"] == sum(map(estimate_tokens, trace["prompts"].values()))
    assert trace["completion_tokens"] == estimate_tokens(golden_examples[0].gold_text)


def test_plan_enchant_mock_same_final_plan(runner, tmp_path, replay_files, golden_examples):
    trace_file = tmp_path / "trace.json"
    result = runner.invoke(main, [
        "plan", golden_examples[0].query,
        "--pipeline", "enchant",
        "--mock", replay_files["enchant"],
        "--trace", str(trace_file),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == golden_examples[0].gold_text
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    assert trace["llm_calls"] == 2
    assert trace["prompt_tokens"] == sum(map(estimate_tokens, trace["prompts"].values()))
    answers = [subtasks_for(golden_examples[0]), golden_examples[0].gold_text]
    assert trace["completion_tokens"] == sum(map(estimate_tokens, answers))


def test_plan_missing_tools_file_is_usage_error(runner):
    result = runner.invoke(main, ["plan", "q", "--tools", "/nonexistent/tools.json"])
    assert result.exit_code == 2


def test_no_network_under_mock(runner, tmp_path, replay_files, golden_examples, monkeypatch):
    import chainplan.llm as llm_module

    def explode(*args, **kwargs):
        raise AssertionError("network transport touched under --mock")

    monkeypatch.setattr(llm_module, "post_json", explode)
    monkeypatch.setattr("urllib.request.urlopen", explode)
    result = runner.invoke(main, [
        "plan", golden_examples[1].query,
        "--pipeline", "regains",
        "--examples", str(GOLDEN_PATH),
        "--mock", replay_files["regains"],
        "--trace", str(tmp_path / "t.json"),
    ], catch_exceptions=False)
    assert result.exit_code == 0, result.output


def test_bad_timeout_is_one_line_error(runner, monkeypatch):
    # refused when the remote client is built, before any request
    monkeypatch.setenv("CHAINPLAN_TIMEOUT", "abc")
    monkeypatch.setattr("urllib.request.urlopen", lambda *args, **kwargs: pytest.fail("request sent"))
    result = runner.invoke(main, ["plan", "q", "--trace", "/dev/null"])
    _assert_one_line_error(result, "CHAINPLAN_TIMEOUT", "'abc'")


@pytest.mark.parametrize("args", [
    ["plan", "q", "--config", "/nonexistent/config.json"],
    ["plan", "q", "--mock", "/nonexistent/replay.jsonl"],
    ["plan", "q", "--examples", "/nonexistent/golden.jsonl"],
    ["eval", "--dataset", str(GOLDEN_PATH), "--predictions", "/nonexistent/predictions.jsonl"],
    ["eval", "--dataset", str(GOLDEN_PATH), "--pipeline", "regains", "--mock", "/nonexistent/replay.jsonl"],
    ["eval", "--dataset", "/nonexistent/golden.jsonl", "--predictions", str(GOLDEN_PATH)],
    ["check", "--in", "/nonexistent/plan.json"],
], ids=["config", "plan_mock", "examples", "predictions", "eval_mock", "dataset", "in"])
def test_missing_input_file_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "does not exist" in result.output


def _assert_one_line_error(result, *fragments):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1, result.output
    for fragment in fragments:
        assert fragment in result.output


def test_malformed_replay_is_one_line_error(runner, tmp_path):
    replay = tmp_path / "replay.jsonl"
    replay.write_text('{"fingerprint": "x"}\n', encoding="utf-8")
    for args in (["plan", "q", "--mock", str(replay), "--trace", str(tmp_path / "t.json")],
                 ["eval", "--dataset", str(GOLDEN_PATH), "--pipeline", "enchant", "--mock", str(replay),
                  "--trace", str(tmp_path / "t.json")]):
        _assert_one_line_error(runner.invoke(main, args),
                               f"Error: {replay} line 1: record needs fingerprint and response fields\n")


@pytest.mark.parametrize("command", ["plan", "eval", "exec"])
def test_output_in_a_missing_directory_is_one_line_error(runner, tmp_path, replay_files, golden_examples,
                                                           command):
    out = str(tmp_path / "missing" / "out.json")
    args = {
        "plan": ["plan", golden_examples[0].query, "--examples", str(GOLDEN_PATH),
                 "--mock", replay_files["regains"], "--trace", out],
        "eval": ["eval", "--dataset", str(GOLDEN_PATH), "--pipeline", "regains",
                 "--mock", replay_files["regains"], "--trace", out],
        "exec": ["exec", "--out", out],
    }[command]
    result = runner.invoke(main, args, input=golden_examples[0].gold_text)
    _assert_one_line_error(result, f"cannot write {out}: No such file or directory")


@pytest.mark.parametrize("text, fragment", [
    ("{not json", "invalid JSON"),
    ("[1, 2]", "JSON object"),
    ('{"templates": ["rap.txt"]}', "JSON object"),
    ('{"k": 3, "token_budget": 10}', "unknown config keys: token_budget"),
    ('{"templates": {"rap": "missing.txt"}}', "missing.txt"),
    ('{"k": "4", "temperature": true, "insights": 5, "templates": {"rap": null}}',
     "wrong type: k, temperature, insights, templates.rap"),
    ('{"k": 0}', "out of range: k must be at least 1"),
    ('{"example_count": -1}', "out of range: example_count must be at least 0"),
    ('{"max_tokens": 0}', "out of range: max_tokens must be at least 1"),
    ('{"temperature": -1}', "out of range: temperature must be at least 0"),
    ('{"temperature": NaN}', "config.json: invalid JSON: NaN is not a JSON number"),
    ('{"temperature": Infinity}', "config.json: invalid JSON: Infinity is not a JSON number"),
    ('{"temperature": 1e999}', "config.json: invalid JSON: 1e999 is out of a float's range"),
    ('{"k": 0, "max_tokens": 0, "temperature": -0.5}',
     "out of range: k must be at least 1, max_tokens must be at least 1, temperature must be at least 0"),
], ids=["invalid_json", "array", "templates_array", "unknown_key", "missing_template", "wrong_types",
        "k_zero", "example_count_negative", "max_tokens_zero", "temperature_negative", "temperature_nan",
        "temperature_infinity", "temperature_overflow", "several_out_of_range"])
def test_bad_config_is_one_line_error(runner, tmp_path, text, fragment):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    replay = tmp_path / "empty.jsonl"  # a config loaded by mistake fails on a replay miss, offline
    replay.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["plan", "q", "--config", str(config), "--mock", str(replay),
                                  "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, "config: ", fragment)


@pytest.mark.parametrize("bad_line", ["[1, 2]", '{"predicted": ["x"]}', '{"plan": "[]"}', '"[]"'],
                         ids=["array", "list_predicted", "no_predicted", "bare_string"])
def test_eval_bad_predictions_line_is_one_line_error(runner, tmp_path, golden_examples, bad_line):
    lines = [json.dumps({"predicted": ex.gold_text}) for ex in golden_examples]
    lines[1] = bad_line
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
        "--trace", str(tmp_path / "t.json"),
    ])
    _assert_one_line_error(result, f'Error: {predictions} line 2: need an object with a string "predicted"\n')


def _dataset_error(path, tmp_path):
    from chainplan.datasets import DatasetError, load_golden_dataset

    with pytest.raises(DatasetError) as err:
        load_golden_dataset(path)
    assert err.value.line == 2
    # the same line from the CLI; an empty replay keeps the run offline
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    result = CliRunner().invoke(main, ["plan", "q", "--examples", str(path), "--mock", str(empty),
                                       "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, f"Error: {err.value}\n")
    return str(err.value)


def _replay_error(path, tmp_path):
    from chainplan.llm import CompletionError, load_replay

    with pytest.raises(CompletionError) as err:
        load_replay(path)
    result = CliRunner().invoke(main, ["plan", "q", "--mock", str(path), "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, f"Error: {err.value}\n")
    return str(err.value)


def _predictions_error(path, tmp_path):
    result = CliRunner().invoke(main, ["eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(path),
                                       "--trace", str(tmp_path / "t.json")])
    assert result.exit_code == 1 and result.output.startswith("Error: ") and result.output.count("\n") == 1
    return result.output.removeprefix("Error: ").removesuffix("\n")


# Each JSON-lines loader, a good first line for it, and its refusal of a
# record of the wrong shape.
_JSON_LINES_LOADERS = {
    "dataset": (_dataset_error, '{"query": "q", "gold": []}', "record needs query and gold fields"),
    "replay": (_replay_error, '{"fingerprint": "f", "response": "[]"}',
               "record needs fingerprint and response fields"),
    "predictions": (_predictions_error, '{"predicted": "[]"}', 'need an object with a string "predicted"'),
}


@pytest.mark.parametrize("loader", list(_JSON_LINES_LOADERS))
@pytest.mark.parametrize(("bad_line", "problem"), [
    ('{"query": ', "invalid JSON: Expecting value at column 11"),
    ('{"value": NaN}', "invalid JSON: NaN is not a JSON number"),
    ("[1, 2]", None),
], ids=["invalid_json", "nan", "wrong_shape"])
def test_json_lines_loaders_name_the_path_and_line(tmp_path, loader, bad_line, problem):
    error, good_line, wrong_shape = _JSON_LINES_LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text(f"{good_line}\n{bad_line}\n", encoding="utf-8")
    assert error(path, tmp_path) == f"{path} line 2: {problem or wrong_shape}"


@pytest.mark.parametrize("pipeline", ["enchant", "regains"])
def test_plan_with_no_tools_is_one_line_error(runner, tmp_path, pipeline):
    tools = tmp_path / "tools.json"
    tools.write_text("[]", encoding="utf-8")
    replay = tmp_path / "empty.jsonl"
    replay.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["plan", "q", "--pipeline", pipeline, "--tools", str(tools),
                                  "--mock", str(replay), "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, "Error: cannot retrieve from an empty corpus\n")


@pytest.mark.parametrize("source", ["predictions", "pipeline"])
def test_eval_empty_dataset_is_one_line_error(runner, tmp_path, source):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    args = ["--predictions", str(empty)] if source == "predictions" else ["--pipeline", "regains",
                                                                          "--mock", str(empty)]
    result = runner.invoke(main, ["eval", "--dataset", str(empty), *args, "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, f"{empty}: no dataset records")


def test_eval_with_fewer_predictions_than_records_is_one_line_error(runner, tmp_path, golden_examples):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({"predicted": golden_examples[0].gold_text}) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
                                  "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, f"Error: {len(golden_examples)} dataset records but 1 predictions\n")


def test_eval_pipeline_whose_replay_lacks_a_prompt_is_one_line_error(runner, tmp_path, golden_examples):
    replay = tmp_path / "empty.jsonl"
    replay.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--dataset", str(GOLDEN_PATH), "--pipeline", "regains",
                                  "--mock", str(replay), "--trace", str(tmp_path / "t.json")])
    _assert_one_line_error(result, f"Error: pipeline failed on {golden_examples[0].query!r}: replay mismatch: "
                                   "prompt fingerprint ", "is not in the replay\n")


@pytest.mark.parametrize("option", ["tools", "dataset", "predictions", "check", "repair", "enforce", "exec",
                                    "mock", "config", "template"])
def test_input_file_that_is_not_utf8_is_one_line_error(runner, tmp_path, option):
    # A UTF-16 byte-order mark, as an editor may save a file.
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe[\x00]\x00")
    trace = ["--trace", str(tmp_path / "t.json")]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"templates": {"rap": bad.name}}), encoding="utf-8")
    args = {
        "tools": ["tools", "--tools", str(bad)],
        "dataset": ["eval", "--dataset", str(bad), "--predictions", str(bad), *trace],
        "predictions": ["eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(bad), *trace],
        "mock": ["plan", "q", "--mock", str(bad), *trace],
        "config": ["plan", "q", "--config", str(bad), *trace],
        "template": ["plan", "q", "--config", str(config), *trace],
    }.get(option, [option, "--in", str(bad)])
    _assert_one_line_error(runner.invoke(main, args), f"{bad} is not UTF-8 at byte 0")


@pytest.mark.parametrize("command", ["check", "enforce"])
def test_stdin_that_is_not_utf8_is_one_line_error(runner, command):
    # A Latin-1 é is refused at its byte, not read as a surrogate escape.
    result = runner.invoke(main, [command], input=b'[{"tool_name":"caf\xe9","arguments":[]}]')
    _assert_one_line_error(result, "<stdin> is not UTF-8 at byte 18: invalid continuation byte")


@pytest.mark.parametrize("command", ["check", "enforce"])
def test_stdin_reads_as_the_same_bytes_in_a_file(runner, tmp_path, command):
    # UTF-8 text and CRLF line ends: standard input gives what --in gives.
    data = ('[{"tool_name":"search_object_by_name",\r\n"arguments":[{"argument_name":"query",'
            '"argument_value":"caf\u00e9"}]}]\r\n').encode("utf-8")
    plan_file = tmp_path / "plan.json"
    plan_file.write_bytes(data)
    from_file = runner.invoke(main, [command, "--in", str(plan_file)])
    from_stdin = runner.invoke(main, [command], input=data)
    assert from_file.exit_code == from_stdin.exit_code == 0, from_stdin.output
    assert from_stdin.output == from_file.output
    if command == "check":
        assert from_stdin.output == "ok\n"


@pytest.mark.parametrize("command", ["check", "repair", "exec"])
@pytest.mark.parametrize("text, line", [
    ("[{", "Error: invalid_json: "),
    ("{}", "Error: schema_violation: plan must be a JSON array of calls\n"),
    ('[{"tool_name":"who_am_i","arguments":[]},'
     '{"tool_name":"works_list","arguments":[{"argument_name":"limit"}]}]',
     "Error: schema_violation at /1/arguments/0: argument must have exactly argument_name and argument_value\n"),
], ids=["invalid_json", "not_an_array", "argument_lacks_its_value"])
def test_plan_text_that_does_not_parse_is_one_line_error(runner, command, text, line):
    _assert_one_line_error(runner.invoke(main, [command], input=text), line)


def test_check_forward_reference_exits_one(runner):
    plan_text = '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[5]"]}]}]'
    result = runner.invoke(main, ["check"], input=plan_text)
    assert result.exit_code == 1
    assert "$$PREV[5]" in result.output


@pytest.mark.parametrize("first, objects, code, lines", [
    ("who_am_i", '"$$PREV[0]"', 1,
     ["error: call 1 argument 'objects': no type edge who_am_i -> summarize_objects.objects"]),
    ("works_list", '["$$PREV[0]"]', 0,
     ["warning: call 1 argument 'objects': array where bare value required (repairable)", "ok"]),
], ids=["no_edge", "repairable_wrapping"])
def test_check_reports_type_graph_wiring(runner, first, objects, code, lines):
    plan_text = (f'[{{"tool_name":"{first}","arguments":[]}},'
                 f'{{"tool_name":"summarize_objects","arguments":['
                 f'{{"argument_name":"objects","argument_value":{objects}}}]}}]')
    result = runner.invoke(main, ["check"], input=plan_text)
    assert result.exit_code == code, result.output
    assert result.output.splitlines() == lines


def test_check_valid_plan_ok(runner, golden_examples):
    result = runner.invoke(main, ["check"], input=golden_examples[0].gold_text)
    assert result.exit_code == 0, result.output
    assert "ok" in result.output


def test_repair_wraps_bare_reference(runner):
    bare = ('[{"tool_name":"who_am_i","arguments":[]},'
            '{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":"$$PREV[0]"}]}]')
    result = runner.invoke(main, ["repair"], input=bare)
    assert result.exit_code == 0, result.output
    assert '["$$PREV[0]"]' in result.output
    # a reference without a type edge: the plan as it was, one unrepaired
    # line on stderr, and exit 0
    no_edge = ('[{"tool_name":"get_sprint_id","arguments":[]},{"tool_name":"prioritize_objects",'
               '"arguments":[{"argument_name":"objects","argument_value":"$$PREV[0]"}]}]')
    result = runner.invoke(main, ["repair"], input=no_edge)
    assert (result.exit_code, result.stdout, result.stderr) == (
        0, no_edge + "\n", "unrepaired: call 1 objects: no type edge get_sprint_id -> prioritize_objects.objects\n")


def test_enforce_trailing_comma(runner):
    result = runner.invoke(main, ["enforce"], input='[{"tool_name":"who_am_i","arguments":[]},]')
    assert result.exit_code == 0
    from chainplan.plan import parse_plan

    assert parse_plan(result.output.strip().splitlines()[0]).ok
    as_json = json.loads(runner.invoke(main, ["enforce", "--format", "json"],
                                       input='[{"tool_name":"who_am_i","arguments":[]},]').output)
    assert as_json["text"] + "\n" == result.stdout
    assert as_json["edits"] and all(sorted(edit) == ["kind", "position", "text"] for edit in as_json["edits"])


def test_enforce_uncompilable_registry_is_one_line_error(runner, tmp_path):
    # the loader refuses two arguments of one name before anything compiles
    argument = {"argument_name": "a", "argument_description": "a", "argument_type": "string", "required": False}
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps([{"tool_name": "t", "tool_description": "t", "arguments": [argument, argument],
                                  "return_type": "string"}]), encoding="utf-8")
    result = runner.invoke(main, ["enforce", "--tools", str(tools)], input="[]")
    assert result.exit_code == 1
    assert result.output == "Error: duplicate argument_name 'a'; tool=t; at=$[0].arguments[1]\n"


def test_exec_runs_plan_on_stub(runner, golden_examples):
    result = runner.invoke(main, ["exec"], input=golden_examples[0].gold_text)
    assert result.exit_code == 0, result.output
    trace = json.loads(result.output)
    assert [step["tool_name"] for step in trace] == ["who_am_i", "works_list", "prioritize_objects"]
    assert trace[1]["arguments"]["owned_by"] == ["USER-001"]


def test_exec_failed_step_is_one_line_error(runner):
    plan_text = ('[{"tool_name":"op_div","arguments":[{"argument_name":"a","argument_value":1},'
                 '{"argument_name":"b","argument_value":0}]}]')
    result = runner.invoke(main, ["exec"], input=plan_text)
    _assert_one_line_error(result, "Error: step 0: op_div failed: div by zero")


def test_exec_result_out_of_range_is_one_line_error(runner):
    plan_text = ('[{"tool_name":"op_mul","arguments":[{"argument_name":"a","argument_value":1e308},'
                 '{"argument_name":"b","argument_value":10}]}]')
    result = runner.invoke(main, ["exec"], input=plan_text)
    _assert_one_line_error(result, "Error: step 0: op_mul failed: mul result out of range")


def test_exec_refuses_plan_unknown_to_tools_file(runner, tmp_path, fixture_registry):
    # --tools holds only get_sprint_id: both calls name unknown tools, so
    # nothing runs and one error line names the first finding
    from chainplan.registry import Registry, serialize_registry

    tools = tmp_path / "tools.json"
    only = Registry.from_tools([fixture_registry.tools["get_sprint_id"]])
    tools.write_text(serialize_registry(only), encoding="utf-8")
    plan_text = ('[{"tool_name":"who_am_i","arguments":[]},'
                 '{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[0]"]}]}]')
    out = tmp_path / "trace.json"
    result = runner.invoke(main, ["exec", "--tools", str(tools), "--out", str(out)], input=plan_text)
    _assert_one_line_error(result, "unknown tool 'who_am_i' at call 0", "2 finding(s)")
    assert not out.exists()
    checked = runner.invoke(main, ["check", "--tools", str(tools)], input=plan_text)
    assert checked.exit_code == 1 and "unknown tool 'who_am_i'" in checked.output
    # against the bundled registry the list-wrapped reference fits
    checked = runner.invoke(main, ["check"], input=plan_text)
    assert (checked.exit_code, checked.output) == (0, "ok\n")


@pytest.mark.parametrize("plan_text, lines", [
    ('[{"tool_name":"who_am_i","arguments":[]},'
     '{"tool_name":"summarize_objects","arguments":[{"argument_name":"objects","argument_value":"$$PREV[0]"}]}]',
     ["error: call 1 argument 'objects': no type edge who_am_i -> summarize_objects.objects"]),
    ('[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":"many"}]},'
     '{"tool_name":"summarize_objects","arguments":[]}]',
     ["error: call 0 argument 'limit': \"many\" does not fit integer",
      "error: call 1 argument 'objects': missing required argument summarize_objects.objects"]),
    ('[{"tool_name":"works_list","arguments":[]},'
     '{"tool_name":"summarize_objects","arguments":[{"argument_name":"objects","argument_value":["$$PREV[0]"]}]}]',
     ["warning: call 1 argument 'objects': array where bare value required (repairable)", "ok"]),
], ids=["no_edge", "wrong_type_and_missing_required", "repairable_wrapping"])
def test_exec_refuses_iff_check_rejects(runner, tmp_path, plan_text, lines):
    checked = runner.invoke(main, ["check"], input=plan_text)
    assert checked.output.splitlines() == lines
    out = tmp_path / "trace.json"
    executed = runner.invoke(main, ["exec", "--out", str(out)], input=plan_text)
    assert executed.exit_code == checked.exit_code
    errors = [line.removeprefix("error: ") for line in lines if line.startswith("error: ")]
    if errors:
        # one line: the first error as check locates it, and the count
        _assert_one_line_error(executed, f"Error: {errors[0]} ({len(lines)} finding(s) in all;")
        assert not out.exists()
    else:
        assert executed.output == "executed 2 steps\n" and out.exists()


@pytest.mark.parametrize("with_operators, mode", [(True, "plain"), (False, "repaired")])
def test_plan_with_operators_keeps_an_operator_call(runner, tmp_path, fixture_registry, with_operators, mode):
    # the same op_gt answer is a known tool with the flag and is projected
    # onto the fixture's tools without it
    from chainplan.executor import register_operator_tools
    from chainplan.llm import fingerprint
    from chainplan.pipelines import assemble_rap_prompt

    query = "Is 3 greater than 2?"
    answer = ('[{"tool_name":"op_gt","arguments":[{"argument_name":"a","argument_value":3.0},'
              '{"argument_name":"b","argument_value":2.0}]}]')
    registry = register_operator_tools(fixture_registry) if with_operators else fixture_registry
    ctx = PlannerContext.build(registry, HashEmbeddingProvider())
    prompt, _, _ = assemble_rap_prompt(query, ctx, PipelineConfig())
    replay = tmp_path / "replay.jsonl"
    save_replay([(fingerprint(prompt), answer)], replay)
    trace_file = tmp_path / "trace.json"
    args = ["plan", query, "--mock", str(replay), "--trace", str(trace_file)]
    result = runner.invoke(main, args + ["--with-operators"] * with_operators)
    assert result.exit_code == 0, result.output
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    assert trace["enforcement"] == {"rap": mode}
    assert (result.output.strip() == answer) is with_operators
    assert ("op_gt" in result.output) is with_operators


def test_eval_predictions_equal_golds(runner, tmp_path, golden_examples):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        "\n".join(json.dumps({"predicted": ex.gold_text}) for ex in golden_examples) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
        "--format", "json", "--trace", str(tmp_path / "eval_trace.json"),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    trace_doc = json.loads((tmp_path / "eval_trace.json").read_text(encoding="utf-8"))
    assert trace_doc["report"]["aggregates"]["nr"] == 1.0
    assert report["aggregates"]["ir"] == 0.0
    assert report["aggregates"]["nr"] == 1.0
    assert report["aggregates"]["mr"] == 0.0
    assert report["aggregates"]["hr"] == 0.0
    assert report["aggregates"]["invalid_json_rate"] == 0.0
    assert report["aggregates"]["bleu"] == report["aggregates"]["rouge_l_f1"] == 1.0


def test_eval_table_format(runner, tmp_path, golden_examples):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        "\n".join(json.dumps({"predicted": ex.gold_text}) for ex in golden_examples) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
        "--trace", str(tmp_path / "t.json"),
    ])
    assert result.exit_code == 0
    assert "IR" in result.output


def test_eval_pipeline_mock(runner, tmp_path, replay_files):
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH),
        "--pipeline", "regains", "--mock", replay_files["regains"],
        "--format", "json", "--trace", str(tmp_path / "t.json"),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["aggregates"]["nr"] == 1.0
    assert report["counts"]["llm_calls"] == 10


@pytest.mark.parametrize("pipeline, pinned", [
    ("regains", "589acba1bda25c8a65eb9c155f8ba3d312992c59d8b8923731edfb61fe4ffe32"),
    ("enchant", "ee0d0d3197c6dc2615192a131993aefb9d22b2c6ad4642a32f06c65311a01008"),
])
def test_eval_pipeline_run_reads_its_config_once(runner, tmp_path, replay_files, monkeypatch, pipeline, pinned):
    # one PipelineConfig serves every example of a run, so each packaged
    # template and the insights file is read once; sha256 over the JSON
    # report and the trace file, pinned as per-example configs wrote them
    import hashlib
    from collections import Counter

    import chainplan.pipelines as pipelines

    reads = Counter()
    read_data = pipelines._read_data

    def counting_read(name):
        reads[name] += 1
        return read_data(name)

    monkeypatch.setattr(pipelines, "_read_data", counting_read)
    trace_file = tmp_path / "t.json"
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--pipeline", pipeline, "--mock", replay_files[pipeline],
        "--format", "json", "--trace", str(trace_file),
    ])
    assert result.exit_code == 0, result.output
    assert reads == Counter(["templates/decompose.txt", "templates/recompose.txt", "templates/rap.txt",
                             "insights.txt"])
    digest = hashlib.sha256(result.output.encode("utf-8") + trace_file.read_bytes())
    assert digest.hexdigest() == pinned


def test_eval_prompts_hold_out_their_own_example(runner, tmp_path, replay_files, golden_examples):
    trace_file = tmp_path / "t.json"
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH),
        "--pipeline", "regains", "--mock", replay_files["regains"], "--trace", str(trace_file),
    ])
    assert result.exit_code == 0, result.output
    runs = json.loads(trace_file.read_text(encoding="utf-8"))["runs"]
    assert len(runs) == len(golden_examples)
    for example, run in zip(golden_examples, runs):
        assert run["retrieved_examples"] and example.id not in run["retrieved_examples"]
        assert example.gold_text not in run["prompts"]["rap"]


@pytest.mark.parametrize("pipeline", ["regains", "enchant"])
def test_eval_pipeline_builds_corpora_only_at_set_up(runner, tmp_path, replay_files, monkeypatch, pipeline):
    # set-up indexes the tools and the examples; each example is then held
    # out of the context's examples, and no corpus is built for it
    from chainplan.retrieval import Corpus

    built = []
    post_init = Corpus.__post_init__

    def counting_post_init(corpus):
        built.append(len(corpus.items))
        post_init(corpus)

    monkeypatch.setattr(Corpus, "__post_init__", counting_post_init)
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--pipeline", pipeline, "--mock", replay_files[pipeline],
        "--trace", str(tmp_path / "t.json"),
    ])
    assert result.exit_code == 0, result.output
    assert built == [9, 10]  # the fixture's tools, then the golden examples


def test_eval_bad_dataset_line_cites_line_number(runner, tmp_path):
    dataset = tmp_path / "bad.jsonl"
    good = '{"query": "q", "gold": [{"tool_name": "who_am_i", "arguments": []}]}'
    dataset.write_text(f"{good}\n{good}\n{{bad json\n", encoding="utf-8")
    result = runner.invoke(main, [
        "eval", "--dataset", str(dataset), "--predictions", str(dataset),
        "--trace", str(tmp_path / "t.json"),
    ])
    assert result.exit_code == 1
    assert "line 3" in result.output


def test_tools_summary_and_graph(runner):
    result = runner.invoke(main, ["tools"])
    assert result.exit_code == 0
    assert "9 tools" in result.output
    result = runner.invoke(main, ["tools", "--graph"])
    assert result.exit_code == 0
    edges = json.loads(result.output)
    assert {"from": "who_am_i", "to": "works_list", "argument": "owned_by", "weight": 2} in edges


def test_tools_prints_registry_warnings(runner, tmp_path):
    # empty descriptions load, and are warned about in either format
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps([{
        "tool_name": "t", "tool_description": "", "return_type": "string",
        "arguments": [{"argument_name": "a", "argument_description": "", "argument_type": "string"},
                      {"argument_name": "b", "argument_description": "b", "argument_type": "string"}],
    }]), encoding="utf-8")
    warnings = [("tool 't'", "tool description is empty"), ("tool 't' argument 'a'", "argument description is empty")]
    result = runner.invoke(main, ["tools", "--tools", str(tools)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1:] == ["  t"] + [f"warning: {where}: {what}" for where, what in warnings]
    result = runner.invoke(main, ["tools", "--tools", str(tools), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["diagnostics"] == [
        {"severity": "warning", "location": where, "message": what} for where, what in warnings]


def test_usage_error_on_unknown_pipeline(runner):
    result = runner.invoke(main, ["plan", "q", "--pipeline", "bogus"])
    assert result.exit_code == 2


def test_eval_requires_predictions_or_pipeline(runner):
    result = runner.invoke(main, ["eval", "--dataset", str(GOLDEN_PATH)])
    assert result.exit_code == 2


@pytest.mark.parametrize("option", ["--pipeline", "--mock"])
def test_eval_refuses_predictions_with_a_second_source(runner, tmp_path, replay_files, golden_examples, option):
    # --pipeline and --mock generate predictions; with --predictions they
    # would be ignored without a word
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        "\n".join(json.dumps({"predicted": ex.gold_text}) for ex in golden_examples) + "\n",
        encoding="utf-8",
    )
    value = "regains" if option == "--pipeline" else replay_files["regains"]
    trace_file = tmp_path / "t.json"
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions), option, value,
        "--trace", str(trace_file),
    ])
    assert result.exit_code == 2, result.output
    error = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(error) == 1 and "--predictions" in error[0] and option in error[0]
    assert not trace_file.exists()


def test_index_is_not_a_command(runner, tmp_path):
    # corpora are indexed in memory by every plan and eval run; none is saved
    result = runner.invoke(main, ["index", "--out", str(tmp_path / "corpus.json")])
    assert result.exit_code == 2
    assert "No such command 'index'" in result.output
    assert not (tmp_path / "corpus.json").exists()


def test_eval_mixed_fixture_matches_precomputed_values(runner, tmp_path, golden_examples):
    # 8 perfect predictions, one wrong single tool, one unparseable:
    #   invalid rate = 1/10; over the 9 parsed: ir = mr = 1/9, nr = 8/9,
    #   hr = 0 (the wrong tool is a real registry tool), correct path 8/9
    predicted = [ex.gold_text for ex in golden_examples]
    predicted[5] = '[{"tool_name":"get_sprint_id","arguments":[]}]'  # gold is who_am_i
    predicted[6] = "{broken"
    predictions = tmp_path / "mixed.jsonl"
    predictions.write_text(
        "\n".join(json.dumps({"predicted": text}) for text in predicted) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
        "--format", "json", "--trace", str(tmp_path / "t.json"),
    ])
    assert result.exit_code == 0, result.output
    aggregates = json.loads(result.output)["aggregates"]
    assert aggregates["invalid_json_rate"] == pytest.approx(1 / 10)
    assert aggregates["ir"] == pytest.approx(1 / 9)
    assert aggregates["nr"] == pytest.approx(8 / 9)
    assert aggregates["mr"] == pytest.approx(1 / 9)
    assert aggregates["hr"] == 0.0
    assert aggregates["correct_path_rate"] == pytest.approx(8 / 9)
    # each plan loses its last call (a one-call plan gets who_am_i appended
    # instead), so prediction and gold share a prefix and a suffix that BLEU
    # and ROUGE-L count once; the scores are pinned bit for bit
    edited = []
    for example in golden_examples:
        gold = json.loads(example.gold_text)
        edited.append(gold[:-1] if len(gold) > 1 else gold + [{"tool_name": "who_am_i", "arguments": []}])
    predictions.write_text("".join(json.dumps({"predicted": json.dumps(plan)}) + "\n" for plan in edited),
                           encoding="utf-8")
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
        "--format", "json", "--trace", str(tmp_path / "t.json"),
    ])
    aggregates = json.loads(result.output)["aggregates"]
    assert aggregates["bleu"].hex() == "0x1.03508ad3859d6p-1"
    assert aggregates["rouge_l_f1"].hex() == "0x1.77a33d4d872b9p-1"
    assert aggregates["correct_path_rate"] == 0.2


@pytest.mark.parametrize("plan_text", [
    '[{"tool_name":"ghost_tool","arguments":[]}]',
    '[{"tool_name":"works_list","arguments":[{"argument_name":"ghost_arg","argument_value":1}]}]',
    '[{"tool_name":"who_am_i","arguments":[]},'
    '{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[x]"]}]}]',
], ids=["unknown_tool", "unknown_argument", "malformed_reference"])
def test_check_hallucinated_unit_exits_one(runner, plan_text):
    result = runner.invoke(main, ["check"], input=plan_text)
    assert result.exit_code == 1
    assert result.output.count("error:") == 1, result.output


def test_check_reference_to_unknown_tool_reported_once(runner):
    plan_text = ('[{"tool_name":"ghost","arguments":[]},'
                 '{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[0]"]}]}]')
    result = runner.invoke(main, ["check"], input=plan_text)
    assert result.exit_code == 1
    assert result.output.count("error:") == 1, result.output
    assert "unknown tool 'ghost'" in result.output


def test_check_self_reference_reported_once(runner):
    plan_text = '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[0]"]}]}]'
    result = runner.invoke(main, ["check"], input=plan_text)
    assert result.exit_code == 1
    assert result.output.count("error:") == 1, result.output


def test_check_reference_two_arrays_deep_exits_one(runner):
    plan_text = ('[{"tool_name":"who_am_i","arguments":[]},'
                 '{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":[["$$PREV[0]"]]}]}]')
    result = runner.invoke(main, ["check"], input=plan_text)
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "error: call 1 argument 'owned_by': no type edge who_am_i -> works_list.owned_by for $$PREV[0] at array depth 2",
    ]


def test_check_reference_two_arrays_deep_into_list_of_lists_ok(runner, tmp_path):
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps([{
        "tool_name": "t", "tool_description": "t", "return_type": "string",
        "arguments": [{"argument_name": "a", "argument_description": "a", "argument_type": "array of array of string"}],
    }]), encoding="utf-8")
    plan_text = ('[{"tool_name":"t","arguments":[]},'
                 '{"tool_name":"t","arguments":[{"argument_name":"a","argument_value":[["$$PREV[0]"]]}]}]')
    result = runner.invoke(main, ["check", "--tools", str(tools)], input=plan_text)
    assert result.exit_code == 0, result.output
    assert result.output == "ok\n"


def test_repair_json_format(runner, golden_examples):
    gold = json.loads(golden_examples[0].gold_text)
    miswrapped = json.loads(golden_examples[0].gold_text)
    miswrapped[1]["arguments"][0]["argument_value"] = "$$PREV[0]"
    miswrapped[2]["arguments"][0]["argument_value"] = ["$$PREV[1]"]
    result = runner.invoke(main, ["repair", "--format", "json"], input=json.dumps(miswrapped))
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"plan": gold, "repairs": [
        {"position": 1, "argument": "owned_by", "action": "wrapped",
         "detail": "$$PREV[0] wrapped into array for works_list.owned_by"},
        {"position": 2, "argument": "objects", "action": "unwrapped",
         "detail": "[$$PREV[1]] unwrapped to bare value for prioritize_objects.objects"},
    ]}


def test_enforce_json_format(runner):
    plan_text = '[{"tool_name":"who_am_i","arguments":[]}]'
    result = runner.invoke(main, ["enforce", "--format", "json"], input=plan_text + "!")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {
        "text": plan_text, "edits": [{"kind": "truncate", "position": len(plan_text), "text": "!"}],
    }
    # floats with exponents and an object member holding an array, as
    # serialize_plan writes them, pass unchanged
    plan_text = ('[{"tool_name":"op_mul","arguments":[{"argument_name":"a","argument_value":1e-07},'
                 '{"argument_name":"b","argument_value":1.5e+300}]},{"tool_name":"summarize_objects",'
                 '"arguments":[{"argument_name":"objects","argument_value":[{"k":[1,2]}]}]}]')
    result = runner.invoke(main, ["enforce", "--format", "json"], input=plan_text)
    assert json.loads(result.output) == {"text": plan_text, "edits": []}
    assert runner.invoke(main, ["check"], input=plan_text).output == "ok\n"


@pytest.mark.parametrize("tail", ["\n", " \t\r\n"], ids=["newline", "json_whitespace"])
def test_enforce_ignores_trailing_whitespace(runner, tmp_path, golden_examples, tail):
    # a plan piped or read with its final newline is accepted as it is
    gold = golden_examples[0].gold_text
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(gold + tail, encoding="utf-8")
    for args, stdin in ((["--in", str(plan_file)], None), ([], gold + tail)):
        result = runner.invoke(main, ["enforce", "--format", "json", *args], input=stdin)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"text": gold, "edits": []}
        result = runner.invoke(main, ["enforce", *args], input=stdin)
        assert (result.exit_code, result.stdout, result.stderr) == (0, gold + "\n", "")


def test_tools_json_format(runner, fixture_registry):
    result = runner.invoke(main, ["tools", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {
        "version": fixture_registry.version, "tools": list(fixture_registry.names), "diagnostics": [],
    }


def test_eval_csv_format(runner, tmp_path, golden_examples):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        "\n".join(json.dumps({"predicted": ex.gold_text}) for ex in golden_examples) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, [
        "eval", "--dataset", str(GOLDEN_PATH), "--predictions", str(predictions),
        "--format", "csv", "--trace", str(tmp_path / "t.json"),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [
        "ir,nr,hr,mr,bleu,rouge_l_f1,invalid_json_rate,correct_path_rate",
        "0.000,1.000,0.000,0.000,1.000,1.000,0.000,1.000",
    ]
