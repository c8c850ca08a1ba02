import dataclasses
import json

import pytest

from chainplan.llm import ScriptedModel, estimate_tokens
from chainplan.metrics import EvalRecord, evaluate_dataset
from chainplan.pipelines import (
    PipelineConfig,
    PipelineError,
    PlannerContext,
    PromptError,
    assemble_rap_prompt,
    build_prompt,
    run_enchant,
    run_regains,
)
from chainplan.retrieval import HashEmbeddingProvider, RetrievalError
from chainplan.typegraph import check_ref
from chainplan.executor import register_operator_tools

from conftest import enchant_replay_entries, regains_replay_entries, subtasks_for


@pytest.fixture(scope="module")
def ctx(fixture_registry, golden_examples):
    return PlannerContext.build(fixture_registry, HashEmbeddingProvider(), golden_examples)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


def test_build_prompt_substitutes():
    out = build_prompt("Q: {query}\nTools:\n{tools}", {"query": "hi", "tools": "- a"})
    assert out == "Q: hi\nTools:\n- a"


def test_build_prompt_missing_slot_named():
    with pytest.raises(PromptError) as err:
        build_prompt("Q: {query}\nTools:\n{tools}", {"query": "hi"})
    assert err.value.placeholder == "tools"


def test_build_prompt_pure():
    template = "A {x} B {x}"
    assert build_prompt(template, {"x": "1"}) == build_prompt(template, {"x": "1"})
    assert build_prompt(template, {"x": "1"}) == "A 1 B 1"


def test_json_braces_in_templates_survive():
    out = build_prompt('shape: [{"tool_name":"..."}] for {query}', {"query": "q"})
    assert '[{"tool_name":"..."}]' in out


def test_enchant_reproduces_fixture_gold(ctx, config, golden_examples):
    example = golden_examples[0]  # "Prioritize my work items"
    model = ScriptedModel(dict(enchant_replay_entries(example, ctx, config)))
    trace = run_enchant(example.query, ctx, model, config)
    assert trace.final_plan.tool_sequence == ("who_am_i", "works_list", "prioritize_objects")
    assert trace.final_text == example.gold_text
    assert trace.llm_calls == 2


def test_enchant_repairs_miswrapped_reference(ctx, config, golden_examples):
    example = golden_examples[0]
    # stage-3 output with a bare reference where the edge needs an array
    corrupted = example.gold_text.replace('["$$PREV[0]"]', '"$$PREV[0]"')
    assert corrupted != example.gold_text
    model = ScriptedModel(dict(enchant_replay_entries(example, ctx, config, recompose_text=corrupted)))
    trace = run_enchant(example.query, ctx, model, config)
    assert len(trace.repairs) == 1
    assert trace.repairs[0]["action"] == "wrapped"
    assert trace.final_text == example.gold_text
    for position, call in enumerate(trace.final_plan.calls):
        for name, _ in call.arguments:
            assert check_ref(ctx.graph, trace.final_plan, position, name) == []


def test_enchant_trace_keeps_the_models_answer(ctx, config, golden_examples):
    # a chat model's straying recomposition is projected, and the trace keeps
    # what the model wrote, as regains does
    example = golden_examples[0]
    straying = example.gold_text[:-1] + ",]"  # trailing comma
    model = ScriptedModel(dict(enchant_replay_entries(example, ctx, config, recompose_text=straying)))
    trace = run_enchant(example.query, ctx, model, config)
    assert trace.enforcement["recompose"] == "repaired"
    assert trace.raw_texts["recompose"] == straying
    # the greedy projection still appends a call for the comma (ROADMAP item 1)
    assert trace.final_text == example.gold_text[:-1] + ',{"tool_name":"add_work_items_to_sprint","arguments":[]}]'


def test_enchant_empty_corpus_fails_before_any_call(ctx, config):
    empty = dataclasses.replace(
        ctx.tool_corpus, items=()
    )
    broken = PlannerContext(
        registry=ctx.registry,
        provider=ctx.provider,
        tool_corpus=empty,
        example_corpus=ctx.example_corpus,
        examples=ctx.examples,
        graph=ctx.graph,
    )
    model = ScriptedModel({})
    with pytest.raises(RetrievalError) as err:
        run_enchant("anything", broken, model, config)
    assert str(err.value) == "cannot retrieve from an empty corpus"


def test_regains_single_call_no_repairs(ctx, config, golden_examples):
    example = golden_examples[1]
    model = ScriptedModel(dict(regains_replay_entries(example, ctx, config)))
    trace = run_regains(example.query, ctx, model, config)
    assert trace.llm_calls == 1
    assert trace.enforcement["rap"] == "plain"
    assert trace.repairs == []
    assert trace.final_text == example.gold_text


def test_regains_trailing_comma_takes_repair_path(ctx, config, golden_examples):
    example = golden_examples[5]  # single who_am_i call
    corrupted = example.gold_text[:-1] + ",]"
    model = ScriptedModel(dict(regains_replay_entries(example, ctx, config, response_text=corrupted)))
    trace = run_regains(example.query, ctx, model, config)
    assert trace.enforcement["rap"] == "repaired"
    assert trace.final_plan.calls[0].tool_name == "who_am_i"
    from chainplan.plan import parse_plan

    assert parse_plan(trace.final_text).ok


def test_regains_unknown_tool_name_is_projected(ctx, config, golden_examples):
    example = golden_examples[6]
    bad = '[{"tool_name":"fetch_sprint","arguments":[]}]'
    model = ScriptedModel(dict(regains_replay_entries(example, ctx, config, response_text=bad)))
    trace = run_regains(example.query, ctx, model, config)
    assert trace.enforcement["rap"] == "repaired"
    for call in trace.final_plan.calls:
        assert ctx.registry.get(call.tool_name) is not None


def test_regains_projects_a_non_finite_number(ctx, config, golden_examples):
    example = golden_examples[6]
    bad = '[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":NaN}]}]'
    model = ScriptedModel(dict(regains_replay_entries(example, ctx, config, response_text=bad)))
    trace = run_regains(example.query, ctx, model, config)
    assert trace.enforcement["rap"] == "repaired"

    def refuse(name):
        raise ValueError(name)

    json.loads(trace.final_text, parse_constant=refuse)
    json.loads(trace.to_json(), parse_constant=refuse)
    assert trace.final_plan.calls[0].tool_name == "works_list"


# A float the plan automaton accepts and parse_plan refuses as out of a
# float's range: ROADMAP item 7's open gap. Once item 7 bounds a number's
# integer part, projection cuts this value and both runs below change.
_OVERFLOWING_FLOAT = "1" + "0" * 309 + ".5"


@pytest.mark.parametrize("run, entries, error", [
    (run_regains, regains_replay_entries, "projection repair produced unparseable text"),
    (run_enchant, enchant_replay_entries, "enforced recomposition produced unparseable text"),
], ids=["regains", "enchant"])
def test_an_accepted_text_that_does_not_parse_fails_the_run(fixture_registry, config, run, entries, error):
    # one PipelineError, never a plan the model did not write
    from chainplan.datasets import GoldenExample
    from chainplan.plan import Plan, ToolCall

    ctx = PlannerContext.build(register_operator_tools(fixture_registry), HashEmbeddingProvider())
    example = GoldenExample("mul", "Multiply a by b", Plan((ToolCall("op_mul"),)))
    answer = ('[{"tool_name":"op_mul","arguments":[{"argument_name":"a","argument_value":'
              f'{_OVERFLOWING_FLOAT}}},{{"argument_name":"b","argument_value":2}}]}}]')
    model = ScriptedModel(dict(entries(example, ctx, config, answer)))
    with pytest.raises(PipelineError) as err:
        run(example.query, ctx, model, config)
    assert str(err.value) == f"{error}: {_OVERFLOWING_FLOAT} is out of a float's range"


def test_regains_retrieves_examples(ctx, config, golden_examples):
    example = golden_examples[0]
    prompt, retrieved, example_ids = assemble_rap_prompt(example.query, ctx, config)
    assert len(example_ids) == config.example_count
    assert example.query in prompt
    # the most similar example to a golden query is itself
    assert example_ids[0] == example.id


def test_pipelines_deterministic_under_replay(ctx, config, golden_examples):
    example = golden_examples[2]
    entries = dict(enchant_replay_entries(example, ctx, config))
    first = run_enchant(example.query, ctx, ScriptedModel(entries), config)
    second = run_enchant(example.query, ctx, ScriptedModel(entries), config)
    assert first.final_text == second.final_text
    assert first.prompts == second.prompts
    assert first.raw_texts == second.raw_texts
    assert first.prompt_tokens == second.prompt_tokens


def test_regains_prompt_budget_seventeen_tools(fixture_registry, golden_examples):
    # 9 fixture tools + 13 operator pseudo-tools; retrieve 17 of them
    extended = register_operator_tools(fixture_registry)
    assert len(extended) == 22
    ctx = PlannerContext.build(extended, HashEmbeddingProvider(), golden_examples)
    config = PipelineConfig(k=17, example_count=2)
    prompt, retrieved, example_ids = assemble_rap_prompt(
        "Prioritize my work items and add them to the current sprint", ctx, config
    )
    assert len(retrieved) == 17
    assert len(example_ids) == 2
    assert estimate_tokens(prompt) < 4000


def test_subtask_tool_names_restricted_to_retrieved(ctx, config, golden_examples):
    # sub-task decode is compiled over the retrieved tool enum
    from chainplan.enforcer import DecoderSession, compile_subtask_schema, DecodeRejection
    from chainplan.retrieval import retrieve_top_k

    retrieved = retrieve_top_k("summarize things", ctx.tool_corpus, ctx.provider, config.k)
    automaton = compile_subtask_schema([name for name, _ in retrieved])
    session = DecoderSession(automaton)
    with pytest.raises(DecodeRejection):
        session.advance('[{"id":0,"thought":"x","tool_name":"not_retrieved_tool"')


def test_config_from_file(tmp_path, ctx, golden_examples):
    import json

    (tmp_path / "my_rap.txt").write_text(
        "INSIGHTS\n{insights}\nTOOLS\n{tools}\nEXAMPLES\n{examples}\nQ: {query}", encoding="utf-8"
    )
    (tmp_path / "my_insights.txt").write_text("only one insight\n", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "k": 4,
        "example_count": 1,
        "temperature": 0.5,
        "templates": {"rap": "my_rap.txt"},
        "insights": "my_insights.txt",
    }), encoding="utf-8")
    config = PipelineConfig.from_file(config_path)
    assert config.k == 4
    assert config.example_count == 1
    assert config.temperature == 0.5
    assert config.insights == ("only one insight",)
    prompt, retrieved, example_ids = assemble_rap_prompt(
        golden_examples[0].query, ctx, config
    )
    assert prompt.startswith("INSIGHTS\n- only one insight")
    assert len(retrieved) == 4
    assert len(example_ids) == 1


def test_config_built_directly_holds_the_packaged_templates(ctx, golden_examples):
    assert PipelineConfig() == PipelineConfig.default()
    prompt, _, _ = assemble_rap_prompt(golden_examples[0].query, ctx, PipelineConfig())
    assert golden_examples[0].query in prompt
    with pytest.raises(ValueError, match="k must be at least 1"):
        PipelineConfig(k=0)


@pytest.mark.parametrize("setting, message", [
    ({"max_tokens": 2.5}, "wrong type: max_tokens"),
    ({"max_tokens": True, "k": 3.0}, "wrong type: k, max_tokens"),
    ({"temperature": float("inf")}, "temperature must be finite"),
    ({"temperature": float("nan")}, "temperature must be at least 0"),
    ({"decompose_template": 3}, "wrong type: decompose_template$"),
    ({"recompose_template": b"{query} {tools} {subtasks}"}, "wrong type: recompose_template$"),
    ({"rap_template": None, "k": 3.0}, "wrong type: k, rap_template$"),
    ({"insights": "abc"}, "wrong type: insights$"),
    ({"insights": None}, "wrong type: insights$"),
    ({"insights": ("one", 2)}, "wrong type: insights$"),
])
def test_config_built_directly_refuses_what_a_file_may_not_hold(setting, message):
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**setting)


def test_config_validation_rejects_broken_template(tmp_path):
    import json

    import pytest as _pytest

    (tmp_path / "broken.txt").write_text("no placeholders here", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"templates": {"rap": "broken.txt"}}), encoding="utf-8")
    with _pytest.raises(ValueError) as err:
        PipelineConfig.from_file(config_path)
    assert "rap_template" in str(err.value)


def test_config_unknown_keys_rejected(tmp_path):
    import json

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "token_budget": 10,
        "exmaple_count": 5,
        "templates": {"rpa": "my_rap.txt"},
    }), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config keys: exmaple_count, token_budget, templates.rpa"):
        PipelineConfig.from_file(config_path)


def test_enchant_with_token_level_constrained_model(ctx, config, golden_examples):
    # true constrained decoding through both stages: hallucinated candidates
    # are masked out mid-stream, and both stage outputs are automaton-accepted
    example = golden_examples[5]  # gold: [who_am_i]

    class StagedTokenModel:
        def __init__(self, stages):
            self.stages = list(stages)
            self.vocabulary = [token for stage in stages for step in stage for token in step]

        def candidate_steps(self):
            return iter(self.stages.pop(0))

    decompose_steps = [
        ['[{"id":0,"thought":"resolve the user","tool_name":"'],
        ["fetch_user_record", "who_am_i"],  # first candidate is not a real tool
        ['"}]'],
    ]
    recompose_steps = [
        ['[{"tool_name":"'],
        ["lookup_identity", "who_am_i"],  # masked again
        ['","arguments":[]}]'],
    ]
    model = StagedTokenModel([decompose_steps, recompose_steps])
    trace = run_enchant(example.query, ctx, model, config)
    assert trace.llm_calls == 2
    assert trace.enforcement == {"decompose": "enforced", "recompose": "enforced"}
    assert trace.final_plan.tool_sequence == ("who_am_i",)
    assert trace.final_text == example.gold_text


# The model protocol: a chat model is ``complete`` alone, a token model is
# ``vocabulary`` and ``candidate_steps`` alone. The trace is the account.

class ChatModel:
    """A chat model with nothing but ``complete``: it answers from a replay
    and keeps each result it returns, in call order."""

    def __init__(self, entries):
        self._replay = ScriptedModel(dict(entries))
        self.results = []

    def complete(self, request):
        result = self._replay.complete(request)
        self.results.append(result)
        return result


class TokenModel:
    """A token model with nothing but ``vocabulary`` and ``candidate_steps``:
    each call decodes the next text, offered in pieces of 7 characters."""

    def __init__(self, *texts):
        self._texts = list(texts)
        self.vocabulary = sorted({text[i : i + 7] for text in texts for i in range(0, len(text), 7)})

    def candidate_steps(self):
        text = self._texts.pop(0)
        return ([text[i : i + 7]] for i in range(0, len(text), 7))


def test_a_token_model_is_its_vocabulary_and_candidate_steps(ctx, config, golden_examples):
    example = golden_examples[0]
    model = TokenModel(subtasks_for(example), example.gold_text)
    trace = run_enchant(example.query, ctx, model, config)
    assert trace.enforcement == {"decompose": "enforced", "recompose": "enforced"}
    assert trace.raw_texts == {"decompose": subtasks_for(example), "recompose": example.gold_text}
    assert trace.final_text == example.gold_text
    assert trace.llm_calls == 2


def test_a_chat_model_is_its_complete(ctx, config, golden_examples):
    example = golden_examples[0]
    model = ChatModel(regains_replay_entries(example, ctx, config))
    trace = run_regains(example.query, ctx, model, config)
    assert trace.final_text == example.gold_text
    assert (trace.llm_calls, trace.prompt_tokens, trace.completion_tokens) == (
        1, estimate_tokens(trace.prompts["rap"]), estimate_tokens(example.gold_text))


def test_trace_totals_are_the_count_and_sums_of_the_stage_results(ctx, config, golden_examples):
    traces, records = [], []
    for example in golden_examples:
        for run, entries in ((run_regains, regains_replay_entries), (run_enchant, enchant_replay_entries)):
            model = ChatModel(entries(example, ctx, config))
            trace = run(example.query, ctx, model, config)
            assert trace.final_text == example.gold_text
            assert (trace.llm_calls, trace.prompt_tokens, trace.completion_tokens) == (
                len(model.results),
                sum(result.prompt_tokens for result in model.results),
                sum(result.completion_tokens for result in model.results),
            )
            assert list(trace.raw_texts.values()) == [result.text for result in model.results]
            traces.append(trace)
            records.append(EvalRecord(example.query, example.gold, trace.final_text))
    assert sum(trace.llm_calls for trace in traces) == 30
    counts = evaluate_dataset(records, ctx.registry, traces=traces).counts
    assert {key: counts[key] for key in ("llm_calls", "prompt_tokens", "completion_tokens")} == {
        "llm_calls": sum(trace.llm_calls for trace in traces),
        "prompt_tokens": sum(trace.prompt_tokens for trace in traces),
        "completion_tokens": sum(trace.completion_tokens for trace in traces),
    }


def test_trace_json_is_pinned(ctx, config, golden_examples):
    # sha256 over PipelineTrace.to_json() of: both pipelines on every golden
    # query, regains on a trailing-comma and a fabricated-name answer (the
    # projection path), and enchant with a token-level model (enforced) and
    # with a mis-wrapped chat answer (repaired, with a type-graph repair).
    # Any change to a trace field, its value or its layout changes it.
    import hashlib

    from chainplan.llm import ScriptedTokenModel

    digest = hashlib.sha256()

    def pin(trace):
        digest.update(trace.to_json().encode("utf-8"))

    for example in golden_examples:
        pin(run_regains(example.query, ctx, ScriptedModel(dict(regains_replay_entries(example, ctx, config))),
                        config))
        pin(run_enchant(example.query, ctx, ScriptedModel(dict(enchant_replay_entries(example, ctx, config))),
                        config))
    example = golden_examples[5]  # gold: [who_am_i]
    for answer in (example.gold_text[:-1] + ",]", '[{"tool_name":"fetch_sprint","arguments":[]}]'):
        model = ScriptedModel(dict(regains_replay_entries(example, ctx, config, response_text=answer)))
        pin(run_regains(example.query, ctx, model, config))
    # each step ranks the sub-task token first and the plan token second, so
    # both stages decode from the one script
    steps = [
        ['[{"id":0,"thought":"resolve the user","tool_name":"', '[{"tool_name":"'],
        ["lookup_identity", "who_am_i"],
        ['"}]', '","arguments":[]}]'],
    ]
    pin(run_enchant(example.query, ctx, ScriptedTokenModel(steps), config))
    example = golden_examples[0]
    miswrapped = example.gold_text.replace('["$$PREV[0]"]', '"$$PREV[0]"')
    model = ScriptedModel(dict(enchant_replay_entries(example, ctx, config, recompose_text=miswrapped)))
    pin(run_enchant(example.query, ctx, model, config))
    assert digest.hexdigest() == "88497d6ca3c7fb52b1b01fdb033fd578a6fbdd5ba4f1ac4cfc2bfe4ad6d23aac"


def grown_registry(fixture_registry, size: int, seed: int):
    """The fixture's tools, then seeded ones up to ``size`` tools in all:
    each takes its name and description words from the fixture's, the
    arguments of a fixture tool, a third of them left undescribed, and a
    fixture tool's return type."""
    import random

    from chainplan.registry import Registry, ToolSpec

    rng = random.Random(seed)
    fixture = list(fixture_registry.tools.values())
    name_words = sorted({word for spec in fixture for word in spec.name.split("_")})
    words = sorted({word for spec in fixture for word in spec.description.split()})
    specs = list(fixture)
    for i in range(len(fixture), size):
        arguments = tuple(dataclasses.replace(arg, description="") if rng.random() < 1 / 3 else arg
                          for arg in rng.choice(fixture).arguments)
        specs.append(ToolSpec(
            name=f"{rng.choice(name_words)}_{rng.choice(name_words)}_{i}",
            description=" ".join(rng.choice(words) for _ in range(rng.randint(4, 12))),
            arguments=arguments,
            returns=rng.choice(fixture).returns,
        ))
    return Registry.from_tools(specs)


def test_rap_prompts_over_a_registry_larger_than_k_are_pinned(fixture_registry, golden_examples, config):
    # sha256 over, for every golden query, the RAP prompt, the retrieved tool
    # ids and scores, and the retrieved example ids, on a seeded 300-tool
    # registry: tools are pre-scored and pruned before the top k are scored
    # in float, and the prompt lists retrieved tools outside the fixture.
    import hashlib

    registry = grown_registry(fixture_registry, 300, seed=40)
    assert len(registry) == 300
    grown = PlannerContext.build(registry, HashEmbeddingProvider(), golden_examples)
    digest = hashlib.sha256()
    for example in golden_examples:
        prompt, retrieved, example_ids = assemble_rap_prompt(example.query, grown, config)
        assert len(retrieved) == config.k and len(example_ids) == config.example_count
        digest.update(json.dumps([prompt, retrieved, example_ids]).encode("utf-8"))
    assert "_prescore" in grown.tool_corpus.__dict__  # the pruning path ran
    assert digest.hexdigest() == "c953d2214ca2a87995ad1dc7718c9bef660c387e152c4e0aea06ac94cf352920"


def _synthetic_examples(count: int, seed: int):
    """``count`` examples whose queries join two or three of eight words, so
    that many repeat and their scores tie."""
    import random

    from chainplan.datasets import GoldenExample
    from chainplan.plan import Plan, ToolCall

    rng = random.Random(seed)
    words = ("list", "sprint", "work", "items", "owner", "summarize", "urgent", "tickets")
    gold = Plan((ToolCall("who_am_i", ()),))
    return [GoldenExample(id=f"syn{i:03d}", query=" ".join(rng.choices(words, k=rng.randint(2, 3))), gold=gold)
            for i in range(count)]


@pytest.mark.parametrize("source", ["golden", "synthetic"])
def test_an_example_held_out_of_the_context_ranks_as_a_corpus_built_without_it(fixture_registry, golden_examples,
                                                                                source):
    # dropping an example from ctx.examples, with the corpus kept whole,
    # gives the prompt, tools and example ids of a context built without
    # it, for its own query, which ranks it first, and for others
    import random

    rng = random.Random(45)
    examples = golden_examples if source == "golden" else _synthetic_examples(300, seed=45)
    dropped = range(len(examples)) if source == "golden" else rng.sample(range(len(examples)), 12)
    queries = [example.query for example in rng.sample(examples, 3)]
    configs = [PipelineConfig(example_count=count) for count in range(5)]
    provider = HashEmbeddingProvider()
    full = PlannerContext.build(fixture_registry, provider, examples)
    tied = 0
    for i in dropped:
        held = dataclasses.replace(full, examples={ex.id: ex for ex in examples if ex is not examples[i]})
        rebuilt = PlannerContext.build(fixture_registry, provider, examples[:i] + examples[i + 1:])
        for query in (examples[i].query, *queries):
            for config in configs:
                assert assemble_rap_prompt(query, held, config) == assemble_rap_prompt(query, rebuilt, config)
        tied += sum(ex.query == examples[i].query for ex in examples) > 1
    # a dropped synthetic example shares its query, so scores tie and ids decide
    assert tied or source == "golden"


def test_regains_compiles_the_plan_automaton_once_per_context(fixture_registry, golden_examples, config,
                                                              monkeypatch):
    # straying answers to several queries share one automaton and project as
    # a freshly compiled one would
    import chainplan.pipelines as pipelines
    from chainplan.enforcer import compile_schema, enforced_repair
    from chainplan.plan import parse_plan, serialize_plan
    from chainplan.typegraph import repair_plan

    fresh = PlannerContext.build(fixture_registry, HashEmbeddingProvider(), golden_examples)
    compiled = []

    def counting_compile(registry, names):
        compiled.append(registry.version)
        return compile_schema(registry, names)

    monkeypatch.setattr(pipelines, "compile_schema", counting_compile)
    for i, example in enumerate(golden_examples[:6]):
        if i % 2:
            straying = example.gold_text[:-1] + ",]"  # trailing comma
        else:
            straying = example.gold_text.replace('"tool_name":"', '"tool_name":"x', 1)  # unknown tool
        model = ScriptedModel(dict(regains_replay_entries(example, fresh, config, response_text=straying)))
        trace = run_regains(example.query, fresh, model, config)
        assert trace.enforcement["rap"] == "repaired"
        projected, _ = enforced_repair(compile_schema(fixture_registry), straying)
        expected, _ = repair_plan(fresh.graph, parse_plan(projected).plan)
        assert trace.final_text == serialize_plan(expected)
    assert compiled == [fixture_registry.version]


def test_the_recomposition_prompt_holds_the_decomposition_as_decoded(ctx, config, golden_examples):
    # the escapes \/ and \u0041 in a decoded thought reach the prompt as
    # written, not rewritten to / and A
    from chainplan.llm import ScriptedTokenModel
    from chainplan.pipelines import assemble_recompose_prompt

    example = golden_examples[5]  # gold: [who_am_i]
    decoded = '[{"id":0,"thought":"a\\/b \\u0041","tool_name":"who_am_i"}]'
    # each step ranks the sub-task token first and the plan token second
    steps = [
        ['[{"id":0,"thought":"a\\/b \\u0041","tool_name":"', '[{"tool_name":"'],
        ["who_am_i"],
        ['"}]', '","arguments":[]}]'],
    ]
    trace = run_enchant(example.query, ctx, ScriptedTokenModel(steps), config)
    assert trace.enforcement == {"decompose": "enforced", "recompose": "enforced"}
    assert trace.raw_texts["decompose"] == decoded
    names = [name for name, _ in trace.retrieved_tools]
    assert trace.prompts["recompose"] == assemble_recompose_prompt(example.query, decoded, names, ctx.registry,
                                                                   config)
    assert decoded in trace.prompts["recompose"]


def test_enchant_compiles_each_automaton_once_per_tool_set(fixture_registry, golden_examples, monkeypatch):
    # plans over the same retrieved tools share both automata and decode as
    # freshly compiled ones would; both stages stray, so both are projected
    from collections import Counter

    import chainplan.pipelines as pipelines
    from chainplan.enforcer import compile_schema, compile_subtask_schema, enforced_repair
    from chainplan.llm import fingerprint
    from chainplan.pipelines import assemble_decompose_prompt, assemble_recompose_prompt
    from chainplan.plan import parse_plan
    from chainplan.registry import Registry
    from chainplan.typegraph import repair_plan
    from conftest import subtasks_for

    config = PipelineConfig(k=3)  # several distinct tool sets over the fixture
    fresh = PlannerContext.build(fixture_registry, HashEmbeddingProvider(), golden_examples)
    compiled = Counter()

    def counting_compile(registry, names):
        compiled["plan", frozenset(names)] += 1
        return compile_schema(registry, names)

    def counting_subtask_compile(names):
        compiled["subtask", frozenset(names)] += 1
        return compile_subtask_schema(names)

    monkeypatch.setattr(pipelines, "compile_schema", counting_compile)
    monkeypatch.setattr(pipelines, "compile_subtask_schema", counting_subtask_compile)
    registries_built = []
    monkeypatch.setattr(Registry, "__post_init__", lambda registry: registries_built.append(registry.names))
    tool_sets = set()
    for example in golden_examples[:6] * 2:
        names = [name for name, _ in pipelines.retrieve_top_k(example.query, fresh.tool_corpus, fresh.provider, config.k)]
        tool_sets.add(frozenset(names))
        decompose_text = subtasks_for(example)[:-1] + ",]"  # trailing comma
        recompose_text = example.gold_text.replace('"tool_name":"', '"tool_name":"x', 1)  # unknown tool
        subtasks, _ = enforced_repair(compile_subtask_schema(names), decompose_text)
        plan_text, _ = enforced_repair(compile_schema(fixture_registry, names), recompose_text)
        decompose_prompt = assemble_decompose_prompt(example.query, names, fixture_registry, config)
        recompose_prompt = assemble_recompose_prompt(example.query, subtasks, names, fixture_registry, config)
        model = ScriptedModel({fingerprint(decompose_prompt): decompose_text,
                               fingerprint(recompose_prompt): recompose_text})
        trace = run_enchant(example.query, fresh, model, config)
        # the trace keeps the model's answers; the projections feed the
        # recomposition prompt and the final plan
        assert trace.raw_texts == {"decompose": decompose_text, "recompose": recompose_text}
        assert trace.prompts["recompose"] == recompose_prompt
        assert trace.final_plan == repair_plan(fresh.graph, parse_plan(plan_text).plan)[0]
    assert len(tool_sets) > 1
    assert compiled == Counter({(kind, names): 1 for kind in ("plan", "subtask") for names in tool_sets})
    assert registries_built == []  # each plan automaton spells names of the context's one registry


def test_the_automaton_memo_is_cleared_at_its_bound(fixture_registry, golden_examples):
    # a tool set met again reuses its automaton until the memo holds
    # _AUTOMATA_KEPT of them; the next new set clears it first
    from chainplan.pipelines import _AUTOMATA_KEPT, _automaton

    fresh = PlannerContext.build(fixture_registry, HashEmbeddingProvider(), golden_examples)
    first = _automaton(fresh, "subtask", ["t0"])
    for i in range(1, _AUTOMATA_KEPT):
        _automaton(fresh, "subtask", [f"t{i}"])
    assert len(fresh.automata) == _AUTOMATA_KEPT
    assert _automaton(fresh, "subtask", ["t0"]) is first
    last = _automaton(fresh, "subtask", ["new"])
    assert fresh.automata == {("subtask", frozenset(["new"])): last}
    assert _automaton(fresh, "subtask", ["t0"]) is not first


class CountingProvider(HashEmbeddingProvider):
    """The hashing provider, counting the texts it embeds."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return super().embed(text)


def test_each_run_embeds_its_query_once(fixture_registry, golden_examples, config):
    # regains ranks tools and examples from one query embedding; enchant
    # ranks tools only
    provider = CountingProvider()
    fresh = PlannerContext.build(fixture_registry, provider, golden_examples)
    for example in golden_examples[:3]:
        regains_model = ScriptedModel(dict(regains_replay_entries(example, fresh, config)))
        enchant_model = ScriptedModel(dict(enchant_replay_entries(example, fresh, config)))
        provider.calls = 0
        trace = run_regains(example.query, fresh, regains_model, config)
        assert provider.calls == 1
        assert trace.final_text == example.gold_text and len(trace.retrieved_examples) == config.example_count
        provider.calls = 0
        run_enchant(example.query, fresh, enchant_model, config)
        assert provider.calls == 1
