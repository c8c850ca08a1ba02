import itertools
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from chainplan.enforcer import DecoderSession, compile_schema, vocabulary_index
from chainplan.llm import (
    CompletionError,
    CompletionRequest,
    NoPermissibleTokenError,
    RemoteChatModel,
    ReplayMismatchError,
    ScriptedModel,
    ScriptedTokenModel,
    constrained_complete,
    fingerprint,
    load_replay,
    save_replay,
)
from chainplan.plan import parse_plan


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", max_tokens=0)
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", temperature=-0.1)


@pytest.mark.parametrize("field", ["max_tokens", "temperature"])
def test_request_refuses_nan(field):
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", **{field: float("nan")})


@pytest.mark.parametrize("field, value", [
    ("max_tokens", 2.5), ("max_tokens", True), ("temperature", float("inf")),
    ("temperature", True), ("temperature", "0.5"),
])
def test_request_refuses_a_value_no_decode_or_payload_can_hold(field, value):
    # a fractional cap is never met by a step count, and infinity is no JSON number
    with pytest.raises(ValueError, match=field):
        CompletionRequest(prompt="x", **{field: value})


def test_fingerprint_normalizes_whitespace():
    assert fingerprint("a  b\n\tc") == fingerprint("a b c")
    assert fingerprint("a b") != fingerprint("a c")


def test_scripted_replay():
    model = ScriptedModel({fingerprint("Q1"): "[]"})
    result = model.complete(CompletionRequest(prompt="Q1"))
    assert result.text == "[]"


def test_scripted_unknown_prompt():
    model = ScriptedModel({fingerprint("scripted"): "[]"})
    with pytest.raises(ReplayMismatchError) as err:
        model.complete(CompletionRequest(prompt="never scripted"))
    assert str(err.value) == (f"replay mismatch: prompt fingerprint {fingerprint('never scripted')!r} "
                              "is not in the replay")


def test_replay_file_round_trip(tmp_path):
    path = tmp_path / "replay.jsonl"
    save_replay([(fingerprint("Q"), "[]")], path)
    model = load_replay(path)
    assert model.complete(CompletionRequest(prompt="Q")).text == "[]"


def test_replay_file_refuses_two_responses_for_one_fingerprint(tmp_path):
    path = tmp_path / "replay.jsonl"
    save_replay([(fingerprint("Q"), "[]"), (fingerprint("other"), "[]"), (fingerprint("Q"), "[]")], path)
    assert load_replay(path).complete(CompletionRequest(prompt="Q")).text == "[]"  # a repeat is accepted
    save_replay([(fingerprint("Q"), "[]"), (fingerprint("other"), "[]"), (fingerprint("Q"), "[{}]")], path)
    with pytest.raises(CompletionError) as err:
        load_replay(path)
    assert str(err.value) == f"{path} line 3: fingerprint {fingerprint('Q')!r} has a different response on line 1"


def test_replay_file_bad_line(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text('{"fingerprint": "x"}\n', encoding="utf-8")
    with pytest.raises(CompletionError) as err:
        load_replay(path)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("record", [
    {"fingerprint": "fp", "response": 5},
    {"fingerprint": 5, "response": "[]"},
    {"fingerprint": "fp", "response": None},
    {"fingerprint": "fp", "response": ["[]"]},
], ids=["int-response", "int-fingerprint", "null-response", "list-response"])
def test_replay_file_refuses_non_string_fields(tmp_path, record):
    path = tmp_path / "replay.jsonl"
    path.write_text(f'{json.dumps({"fingerprint": "ok", "response": "[]"})}\n{json.dumps(record)}\n',
                    encoding="utf-8")
    with pytest.raises(CompletionError) as err:
        load_replay(path)
    assert str(err.value) == f"{path} line 2: fingerprint and response must be strings"


class _StubHandler(BaseHTTPRequestHandler):
    failures_left = 0
    failure_status = 500
    truncate = False  # announce the full body, send only its first half
    seen_payloads: list = []
    response = {
        "choices": [{"message": {"role": "assistant", "content": "[]"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 2},
    }

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).seen_payloads.append(payload)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(type(self).failure_status)
            self.end_headers()
            return
        response = type(self).response
        body = response if isinstance(response, bytes) else json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body[: len(body) // 2] if type(self).truncate else body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.failures_left = 0
    _StubHandler.failure_status = 500
    _StubHandler.truncate = False
    _StubHandler.seen_payloads = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_remote_model_against_stub(stub_server):
    model = RemoteChatModel(model_id="test-model", api_base=stub_server, api_key="k")
    result = model.complete(CompletionRequest(prompt="plan it"))
    assert result.text == "[]"
    assert result.prompt_tokens == 12
    assert result.completion_tokens == 2
    payload = _StubHandler.seen_payloads[0]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [{"role": "user", "content": "plan it"}]


@pytest.mark.parametrize("response", [
    {"choices": [{"message": {"content": None}}], "usage": {"prompt_tokens": 3, "completion_tokens": 0}},
    {"choices": [{"message": {"content": "[]"}}], "usage": {"prompt_tokens": None, "completion_tokens": 2}},
    {"usage": {"prompt_tokens": 3, "completion_tokens": 0}},
], ids=["null_content", "null_count", "no_choices"])
def test_remote_model_refuses_a_malformed_answer(stub_server, monkeypatch, response):
    monkeypatch.setattr(_StubHandler, "response", response)
    model = RemoteChatModel(api_base=stub_server, api_key="k")
    with pytest.raises(CompletionError, match="^malformed chat completion response: "):
        model.complete(CompletionRequest(prompt="q"))


# The transport's json.loads takes NaN, Infinity and an overflowing 1e999 as
# floats, so the client itself must refuse all but a string content and
# non-negative integer counts.
@pytest.mark.parametrize("content, count, accepted", [
    ('"[]"', "12", True),
    ('"[]"', "0", True),
    ('"[]"', "-3", False),
    ('"[]"', "12.0", False),
    ('"[]"', "true", False),
    ('"[]"', '"12"', False),
    ('"[]"', "NaN", False),
    ('"[]"', "Infinity", False),
    ('"[]"', "-Infinity", False),
    ('"[]"', "1e999", False),
    ('"[]"', "[12]", False),
    ('"[]"', '{"0": 12}', False),
    ("3", "12", False),
    ("true", "12", False),
    ('["[]"]', "12", False),
    ('{"text": "[]"}', "12", False),
    ("NaN", "12", False),
])
def test_remote_model_takes_only_a_string_content_and_integer_counts(stub_server, monkeypatch,
                                                                      content, count, accepted):
    body = (f'{{"choices": [{{"message": {{"content": {content}}}}}], '
            f'"usage": {{"prompt_tokens": {count}, "completion_tokens": 2}}}}')
    monkeypatch.setattr(_StubHandler, "response", body.encode("utf-8"))
    model = RemoteChatModel(api_base=stub_server, api_key="k")
    if accepted:
        result = model.complete(CompletionRequest(prompt="q"))
        assert (result.text, result.prompt_tokens, result.completion_tokens) == ("[]", int(count), 2)
    else:
        with pytest.raises(CompletionError, match="^malformed chat completion response: need a string content"):
            model.complete(CompletionRequest(prompt="q"))


def test_remote_model_estimates_tokens_without_usage(stub_server, monkeypatch):
    monkeypatch.setattr(_StubHandler, "response", {"choices": [{"message": {"content": "[]"}}], "usage": None})
    model = RemoteChatModel(api_base=stub_server, api_key="k")
    result = model.complete(CompletionRequest(prompt="plan it"))
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("[]", 2, 1)


def test_remote_model_retries_then_succeeds(stub_server):
    _StubHandler.failures_left = 2
    model = RemoteChatModel(api_base=stub_server, api_key="k", backoff_s=0.0)
    result = model.complete(CompletionRequest(prompt="q"))
    assert result.text == "[]"
    assert len(_StubHandler.seen_payloads) == 3


def test_remote_model_fails_after_retries(stub_server):
    _StubHandler.failures_left = 10
    model = RemoteChatModel(api_base=stub_server, api_key="k", backoff_s=0.0, max_attempts=3)
    with pytest.raises(CompletionError) as err:
        model.complete(CompletionRequest(prompt="q"))
    assert "3 attempts" in str(err.value)


def test_truncated_response_is_retried_then_fails_as_completion_error(stub_server):
    # http.client.IncompleteRead is no OSError, yet it is a transport failure
    _StubHandler.truncate = True
    model = RemoteChatModel(api_base=stub_server, api_key="k", backoff_s=0.0, max_attempts=3)
    with pytest.raises(CompletionError, match="failed after 3 attempts: IncompleteRead"):
        model.complete(CompletionRequest(prompt="q"))
    assert len(_StubHandler.seen_payloads) == 3


def test_remote_model_does_not_retry_client_error(stub_server):
    _StubHandler.failures_left = 10
    _StubHandler.failure_status = 400
    model = RemoteChatModel(api_base=stub_server, api_key="k", backoff_s=0.0, max_attempts=3)
    with pytest.raises(CompletionError) as err:
        model.complete(CompletionRequest(prompt="q"))
    assert "HTTP 400" in str(err.value)
    assert len(_StubHandler.seen_payloads) == 1


def test_remote_model_retries_rate_limit(stub_server):
    _StubHandler.failures_left = 10
    _StubHandler.failure_status = 429
    model = RemoteChatModel(api_base=stub_server, api_key="k", backoff_s=0.0, max_attempts=3)
    with pytest.raises(CompletionError) as err:
        model.complete(CompletionRequest(prompt="q"))
    assert "3 attempts" in str(err.value)
    assert len(_StubHandler.seen_payloads) == 3


def test_retried_and_refused_responses_are_closed(stub_server):
    # an HTTPError holds its response's socket until it is closed
    import gc
    import warnings

    model = RemoteChatModel(api_base=stub_server, api_key="k", backoff_s=0.0, max_attempts=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _StubHandler.failures_left = 2
        assert model.complete(CompletionRequest(prompt="q")).text == "[]"
        for status in (500, 429, 400):
            _StubHandler.failures_left = 10
            _StubHandler.failure_status = status
            with pytest.raises(CompletionError):
                model.complete(CompletionRequest(prompt="q"))
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("client_class", [RemoteChatModel])
def test_endpoint_resolved_from_environment(monkeypatch, client_class):
    def endpoint(**explicit):
        client = client_class(**explicit)
        return client.api_base, client.api_key, client.timeout

    for name in ("CHAINPLAN_API_BASE", "CHAINPLAN_API_KEY", "CHAINPLAN_TIMEOUT", "OPENAI_API_BASE", "OPENAI_API_KEY"):
        monkeypatch.delenv(name, raising=False)
    assert endpoint() == ("https://api.openai.com", "", 30.0)
    monkeypatch.setenv("OPENAI_API_BASE", "http://openai.test/")
    monkeypatch.setenv("OPENAI_API_KEY", "openai-key")
    assert endpoint() == ("http://openai.test", "openai-key", 30.0)
    monkeypatch.setenv("CHAINPLAN_API_BASE", "http://chainplan.test")
    monkeypatch.setenv("CHAINPLAN_API_KEY", "chainplan-key")
    monkeypatch.setenv("CHAINPLAN_TIMEOUT", "7.5")
    assert endpoint() == ("http://chainplan.test", "chainplan-key", 7.5)
    assert endpoint(api_base="http://explicit.test/", api_key="k", timeout=2.0) == ("http://explicit.test", "k", 2.0)


@pytest.mark.parametrize("value", ["inf", "abc", "nan", "-1", "0"])
@pytest.mark.parametrize("client_class", [RemoteChatModel])
def test_bad_timeout_is_refused_when_the_client_is_built(monkeypatch, client_class, value):
    monkeypatch.setenv("CHAINPLAN_TIMEOUT", value)
    with pytest.raises(CompletionError, match=re.escape(f"CHAINPLAN_TIMEOUT must be a finite number of "
                                                        f"seconds above 0, got {value!r}")):
        client_class()
    monkeypatch.setenv("CHAINPLAN_TIMEOUT", "30")
    explicit = value if value == "abc" else float(value)
    with pytest.raises(CompletionError, match=re.escape(f"timeout must be a finite number of "
                                                        f"seconds above 0, got {explicit!r}")):
        client_class(timeout=explicit)


def test_constrained_token_model_masks_hallucinated_name(fixture_registry):
    automaton = compile_schema(fixture_registry)
    steps = [
        ['[{"tool_name":"'],
        ["made_up_tool", "who_am_i"],  # first candidate masked out
        ['","arguments":[]}]'],
    ]
    model = ScriptedTokenModel(steps)
    session = DecoderSession(automaton)
    result = constrained_complete(model, CompletionRequest(prompt="q"), session)
    assert result.text == '[{"tool_name":"who_am_i","arguments":[]}]'
    assert result.mode == "enforced"
    assert parse_plan(result.text).ok


def test_constrained_token_model_conformant_output(fixture_registry):
    automaton = compile_schema(fixture_registry)
    text = '[{"tool_name":"get_sprint_id","arguments":[]}]'
    model = ScriptedTokenModel([[text]])
    result = constrained_complete(model, CompletionRequest(prompt="q"), DecoderSession(automaton))
    assert result.text == text


def test_constrained_no_permissible_token(fixture_registry):
    automaton = compile_schema(fixture_registry)
    model = ScriptedTokenModel([["zzz", "###"]])
    with pytest.raises(NoPermissibleTokenError):
        constrained_complete(model, CompletionRequest(prompt="q"), DecoderSession(automaton))


_STRING_VALUE = '[{"tool_name":"search_object_by_name","arguments":[{"argument_name":"query","argument_value":"'


def test_no_permissible_message_is_bounded_for_a_large_vocabulary(fixture_registry):
    session = DecoderSession(compile_schema(fixture_registry)).advance(_STRING_VALUE + "a" * 400)
    candidates = [f"\x00{i:04d}" for i in range(8193)]
    with pytest.raises(NoPermissibleTokenError) as err:
        constrained_complete(ScriptedTokenModel([candidates]), CompletionRequest(prompt="q"), session)
    message = str(err.value)
    assert len(message) < 1000
    assert "8193 candidates" in message
    assert "'\\x000000'" in message and message.count("a") > 40


def test_constrained_stops_after_max_tokens_steps(fixture_registry):
    # a string value takes "a" for hundreds of steps
    session = DecoderSession(compile_schema(fixture_registry)).advance(_STRING_VALUE)
    model = ScriptedTokenModel([])
    model.candidate_steps = lambda: itertools.repeat(["a"])
    with pytest.raises(CompletionError, match="max_tokens=5") as err:
        constrained_complete(model, CompletionRequest(prompt="q", max_tokens=5), session)
    assert not isinstance(err.value, NoPermissibleTokenError)
    assert session.emitted == _STRING_VALUE + "a" * 5


def test_constrained_plain_model_is_repaired(fixture_registry):
    automaton = compile_schema(fixture_registry)
    raw = '[{"tool":"who_am_i","arguments":[]}]'
    model = ScriptedModel({fingerprint("q"): raw})
    session = DecoderSession(automaton)
    result = constrained_complete(model, CompletionRequest(prompt="q"), session)
    assert result.mode == "repaired"
    assert result.text == raw  # the model's own answer
    assert session.emitted == '[{"tool_name":"who_am_i","arguments":[]}]'


_PLAN = '[{"tool_name":"works_list","arguments":[{"argument_name":"type","argument_value":"bug"}]}]'
# Every character and character pair of the plan: a shared tail offered after
# each step's leading candidate, much of it permissible at any one step.
_TAIL = sorted(set(_PLAN) | {_PLAN[i : i + 2] for i in range(len(_PLAN) - 1)})


@pytest.fixture
def built_indexes(monkeypatch):
    """Sizes of the vocabularies a TokenIndex is built from, none kept from
    before the test."""
    import chainplan.enforcer as enforcer

    sizes = []

    class CountingIndex(enforcer.TokenIndex):
        def __init__(self, vocabulary):
            sizes.append(len(vocabulary))
            super().__init__(vocabulary)

    monkeypatch.setattr(enforcer, "TokenIndex", CountingIndex)
    enforcer._index_of.cache_clear()
    yield sizes
    enforcer._index_of.cache_clear()


def _steps(pieces):
    return [[piece, *_TAIL] for piece in pieces]


def test_constrained_builds_one_token_index_per_vocabulary(fixture_registry, built_indexes):
    # models with equal vocabularies in new lists share one index across
    # calls and automata; a changed vocabulary, even the same list changed
    # in place, is indexed again
    steps = _steps([_PLAN[i : i + 3] for i in range(0, len(_PLAN), 3)])
    for _ in range(2):
        session = DecoderSession(compile_schema(fixture_registry))
        model = ScriptedTokenModel(steps)
        assert constrained_complete(model, CompletionRequest(prompt="q"), session).text == _PLAN
    assert built_indexes == [len(model.vocabulary)]
    model.vocabulary.append("zz")
    session = DecoderSession(compile_schema(fixture_registry))
    assert constrained_complete(model, CompletionRequest(prompt="q"), session).text == _PLAN
    assert built_indexes == [len(model.vocabulary) - 1, len(model.vocabulary)]
    assert session.index.tokens == sorted(model.vocabulary)


def test_scripted_token_model_vocabulary_is_its_distinct_step_tokens():
    assert ScriptedTokenModel([["b", "a"], [], ["a", "c", "b"]]).vocabulary == ["b", "a", "c"]


def test_candidates_outside_the_vocabulary_are_masked_exactly(fixture_registry):
    model = ScriptedTokenModel([
        ['[{"tool_name":"'],
        ["made_up_tool", "who_am_i"],
        ['","arguments":[]}]'],
    ])
    # a declared vocabulary that holds none of the candidates
    model.vocabulary = ["who", "works_list", "zzz"]
    session = DecoderSession(compile_schema(fixture_registry))
    result = constrained_complete(model, CompletionRequest(prompt="q"), session)
    assert result.text == '[{"tool_name":"who_am_i","arguments":[]}]'
    assert session.index.tokens == ["who", "works_list", "zzz"]


def test_constrained_errors_unchanged_with_an_index(fixture_registry, built_indexes):
    automaton = compile_schema(fixture_registry)
    head = '[{"tool_name":"'
    # indexed candidates that no tool name starts with
    stuck = _steps([head]) + [["[", "{", "]]", ":"]]
    with pytest.raises(NoPermissibleTokenError):
        constrained_complete(ScriptedTokenModel(stuck), CompletionRequest(prompt="q"), DecoderSession(automaton))
    with pytest.raises(CompletionError, match="exhausted") as err:
        constrained_complete(ScriptedTokenModel(_steps([head, "who_am_i"])), CompletionRequest(prompt="q"),
                             DecoderSession(automaton))
    assert not isinstance(err.value, NoPermissibleTokenError)
    assert len(built_indexes) == 2


def _held_tables(session, steps):
    """A token model over ``steps`` that records, as the decode asks for
    each step after the first, whether ``session`` holds a verdict table."""
    model, held = ScriptedTokenModel(steps), []

    def candidate_steps():
        for step in steps:
            yield step
            held.append(session.table is not None)

    model.candidate_steps = candidate_steps
    return model, held


_HEAD = '[{"tool_name":"'


@pytest.mark.parametrize("steps, max_tokens, error", [
    (_steps([_PLAN[i : i + 3] for i in range(0, len(_PLAN), 3)]), 1024, None),
    (_steps([_HEAD]) + [["[", "{", "]]", ":"]], 1024, "none of 4 candidates is permissible"),
    (_steps([_HEAD, "wor", "ks", "_li"]), 3, "max_tokens=3"),
    (_steps([_HEAD, "who_am_i"]), 1024, "exhausted"),
], ids=["returns", "no-permissible-token", "max-tokens", "steps-exhausted"])
def test_constrained_drops_the_verdict_table_when_the_decode_ends(fixture_registry, steps, max_tokens, error):
    # the session keeps its table from step to step while decoding and
    # holds none once the decode has returned or raised
    session = DecoderSession(compile_schema(fixture_registry))
    model, held = _held_tables(session, steps)
    request = CompletionRequest(prompt="q", max_tokens=max_tokens)
    if error is None:
        assert constrained_complete(model, request, session).text == _PLAN
    else:
        with pytest.raises(CompletionError, match=error):
            constrained_complete(model, request, session)
    assert held and all(held)
    assert session.table is None


@pytest.mark.parametrize("text", [_HEAD, _STRING_VALUE], ids=["structural", "string"])
def test_a_dropped_session_is_freed_without_the_cycle_collector(fixture_registry, text):
    # a session's verdict table walks unindexed tokens from its node, not
    # through the session, so a session holding a table is in no cycle
    import gc
    import weakref

    session = DecoderSession(compile_schema(fixture_registry), vocabulary_index(_TAIL)).advance(text)
    session.mask_vocabulary(_TAIL + ["zz"])
    assert session.table is not None
    freed = weakref.ref(session)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del session
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
