import json
import random

import pytest

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from chainplan.enforcer import (
    _GRAPH_SIZE,
    _PRINTABLE,
    DecodeRejection,
    DecoderSession,
    PlanAutomaton,
    SchemaCompileError,
    TokenIndex,
    compile_schema,
    compile_subtask_schema,
    enforced_repair,
    vocabulary_index,
)
from chainplan.plan import CANONICAL_JSON, Plan, ToolCall, parse_plan, serialize_plan
from chainplan.registry import ArgSpec, Registry, ToolSpec, list_of, object_type, primitive

from conftest import random_plan, random_registry, subtasks_for


SIMPLE = '[{"tool_name":"who_am_i","arguments":[]}]'
# Characters of a long string, past 512: strings are uncapped.
_LONG_STRING = 600


@pytest.fixture(scope="module")
def automaton(fixture_registry):
    return compile_schema(fixture_registry)


def walk(automaton, rng, cap=100_000) -> str:
    session = DecoderSession(automaton)
    steps = 0
    while not session.at_end:
        allowed = session.automaton.allowed(session.state)
        session.advance(rng.choice(sorted(allowed)))
        steps += 1
        assert steps < cap, "walk exceeded depth cap"
    return session.emitted


def test_accepts_simple_plan(automaton):
    session = DecoderSession(automaton).advance(SIMPLE)
    assert session.at_end


def test_rejects_unknown_tool_spelling(automaton):
    session = DecoderSession(automaton)
    with pytest.raises(DecodeRejection) as err:
        session.advance('[{"tool_name":"who_am_I"')
    # rejected exactly at the capital I, session untouched
    assert err.value.char == "I"
    assert session.emitted == ""


def test_compile_empty_registry_fails():
    with pytest.raises(SchemaCompileError):
        compile_schema(Registry(tools={}, version="empty"))


def test_compile_rejects_non_identifier_names():
    # A registry cannot hold such names; sub-task tool names are raw strings.
    from chainplan.registry import ArgSpec, RegistryError, ToolSpec, primitive

    def registry(tool_name, argument_name):
        arg = ArgSpec(name=argument_name, description="d", value_type=primitive("string"))
        return Registry.from_tools([ToolSpec(tool_name, "d", (arg,), primitive("string"))])

    compile_schema(registry("ok_1", "q"))
    for tool_name, argument_name in (('a"b', "q"), ("ok", "q\n"), ("ok", "")):
        with pytest.raises(RegistryError):
            registry(tool_name, argument_name)
    with pytest.raises(SchemaCompileError):
        compile_subtask_schema(["who_am_i", "a b"])


def test_compile_rejects_duplicate_argument_names():
    # The registry refuses the second argument before the automaton could
    # offer one it cannot name.
    from chainplan.registry import ArgSpec, RegistryError, ToolSpec, primitive

    args = tuple(ArgSpec("a", "d", primitive(kind)) for kind in ("string", "integer"))
    with pytest.raises(RegistryError, match=r"^duplicate argument_name 'a'; tool=t; at=\$\[0\]\.arguments\[1\]$"):
        compile_schema(Registry.from_tools([ToolSpec("t", "d", args, primitive("string"))]))


def test_allowed_next_at_start(automaton):
    session = DecoderSession(automaton)
    allowed, at_end = session.automaton.allowed(session.state), session.at_end
    assert allowed == frozenset("[")
    assert not at_end


def test_allowed_next_inside_tool_enum(automaton):
    session = DecoderSession(automaton).advance('[{"tool_name":"w')
    allowed, at_end = session.automaton.allowed(session.state), session.at_end
    assert allowed == frozenset("ho")
    assert not at_end


def test_allowed_next_after_complete_plan(automaton):
    session = DecoderSession(automaton).advance(SIMPLE)
    allowed, at_end = session.automaton.allowed(session.state), session.at_end
    assert allowed == frozenset()
    assert at_end


def test_mask_vocabulary(automaton):
    session = DecoderSession(automaton).advance('[{"tool_name":"w')
    assert session.mask_vocabulary(["ho_am_i", "xyz", "orks"]) == [True, False, True]
    # speculative: state unchanged
    assert session.emitted == '[{"tool_name":"w'
    assert session.mask_vocabulary([]) == []


def test_mask_true_implies_advance_succeeds(automaton):
    rng = random.Random(5)
    session = DecoderSession(automaton)
    for _ in range(60):
        if session.at_end:
            break
        allowed = session.automaton.allowed(session.state)
        probe = rng.choice(sorted(allowed)) + "".join(rng.choice("az{}[]\",") for _ in range(2))
        for length in (1, 2, 3):
            token = probe[:length]
            if session.mask_vocabulary([token])[0]:
                session.copy().advance(token)  # must not raise
        session.advance(rng.choice(sorted(allowed)))


def test_advance_rejection_carries_position_and_allowed(automaton):
    session = DecoderSession(automaton)
    with pytest.raises(DecodeRejection) as err:
        session.advance("[{Z")
    assert err.value.position == 2
    assert '"' in err.value.allowed


def test_advance_empty_is_identity(automaton):
    session = DecoderSession(automaton).advance('[{"')
    state_before = session.state
    session.advance("")
    assert session.state == state_before


def test_prefix_viability(automaton):
    rng = random.Random(13)
    for _ in range(30):
        session = DecoderSession(automaton)
        while not session.at_end:
            allowed, at_end = session.automaton.allowed(session.state), session.at_end
            assert allowed or at_end
            session.advance(rng.choice(sorted(allowed)))


def test_fuzz_walks_parse_with_known_names(fixture_registry, automaton):
    rng = random.Random(99)
    for _ in range(200):
        text = walk(automaton, rng)
        outcome = parse_plan(text)
        assert outcome.ok, text[:200]
        for call in outcome.plan.calls:
            spec = fixture_registry.get(call.tool_name)
            assert spec is not None
            for name, _ in call.arguments:
                assert spec.argument(name) is not None


def test_serialized_fixture_golds_are_accepted(automaton, golden_examples):
    for example in golden_examples:
        session = DecoderSession(automaton).advance(example.gold_text)
        assert session.at_end


def test_argument_name_states_are_keyed_by_the_names_the_call_has_not_written(fixture_registry, automaton,
                                                                              golden_examples):
    # along each gold plan, every argument-name state holds its tool and the
    # sorted argument names its call has not written yet
    for example in golden_examples:
        expected = []
        for call in example.gold.calls:
            unused = set(fixture_registry.get(call.tool_name).argument_names)
            for name, _ in call.arguments:
                expected.append((call.tool_name, tuple(sorted(unused))))
                unused.discard(name)
        keys = []
        session = DecoderSession(automaton)
        for ch in example.gold_text:
            tag, *piece = session.state
            if tag == "name" and piece[0] is not None:
                if piece[1] == "":
                    keys.append(piece[0])
                assert piece[0] == keys[-1], (example.id, session.emitted)
            session.advance(ch)
        assert keys == expected, example.id


def test_repair_identity_on_valid(automaton):
    out, edits = enforced_repair(automaton, SIMPLE)
    assert out == SIMPLE
    assert edits == []


def test_repair_completes_truncated_key(automaton):
    out, edits = enforced_repair(automaton, '[{"tool":"who_am_i","arguments":[]}]')
    assert out == SIMPLE
    assert all(e.kind == "insert" for e in edits)


def test_repair_trailing_comma_golden(automaton):
    out, _ = enforced_repair(automaton, '[{"tool_name":"who_am_i","arguments":[]},]')
    # the comma forces a next element, completed by priority insertion
    assert out == ('[{"tool_name":"who_am_i","arguments":[]},'
                   '{"tool_name":"add_work_items_to_sprint","arguments":[]}]')
    assert parse_plan(out).ok


def test_repair_idempotent_on_garbage(automaton):
    rng = random.Random(3)
    alphabet = '[]{}",:abcXYZ$01'
    for _ in range(100):
        garbage = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        once, _ = enforced_repair(automaton, garbage)
        twice, edits = enforced_repair(automaton, once)
        assert twice == once
        assert edits == []
        assert parse_plan(once).ok


def test_repair_output_always_parses(automaton):
    cases = [
        "",
        "not json at all",
        '[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":',
        '[{"tool_name":"nonexistent_tool","arguments":[]}]',
        '{"tool_name":"who_am_i"}',
    ]
    for candidate in cases:
        out, _ = enforced_repair(automaton, candidate)
        assert parse_plan(out).ok, (candidate, out)


def test_random_plans_round_trip_through_automaton(fixture_registry, automaton):
    # any serialized plan over registry names/args is accepted
    rng = random.Random(17)
    names = fixture_registry.names
    for _ in range(50):
        plan = random_plan(rng, tool_names=names, max_calls=4)
        filtered = []
        for call in plan.calls:
            spec = fixture_registry.get(call.tool_name)
            args = tuple((n, v) for n, v in call.arguments if spec.argument(n) is not None)
            filtered.append(ToolCall(call.tool_name, args))
        text = serialize_plan(Plan(tuple(filtered)))
        repaired, _ = enforced_repair(automaton, text)
        assert parse_plan(repaired).ok


def test_subtask_automaton_roundtrip(fixture_registry):
    automaton = compile_subtask_schema(fixture_registry.names)
    text = ('[{"id":0,"thought":"Identify the current user","tool_name":"who_am_i"},'
            '{"id":1,"thought":"Fetch their items","tool_name":"works_list"}]')
    session = DecoderSession(automaton).advance(text)
    assert session.at_end


def test_subtask_automaton_rejects_unknown_tool(fixture_registry):
    automaton = compile_subtask_schema(fixture_registry.names)
    session = DecoderSession(automaton)
    with pytest.raises(DecodeRejection):
        session.advance('[{"id":0,"thought":"x","tool_name":"zzz"')


def test_subtask_automaton_repair(fixture_registry):
    automaton = compile_subtask_schema(fixture_registry.names)
    out, _ = enforced_repair(automaton, '[{"id":0,"thought":"do it","tool_name":"bad_tool"}]')
    import json

    data = json.loads(out)
    assert data[0]["tool_name"] in fixture_registry.names


def _subtask(index: int, thought: str, tool_name: str) -> dict:
    """A sub-task record, its keys in the order the sub-task schema spells them."""
    return {"id": index, "thought": thought, "tool_name": tool_name}


@st.composite
def _subtask_lists(draw):
    names = random_registry(random.Random(draw(st.integers(0, 2**16))), max_tools=8).names
    # printable ASCII; the characters JSON escapes, with neighbours; Latin-1; any character
    alphabets = (_PRINTABLE, '"\\/\b\f\n\r\t\x00\x1f\x7f a\xe9\u2028\uffff\U0001F600',
                 st.characters(max_codepoint=0xFF), st.characters())
    thoughts = st.one_of(st.text(alphabet=alphabet, max_size=_LONG_STRING) for alphabet in alphabets)
    subtasks = draw(st.lists(
        st.builds(_subtask, index=st.integers(0, 10**15), thought=thoughts, tool_name=st.sampled_from(names)),
        max_size=4,
    ))
    return names, subtasks


@settings(max_examples=200, deadline=None)
@given(_subtask_lists())
@example((("tool0",), [_subtask(0, "a" * _LONG_STRING, "tool0")]))
@example((("tool0",), [_subtask(1_700_000_000_000, "é\n\"\\" * (_LONG_STRING // 4), "tool0")]))
@example((("tool0",), [_subtask(1, "\U0001F600" * _LONG_STRING, "tool0")]))
def test_serialized_subtasks_are_accepted_and_parse_back(case):
    names, subtasks = case
    text = CANONICAL_JSON.encode(subtasks)
    automaton = compile_subtask_schema(names)
    assert DecoderSession(automaton).advance(text).at_end
    assert json.loads(text) == subtasks


def test_subtask_schema_needs_tools():
    with pytest.raises(SchemaCompileError):
        compile_subtask_schema([])


def test_a_repeated_tool_name_compiles_the_repeat_free_subtask_automaton(golden_examples):
    # the language depends on the set of names alone
    script = subtasks_for(golden_examples[0])  # who_am_i, works_list, prioritize_objects
    names = ["who_am_i", "works_list", "prioritize_objects"]
    repeated = compile_subtask_schema(["who_am_i", *names, "works_list", "who_am_i"])
    plain = compile_subtask_schema(names)
    vocabulary = sorted({*script, *names, "who_am_j", '"}', '"},'}
                        | {script[i : i + 3] for i in range(len(script) - 2)})
    index = vocabulary_index(vocabulary)
    sessions = [DecoderSession(automaton, index) for automaton in (repeated, plain)]
    for ch in script:
        assert repeated.allowed(sessions[0].state) == plain.allowed(sessions[1].state), sessions[1].emitted
        assert sessions[0].mask_vocabulary(vocabulary) == sessions[1].mask_vocabulary(vocabulary)
        for session in sessions:
            session.advance(ch)
    assert all(session.at_end for session in sessions)
    for damaged in ('[{"id":0,"thought":"x","tool_name":"who_am_j"}]',
                    script.replace('"who_am_i"', '"who_am"'),
                    script.replace('"works_list"', '"who_am_i_list"'),
                    script[:-1] + ",]",
                    script[: len(script) // 2]):
        assert enforced_repair(repeated, damaged) == enforced_repair(plain, damaged), damaged


def test_value_machines_accept_typed_values(automaton):
    texts = [
        '[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":25}]}]',
        '[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":-3}]}]',
        '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":[]}]}]',
        '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["a","b"]}]}]',
        '[{"tool_name":"add_work_items_to_sprint","arguments":[{"argument_name":"work_items","argument_value":[{"id":"W1","rank":2}]}]}]',
        '[{"tool_name":"works_list","arguments":[{"argument_name":"type","argument_value":"$$PREV[0]"}]}]',
        '[{"tool_name":"works_list","arguments":[{"argument_name":"type","argument_value":["$$PREV[0]"]}]}]',
        '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":"$$PREV[0]"}]}]',
    ]
    for text in texts:
        session = DecoderSession(automaton).advance(text)
        assert session.at_end, text
        assert parse_plan(text).ok


def test_value_machines_reject_type_mismatches(automaton):
    bad = [
        # string where integer required
        '[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":"x',
        # leading zero breaks JSON number grammar
        '[{"tool_name":"works_list","arguments":[{"argument_name":"limit","argument_value":01',
        # bare word where string required
        '[{"tool_name":"works_list","arguments":[{"argument_name":"type","argument_value":issue',
    ]
    for text in bad:
        with pytest.raises(DecodeRejection):
            DecoderSession(automaton).advance(text)


@pytest.mark.parametrize("tool, argument, value", [
    ("works_list", "limit", 1_700_000_000_000),
    ("search_object_by_name", "query", "q" * _LONG_STRING),
], ids=["13-digit limit", "600-character query"])
def test_long_values_are_not_rewritten(automaton, tool, argument, value):
    text = serialize_plan(Plan((ToolCall(tool, ((argument, value),)),)))
    assert enforced_repair(automaton, text) == (text, [])


def test_object_keys_are_strings():
    # keys with an escape, with a non-ASCII character and of any length
    from chainplan.registry import ArgSpec, ToolSpec

    arg = ArgSpec("o", "d", object_type("Foo"))
    automaton = compile_schema(Registry.from_tools([ToolSpec("t", "d", (arg,), primitive("string"))]))
    value = {"clé": "v", 'a"b': True, "k" * 80: None}
    text = serialize_plan(Plan((ToolCall("t", (("o", value),)),)))
    assert enforced_repair(automaton, text) == (text, [])


def test_long_subtask_thought_is_not_rewritten(fixture_registry):
    automaton = compile_subtask_schema(fixture_registry.names)
    text = CANONICAL_JSON.encode([_subtask(0, "t" * _LONG_STRING, "who_am_i")])
    assert enforced_repair(automaton, text) == (text, [])


def test_reference_index_is_canonical(automaton):
    # an integer argument takes a reference, bare or wrapped, but no string
    # that merely looks like one
    opener = ('[{"tool_name":"who_am_i","arguments":[]},{"tool_name":"works_list","arguments":'
              '[{"argument_name":"limit","argument_value":')
    for wrap in ("", "["):
        assert DecoderSession(automaton).peek(opener + wrap + '"$$PREV[0]"')
        assert DecoderSession(automaton).peek(opener + wrap + '"$$PREV[10]"')
        for index in ("00", "01"):
            with pytest.raises(DecodeRejection) as err:
                DecoderSession(automaton).advance(opener + wrap + f'"$$PREV[{index}]"')
            assert err.value.position == len(opener + wrap + '"$$PREV[0')
            assert err.value.allowed == frozenset("]")


def test_prefix_overlapping_enums():
    # one tool name a strict prefix of another, same for argument names:
    # at the shared node both "continue" and "close quote" must be live
    import json

    from chainplan.registry import load_registry

    doc = json.dumps([
        {"tool_name": "get", "tool_description": "short", "arguments": [
            {"argument_name": "q", "argument_description": "d", "argument_type": "string"},
            {"argument_name": "q_limit", "argument_description": "d", "argument_type": "integer"},
        ], "return_type": "string"},
        {"tool_name": "get_user", "tool_description": "longer", "arguments": [], "return_type": "string"},
        {"tool_name": "get_users", "tool_description": "longest", "arguments": [], "return_type": "array of string"},
    ])
    registry = load_registry(doc)
    automaton = compile_schema(registry)

    session = DecoderSession(automaton).advance('[{"tool_name":"get')
    allowed = session.automaton.allowed(session.state)
    assert allowed == frozenset('"_')
    session2 = DecoderSession(automaton).advance('[{"tool_name":"get_user')
    allowed2 = session2.automaton.allowed(session2.state)
    assert allowed2 == frozenset('"s')

    for name in ("get", "get_user", "get_users"):
        text = f'[{{"tool_name":"{name}","arguments":[]}}]'
        assert DecoderSession(automaton).advance(text).at_end

    both_args = ('[{"tool_name":"get","arguments":['
                 '{"argument_name":"q","argument_value":"x"},'
                 '{"argument_name":"q_limit","argument_value":3}]}]')
    assert DecoderSession(automaton).advance(both_args).at_end
    assert parse_plan(both_args).ok


def test_fuzz_random_registries():
    import random as random_module

    from conftest import random_registry

    rng = random_module.Random(424)
    for _ in range(30):
        registry = random_registry(rng, max_tools=5)
        automaton = compile_schema(registry)
        for _ in range(10):
            text = walk(automaton, rng)
            outcome = parse_plan(text)
            assert outcome.ok, text[:200]
            for call in outcome.plan.calls:
                spec = registry.get(call.tool_name)
                assert spec is not None
                for name, _ in call.arguments:
                    assert spec.argument(name) is not None
        garbage = "".join(rng.choice('[]{}",:tool0arg $PREV9') for _ in range(50))
        repaired, _ = enforced_repair(automaton, garbage)
        assert parse_plan(repaired).ok


def test_sessions_share_one_automaton_concurrently(fixture_registry, golden_examples):
    from concurrent.futures import ThreadPoolExecutor

    automaton = compile_schema(fixture_registry)
    texts = [ex.gold_text for ex in golden_examples]

    def run(text):
        session = DecoderSession(automaton).advance(text)
        return session.at_end

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(run, texts * 5))


def test_repair_survives_wild_input(automaton):
    # control characters, non-ASCII, emoji: never accepted, always projected
    rng = random.Random(5150)
    alphabet = [chr(c) for c in range(0, 256)] + ["中", "é", "\U0001f4a5"]
    for _ in range(60):
        garbage = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
        out, _ = enforced_repair(automaton, garbage)
        assert parse_plan(out).ok, repr(garbage[:50])
        twice, edits = enforced_repair(automaton, out)
        assert twice == out and edits == []


def test_repair_unterminated_string_pads_to_cap_and_closes(automaton):
    prefix = '[{"tool_name":"works_list","arguments":[{"argument_name":"type","argument_value":"abc'
    out, _ = enforced_repair(automaton, prefix)
    assert parse_plan(out).ok
    # the open string is closed, not filled to the length cap; the rest is
    # then force-closed; bounded, deterministic output
    assert len(out) < 700


def test_repair_closes_unterminated_string_value(automaton):
    prefix = '[{"tool_name":"works_list","arguments":[{"argument_name":"type","argument_value":"abc'
    out, _ = enforced_repair(automaton, prefix)
    assert parse_plan(out).plan.calls[0].argument("type") == "abc"


@pytest.mark.parametrize("text, accepted", [
    ("1e-07", True),
    ("1.5e+300", True),
    ("5e-324", True),
    ("-0.0", True),
    ("1e+308", True),
    ("1.7976931348623157e+308", True),  # the largest finite double
    ("1.7976931348623159e308", False),  # reads as infinity
    ("2e308", False),
    ("1e999", False),
    ("01.5", False),  # a leading zero
])
def test_float_texts_at_the_edges(text, accepted):
    # a float takes an exponent where the value stays finite
    arg = ArgSpec(name="x", description="x", value_type=primitive("float"))
    automaton = compile_schema(Registry.from_tools([ToolSpec(name="t", description="t", arguments=(arg,),
                                                             returns=primitive("float"))]))
    plan = f'[{{"tool_name":"t","arguments":[{{"argument_name":"x","argument_value":{text}}}]}}]'
    assert (enforced_repair(automaton, plan) == (plan, [])) == accepted
    assert parse_plan(plan).ok == accepted


# Corruptions for the pinned-repair test: dropped spans, noise (including
# non-ASCII and control characters), fabricated names and cut-offs.
_PIN_NOISE = '[]{}",:$ aZ_09\\\té'


def _corrupt(rng: random.Random, text: str) -> str:
    import re

    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.3:
            text = text[:pos] + text[pos + rng.randint(1, 6):]
        elif roll < 0.6:
            noise = "".join(rng.choice(_PIN_NOISE) for _ in range(rng.randint(1, 4)))
            text = text[:pos] + noise + text[pos:]
        elif roll < 0.9:
            names = re.findall(r'"(?:tool_name|argument_name)":"(\w+)"', text)
            if names:
                name = rng.choice(names)
                text = text.replace(f'"{name}"', f'"{rng.choice("xyz")}{name}"', 1)
        else:
            text = text[:pos]
    return text


def test_repair_output_is_pinned(fixture_registry, golden_examples):
    # sha256 over (text, edits) of enforced_repair on 500 seeded corrupted
    # plans: 250 over the fixture registry, 250 over a synthetic one. Any
    # change to the projection's output or its edit records changes it.
    import hashlib
    import json

    from conftest import random_registry

    rng = random.Random(2024)
    synthetic = random_registry(random.Random(77), max_tools=8)
    digest = hashlib.sha256()
    for registry in (fixture_registry, synthetic):
        automaton = compile_schema(registry)
        bases = [ex.gold_text for ex in golden_examples] if registry is fixture_registry else []
        for k in range(250):
            if k < len(bases):
                base = bases[k]
            else:
                base = serialize_plan(random_plan(rng, tool_names=registry.names, max_calls=4))
            out, edits = enforced_repair(automaton, _corrupt(rng, base))
            record = [out, [[e.kind, e.position, e.text] for e in edits]]
            digest.update(json.dumps(record).encode("utf-8"))
    assert digest.hexdigest() == "d162ed728d5f80762875f24fe20d2cc96c0ab4cb7ae1741f239d722b2c5fbfb5"


@pytest.mark.parametrize("nodes", [1, 3])
def test_repair_output_survives_graph_clears(fixture_registry, golden_examples, monkeypatch, nodes):
    # a bound of a few nodes clears the transition graph many times inside
    # each walk; a walk decides acceptance from its state, so the pinned
    # corpus still projects to its digest
    monkeypatch.setattr("chainplan.enforcer._GRAPH_SIZE", nodes)
    test_repair_output_is_pinned(fixture_registry, golden_examples)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_projection_on_a_warm_graph_equals_a_cold_one(registry_seed, text_seed):
    registry = random_registry(random.Random(registry_seed), max_tools=5)
    rng = random.Random(text_seed)
    texts = [_corrupt(rng, serialize_plan(random_plan(rng, tool_names=registry.names, max_calls=4)))
             for _ in range(4)]
    warm = compile_schema(registry)
    for text in texts:
        cold = compile_schema(registry)
        projected = enforced_repair(cold, text)
        assert enforced_repair(cold, text) == projected
        assert enforced_repair(warm, text) == projected
        state = warm.initial_state
        for ch in projected[0]:
            state = warm.transition(state, ch)
            assert state is not None, (text, projected[0])
        assert warm.accepting(state)
    for text in texts:
        assert enforced_repair(warm, text) == enforced_repair(compile_schema(registry), text)


@st.composite
def _named_registries(draw):
    """A random registry and a list of names: some of its tools, in any
    order and repeated, and names it lacks."""
    registry = random_registry(random.Random(draw(st.integers(0, 2**16))), max_tools=6)
    names = draw(st.lists(st.sampled_from(registry.names + ("missing", "tool99", "Tool0")), max_size=8))
    return registry, names


@settings(max_examples=60, deadline=None)
@given(_named_registries(), st.integers(0, 2**16))
def test_compiling_over_names_equals_compiling_a_registry_of_those_tools(case, seed):
    # the automaton over named tools of one registry walks and projects as
    # one compiled from a registry that holds only the named known tools
    registry, names = case
    known = [registry.tools[name] for name in dict.fromkeys(names) if name in registry.tools]
    if not known:
        with pytest.raises(SchemaCompileError):
            compile_schema(registry, names)
        return
    over_names, rebuilt = compile_schema(registry, names), compile_schema(Registry.from_tools(known))
    rng = random.Random(seed)
    for _ in range(3):
        session, twin = DecoderSession(rebuilt), DecoderSession(over_names)
        while not session.at_end:
            allowed = rebuilt.allowed(session.state)
            assert over_names.allowed(twin.state) == allowed, session.emitted
            ch = rng.choice(sorted(allowed))
            session.advance(ch)
            twin.advance(ch)
            assert len(session.emitted) < 100_000, "walk exceeded depth cap"
        assert twin.at_end
    for _ in range(4):
        # plans over every tool of the registry, named or not
        text = _corrupt(rng, serialize_plan(random_plan(rng, tool_names=registry.names, max_calls=4)))
        assert enforced_repair(over_names, text) == enforced_repair(rebuilt, text)


def _replay(candidate: str, edits) -> str:
    """``candidate`` with ``edits`` applied in order: a skip removes its text
    at its position, an insert adds its text there, a truncate drops the
    tail from its position."""
    out = []
    at = 0
    for edit in edits:
        assert edit.position >= at, edits
        out.append(candidate[at:edit.position])
        at = edit.position
        if edit.kind == "insert":
            out.append(edit.text)
        elif edit.kind == "skip":
            assert edit.text and candidate.startswith(edit.text, at), edit
            at += len(edit.text)
        else:
            assert edit.kind == "truncate" and edit.text == candidate[at:] and edit is edits[-1], edit
            at = len(candidate)
    return "".join(out) + candidate[at:]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16), st.booleans())
def test_edits_replayed_on_the_candidate_give_the_projection(registry_seed, text_seed, subtasks):
    registry = random_registry(random.Random(registry_seed), max_tools=5)
    rng = random.Random(text_seed)
    if subtasks:
        automaton = compile_subtask_schema(registry.names)
        plans = [CANONICAL_JSON.encode([_subtask(i, rng.choice(["", "find it", 'say "x"\\y']), rng.choice(registry.names))
                                        for i in range(rng.randint(1, 3))]) for _ in range(4)]
    else:
        automaton = compile_schema(registry)
        plans = [serialize_plan(random_plan(rng, tool_names=registry.names, max_calls=4)) for _ in range(4)]
    for plan in plans:
        candidate = _corrupt(rng, plan)
        projected, edits = enforced_repair(automaton, candidate)
        assert _replay(candidate, edits) == projected, (candidate, edits)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.booleans(), st.integers(0, 2**16))
def test_forced_runs_step_the_one_allowed_character_along_random_walks(registry_seed, arrays, walk_seed):
    # Each character of a run is the only one its state allows (``allowed``
    # equals the printable scan, tested above); the run ends where the
    # choice is not one character.
    pool = {"type_pool": _ARRAY_TYPES} if arrays else {}
    registry = random_registry(random.Random(registry_seed), max_tools=8, **pool)
    rng = random.Random(walk_seed)
    for automaton in (compile_schema(registry), compile_subtask_schema(registry.names)):
        session = DecoderSession(automaton)
        while True:
            text, end = automaton.forced(session.node)
            assert automaton.forced(session.node) == (text, end)
            state = session.state
            for ch in text:
                assert automaton.allowed(state) == {ch}, (session.emitted[-60:], text)
                state = automaton.transition(state, ch)
            assert state == end[None]
            assert len(automaton.allowed(state)) != 1, (session.emitted[-60:], text)
            if session.at_end:
                assert text == "" and end is session.node
                break
            session.advance(_walk_choice(rng, automaton.allowed(session.state)))


def _char_class(ch: str) -> str:
    return "0" if ch.isdigit() else "a" if ch.isalpha() else ch


def _walk_choice(rng: random.Random, allowed: frozenset[str]) -> str:
    # Free string bodies close early and plans, argument lists and lists go
    # on more often than they close, so the walk's steps reach values; half
    # the other picks are uniform over character classes (digits, letters,
    # each other character), so signs, escapes and literals come up.
    chars = sorted(allowed)
    if '"' in allowed and len(chars) > 60 and rng.random() < 0.25:
        return '"'
    if len(chars) == 2 and "]" in allowed and rng.random() < 0.6:
        return chars[0] if chars[1] == "]" else chars[1]
    if rng.random() < 0.5:
        return rng.choice(chars)
    picked = rng.choice(sorted({_char_class(c) for c in chars}))
    return rng.choice([c for c in chars if _char_class(c) == picked])


def _pinned_walk_digest(registries, rng: random.Random) -> tuple[str, int]:
    """sha256 over the allowed set, the accepting flag and the accepted
    characters of "\\t\\né" at every step of four seeded random walks per
    automaton, for both automata of each registry; and the number of states."""
    import hashlib

    digest = hashlib.sha256()
    states = 0
    for registry in registries:
        for automaton in (compile_schema(registry), compile_subtask_schema(registry.names)):
            for _ in range(4):
                session = DecoderSession(automaton)
                while True:
                    allowed, end = session.automaton.allowed(session.state), session.at_end
                    probed = "".join(c for c in "\t\né" if automaton.transition(session.state, c) is not None)
                    digest.update(f"{''.join(sorted(allowed))}|{end}|{probed}\n".encode("utf-8"))
                    states += 1
                    if end:
                        break
                    session.advance(_walk_choice(rng, allowed))
    return digest.hexdigest(), states


def test_allowed_sets_are_pinned(fixture_registry):
    # The walk digest over the fixture and twelve synthetic registries
    # (integer, float, boolean, object and list arguments). test_mask.py
    # cannot see a change to the accepted language, since peek steps the same
    # transition; this can.
    rng = random.Random(4096)
    registries = [fixture_registry] + [random_registry(random.Random(seed), max_tools=8) for seed in range(12)]
    digest, states = _pinned_walk_digest(registries, rng)
    assert states > 20_000
    assert digest == "bb4772ae49b565e717835c62609862b0f3db2fa680dbc2b7f41325b81e95cf5e"


# Argument types the default pool of ``random_registry`` lacks: numbers and
# booleans inside an array, and arrays inside an array.
_ARRAY_TYPES = (
    list_of(primitive("integer")),
    list_of(primitive("float")),
    list_of(primitive("boolean")),
    list_of(list_of(primitive("string"))),
    list_of(list_of(object_type("A"))),
)


def test_allowed_sets_are_pinned_inside_arrays():
    # The same walk digest over registries drawing only _ARRAY_TYPES.
    rng = random.Random(4097)
    registries = [random_registry(random.Random(seed), max_tools=8, type_pool=_ARRAY_TYPES) for seed in range(12)]
    digest, states = _pinned_walk_digest(registries, rng)
    assert states > 20_000
    assert digest == "fd6cd6ab2fe11e627d5756e6b2d4c4b4454a789d326a1bdc1036a9bfaf5f84b0"


def _scan(automaton, state) -> frozenset[str]:
    """The next-character set of ``state``, computed without the graph."""
    return frozenset(c for c in _PRINTABLE if automaton.transition(state, c) is not None)


def test_memoized_allowed_equals_a_fresh_scan_on_walks(fixture_registry):
    # each automaton serves six walks, so later states meet sets kept on
    # their nodes
    rng = random.Random(31)
    registries = [fixture_registry] + [random_registry(random.Random(seed), max_tools=8) for seed in range(100, 106)]
    for registry in registries:
        for automaton in (compile_schema(registry), compile_subtask_schema(registry.names)):
            for _ in range(6):
                session = DecoderSession(automaton)
                while True:
                    allowed = automaton.allowed(session.state)
                    assert allowed == _scan(automaton, session.state), session.emitted[-60:]
                    if session.at_end:
                        break
                    session.advance(_walk_choice(rng, allowed))


@pytest.mark.parametrize("nodes", [1, 3])
def test_memoized_allowed_survives_graph_clears(fixture_registry, monkeypatch, nodes):
    # a bound of a few nodes clears the graph at nearly every step, so sets
    # are kept on nodes that a later step has cleared
    monkeypatch.setattr("chainplan.enforcer._GRAPH_SIZE", nodes)
    test_memoized_allowed_equals_a_fresh_scan_on_walks(fixture_registry)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.booleans(), st.integers(0, 2**16))
def test_allowed_equals_the_printable_scan_along_random_walks(registry_seed, arrays, walk_seed):
    # Literal and name states read their sets off the state; every set must
    # still be the scan's, on a fresh automaton of each kind.
    pool = {"type_pool": _ARRAY_TYPES} if arrays else {}
    registry = random_registry(random.Random(registry_seed), max_tools=8, **pool)
    rng = random.Random(walk_seed)
    for automaton in (compile_schema(registry), compile_subtask_schema(registry.names)):
        session = DecoderSession(automaton)
        while True:
            allowed = automaton.allowed(session.state)
            assert allowed == _scan(automaton, session.state), session.emitted[-60:]
            if session.at_end:
                break
            session.advance(_walk_choice(rng, allowed))


# String openers in three places: a sub-task thought, a plan string argument
# and an element of an array-of-string argument.
_STRING_PLACES = {
    "thought": ("subtask", '[{"id":0,"thought":"'),
    "string argument": ("plan", '[{"tool_name":"search_object_by_name","arguments":'
                                '[{"argument_name":"query","argument_value":"'),
    "array of string": ("plan", '[{"tool_name":"works_list","arguments":'
                                '[{"argument_name":"owned_by","argument_value":["'),
}


@pytest.mark.parametrize("place", sorted(_STRING_PLACES))
def test_memoized_allowed_of_string_states_near_the_cap(fixture_registry, place):
    # the memo is warmed at 0 characters first; around 512 characters, and
    # past them, a string still takes every body character and every escape
    kind, opener = _STRING_PLACES[place]
    automaton = compile_schema(fixture_registry) if kind == "plan" else compile_subtask_schema(fixture_registry.names)
    for n in (0, 511, 512, _LONG_STRING):
        at_n = DecoderSession(automaton).advance(opener + "a" * n)
        for escape in ("", "\\", "\\u", "\\u0"):
            state = at_n.copy().advance(escape).state
            assert automaton.allowed(state) == _scan(automaton, state), (n, escape)
        assert automaton.allowed(at_n.state) == frozenset(_PRINTABLE)


def test_memoized_allowed_of_a_literal_ignores_its_continuation(fixture_registry):
    # the ',"arguments":[' literal, once after each of two tools: the same
    # text and position with different ``then`` states
    automaton = compile_schema(fixture_registry)
    first = DecoderSession(automaton).advance('[{"tool_name":"who_am_i"')
    second = DecoderSession(automaton).advance('[{"tool_name":"works_list"')
    for ch in ',"arguments":[':
        assert first.state[:3] == second.state[:3] and first.state != second.state
        for session in (first, second):
            assert automaton.allowed(session.state) == _scan(automaton, session.state) == frozenset(ch)
            session.advance(ch)
    assert automaton.allowed(first.state) == _scan(automaton, first.state) == frozenset("]")
    assert automaton.allowed(second.state) == _scan(automaton, second.state) == frozenset("{]")


def test_memoized_allowed_after_copy(fixture_registry):
    # two copies of one session branch on through the memo it warmed
    automaton = compile_schema(fixture_registry)
    session = DecoderSession(automaton).advance('[{"tool_name":"works_list","arguments":[{"argument_name":"')
    automaton.allowed(session.state)
    for text in ('owned_by","argument_value":["a"', 'type","argument_value":"issue'):
        branch = session.copy()
        for ch in text:
            assert branch.automaton.allowed(branch.state) == _scan(automaton, branch.state)
            branch.advance(ch)
        assert branch.automaton.allowed(branch.state) == _scan(automaton, branch.state)


# Names over a four-character alphabet, so that stems are shared and one name
# is often a prefix of another.
_NAME_ALPHABET = "ab_1"


def _stemmed_names(max_size):
    return st.lists(st.text(_NAME_ALPHABET, min_size=1, max_size=4), min_size=1, max_size=max_size, unique=True)


def _name_states(key, names):
    """Name states keyed ``key`` at every prefix of every name (each full
    name and "" among them) and one character past each prefix."""
    prefixes = {name[:k] for name in names for k in range(len(name) + 1)}
    dead = {prefix + ch for prefix in prefixes for ch in _NAME_ALPHABET}
    return [("name", key, prefix) for prefix in sorted(prefixes | dead)]


@settings(max_examples=40, deadline=None)
@example(tools=["a", "ab", "abc", "abd", "b_1"], arguments=[["a", "ab", "abc", "abd", "b_1"], ["b", "b_1"]])
@given(tools=_stemmed_names(8), arguments=st.lists(_stemmed_names(5), min_size=2, max_size=2))
def test_name_state_sets_equal_the_scan(tools, arguments):
    # name states read their next characters off the sorted names; the
    # transition probe over printable ASCII is the oracle. The first two
    # tools take arguments, with none, one or two of them used.
    specs = [ToolSpec(tool, "d", tuple(ArgSpec(a, "d", primitive("string")) for a in args), primitive("string"))
             for tool, args in zip(tools, arguments + [[]] * len(tools))]
    plan = compile_schema(Registry.from_tools(specs))
    states = _name_states(None, tools)
    for spec in specs:
        names = sorted(spec.argument_names)
        for k in range(min(len(names), 3)):  # some arguments are left
            unused = tuple(names[k:])
            states += _name_states((spec.name, unused), unused)
    for state in states:
        assert plan.allowed(state) == _scan(plan, state), state
    subtask = compile_subtask_schema(tools)
    for state in _name_states(None, tools):
        assert subtask.allowed(state) == _scan(subtask, state), state


class _CountingPlanAutomaton(PlanAutomaton):
    """A plan automaton that counts its ``transition`` calls."""

    calls = 0

    def transition(self, state, ch):
        self.calls += 1
        return super().transition(state, ch)


def test_allowed_reuses_the_set_of_a_seen_shape(fixture_registry):
    automaton = _CountingPlanAutomaton(fixture_registry)
    opener = _STRING_PLACES["string argument"][1]
    pairs = [
        # the same state twice
        ('[{"tool_name":"works_l', '[{"tool_name":"works_l'),
        # string states after a short and a long run of characters
        (opener + "a", opener + "a" * _LONG_STRING),
        (opener + "\\", opener + "ab\\"),
        (opener + "\\u0", opener + "abc\\u0"),
        # one literal position with two continuations
        ('[{"tool_name":"who_am_i"', '[{"tool_name":"works_list"'),
    ]
    for seen, same in pairs:
        first = DecoderSession(automaton).advance(seen).state
        second = DecoderSession(automaton).advance(same).state
        allowed = automaton.allowed(first)
        automaton.calls = 0
        assert automaton.allowed(second) == allowed
        assert automaton.calls == 0, (seen, same)


def test_allowed_memo_is_bounded(fixture_registry):
    # tool names long enough that their prefix states outnumber the graph's
    # bound; each keeps its set on its node, and the sets stay exact past
    # the clears
    long_names = random_registry(random.Random(5), max_tools=8)
    length = _GRAPH_SIZE // len(long_names) + 40
    specs = [replace(spec, name=f"t{i}_" + "x" * length) for i, spec in enumerate(long_names.tools.values())]
    automaton = PlanAutomaton(Registry.from_tools(specs))
    session = DecoderSession(automaton).advance('[{"tool_name":"')
    prefixes = 0
    for spec in specs:
        name_session = session.copy()
        for ch in spec.name:
            name_session.advance(ch)
            assert automaton.allowed(name_session.state) == _scan(automaton, name_session.state)
            assert len(automaton._graph) <= _GRAPH_SIZE
            prefixes += 1
    assert prefixes > _GRAPH_SIZE


def _all_in_threads(run) -> bool:
    """Whether ``run(seed)`` holds for 16 seeds on eight threads switching
    every microsecond."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, seed) for seed in range(16)]
            return all([future.result(timeout=120) for future in futures])
    finally:
        sys.setswitchinterval(interval)


def test_shared_memo_stays_exact_under_threads(fixture_registry, monkeypatch):
    # a tiny bound makes clears frequent while eight threads read and fill
    # the sets kept on one automaton's graph; a lost set may only cost a
    # rescan
    monkeypatch.setattr("chainplan.enforcer._GRAPH_SIZE", 8)
    automaton = compile_schema(fixture_registry)

    def run(seed):
        rng = random.Random(seed)
        for _ in range(3):
            session = DecoderSession(automaton)
            while not session.at_end:
                allowed = automaton.allowed(session.state)
                if allowed != _scan(automaton, session.state):
                    return False
                session.advance(_walk_choice(rng, allowed))
        return True

    assert _all_in_threads(run)


def test_shared_graph_stays_exact_under_threads(fixture_registry, golden_examples, monkeypatch):
    # eight threads project, decode and mask on one automaton and one index
    # while an 8-node bound clears the automaton's graph often; every
    # projection and every mask equals the one on a fresh automaton
    monkeypatch.setattr("chainplan.enforcer._GRAPH_SIZE", 8)
    rng = random.Random(31)
    texts = [_corrupt(rng, ex.gold_text) for ex in golden_examples for _ in range(3)]
    expected = [enforced_repair(compile_schema(fixture_registry), text) for text in texts]
    pieces = [[ex.gold_text[i:i + 4] for i in range(0, len(ex.gold_text), 4)] for ex in golden_examples[:3]]
    vocab = sorted({piece for plan in pieces for piece in plan}) + ["\u00e9", '"}', "zz"]

    def masks(automaton, index, plan):
        session = DecoderSession(automaton, index)
        found = []
        for piece in plan:
            found.append(session.mask_vocabulary(vocab))
            session.advance(piece)
        return found

    expected_masks = [masks(compile_schema(fixture_registry), TokenIndex(vocab), plan) for plan in pieces]
    shared, index = compile_schema(fixture_registry), TokenIndex(vocab)

    def run(seed):
        order, plans = list(range(len(texts))), list(range(len(pieces)))
        random.Random(seed).shuffle(order)
        random.Random(seed).shuffle(plans)
        return (all(enforced_repair(shared, texts[k]) == expected[k] for k in order)
                and all(masks(shared, index, pieces[k]) == expected_masks[k] for k in plans))

    assert _all_in_threads(run)


def test_a_dropped_automaton_is_released_by_the_index_it_masked(fixture_registry):
    # a string state's quoted-token table is kept on the automaton's graph,
    # not in the shared index, so the index holds no automaton
    import gc
    import weakref

    index = vocabulary_index(['"', '",', "a", '"}]'])
    automaton = compile_schema(fixture_registry)
    session = DecoderSession(automaton, index).advance(
        '[{"tool_name":"search_object_by_name","arguments":[{"argument_name":"query","argument_value":"')
    assert session.mask_vocabulary(['"', '",', "a", '"}]']) == [True, False, True, True]
    released = weakref.ref(automaton)
    del automaton, session
    gc.collect()
    assert released() is None
