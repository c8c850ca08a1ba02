"""Vocabulary masks walked over the token index equal flat per-token peeks."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from chainplan.enforcer import DecoderSession, TokenIndex, _Automaton, _Trie, compile_schema, compile_subtask_schema
from chainplan.registry import fixture_tools_path, load_registry

from conftest import random_registry

_FIXTURE = load_registry(fixture_tools_path())
_AUTOMATA = {
    "fixture": compile_schema(_FIXTURE),
    "subtask": compile_subtask_schema(_FIXTURE.tools),
}
# Text that leaves each automaton inside an empty string value.
_STRING_OPENERS = {
    "fixture": '[{"tool_name":"search_object_by_name","arguments":[{"argument_name":"query","argument_value":"',
    "subtask": '[{"id":0,"thought":"',
}
# Structural and value characters of both automata, plus characters neither accepts.
_ALPHABET = '[]{}",:\\/$PREV0123456789.-_ abefilnorstuwxy' + "é☃\n\x00"
_LONG = 300  # longer than the index's shared-prefix cap
_LAST_CHAR = chr(0x10FFFF)  # the one character without a successor
_LONG_STRING = 600  # characters of a long open string, well past the index's longest token

_tokens = st.text(alphabet=_ALPHABET, max_size=8)


def _walk(session: DecoderSession, rng: random.Random, steps: int) -> None:
    for _ in range(steps):
        allowed = session.automaton.allowed(session.state)
        if not allowed:
            return
        session.advance(rng.choice(sorted(allowed)))


@st.composite
def sessions(draw) -> DecoderSession:
    """A session of the fixture plan automaton, the sub-task automaton or a
    random registry's plan automaton, in a random-walk state or (fixed
    automata) in a string state after ``_LONG_STRING`` characters, plain,
    after a backslash or inside ``\\u``."""
    kind = draw(st.sampled_from(("fixture", "subtask", "random")))
    if kind == "random":
        automaton = compile_schema(random_registry(random.Random(draw(st.integers(0, 2**32 - 1)))))
    else:
        automaton = _AUTOMATA[kind]
    session = DecoderSession(automaton)
    if kind != "random" and draw(st.booleans()):
        session.advance(_STRING_OPENERS[kind] + "a" * _LONG_STRING)
        session.advance(draw(st.sampled_from(("", "\\", "\\u0"))))
    else:
        _walk(session, random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(0, 80)))
    return session


@st.composite
def vocabularies(draw) -> list[str]:
    """Short random tokens; families with a long shared stem; large families
    under a short, often rejected, head and under the head's successor, where
    a jump past the head's family lands; tokens with U+10FFFF after nothing,
    the head or the stem; tokens longer than the shared-prefix cap, one of
    them ending in a character no state accepts, rejected before, at or past
    the cap; the empty token, a quote and a backslash; duplicates; all
    shuffled."""
    vocab = draw(st.lists(_tokens, max_size=40))
    stem = draw(st.text(alphabet=_ALPHABET, min_size=3, max_size=12))
    vocab += [stem + tail for tail in draw(st.lists(_tokens, max_size=6))]
    head = draw(st.text(alphabet=_ALPHABET, min_size=1, max_size=2))
    after = head[:-1] + chr(ord(head[-1]) + 1)
    vocab += [prefix + tail for prefix in (head, after)
              for tail in draw(st.lists(_tokens, min_size=10, max_size=40))]
    vocab += [before + _LAST_CHAR + tail for before in ("", head, stem)
              for tail in draw(st.lists(_tokens, max_size=3))]
    fill = draw(st.sampled_from('a"\\:'))
    vocab += [fill * _LONG + tail for tail in ["\x00", *draw(st.lists(_tokens, max_size=8))]]
    vocab += ["", '"', "\\"]
    vocab += draw(st.lists(st.sampled_from(vocab), max_size=5))
    return draw(st.permutations(vocab))


def _flat(session: DecoderSession, vocab: list[str]) -> list[bool]:
    return [session.peek(token) for token in vocab]


@settings(max_examples=150, deadline=None)
@given(session=sessions(), vocab=vocabularies())
# No tool name starts with "v", some with "w" and "s": the walk must not jump
# past the "w" family, and must step over the tokens under "s" + U+10FFFF.
@example(session=DecoderSession(_AUTOMATA["fixture"]).advance('[{"tool_name":"'),
         vocab=["v", "vx", "w", "wh", "who", "s" + _LAST_CHAR, "s" + _LAST_CHAR + "x", "x"])
# Rejected past the shared-prefix cap, with an accepted sibling.
@example(session=DecoderSession(_AUTOMATA["subtask"]).advance(_STRING_OPENERS["subtask"]),
         vocab=["a", "a" * _LONG + "\x00", "a" * _LONG + "\x00b", "a" * _LONG + "b"])
def test_mask_equals_flat_peek(session, vocab):
    session.index = TokenIndex(vocab)
    state, emitted = session.state, session.emitted
    assert session.mask_vocabulary(vocab) == _flat(session, vocab)
    assert (session.state, session.emitted) == (state, emitted)


@settings(max_examples=60, deadline=None)
@given(session=sessions(), vocab=vocabularies(), data=st.data())
def test_mask_equals_flat_peek_as_candidates_change(session, vocab, data):
    # the session masks through an index of ``vocab``; later calls mix
    # indexed tokens with tokens outside the index, from states further
    # along the walk
    session.index = TokenIndex(vocab)
    assert session.mask_vocabulary(vocab) == _flat(session, vocab)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(4):
        _walk(session, rng, data.draw(st.integers(0, 3)))
        candidates = data.draw(st.lists(st.one_of(st.sampled_from(vocab), _tokens), max_size=30))
        assert session.mask_vocabulary(candidates) == _flat(session, candidates)


def test_token_index_is_sorted_distinct_with_capped_shared_prefixes():
    index = TokenIndex(["ab", "", "abc", "ab", "b", "x" * _LONG, "x" * (_LONG + 1)])
    assert index.tokens == ["", "ab", "abc", "b", "x" * _LONG, "x" * (_LONG + 1)]
    assert list(index.shared) == [0, 0, 2, 0, 0, 255]
    assert list(index.rejected.items()) == [(token, False) for token in index.tokens]


def test_copy_shares_the_index_and_masks_from_its_own_state():
    vocab = ["ho_am_i", "orks_list", "xyz", '"']
    session = DecoderSession(_AUTOMATA["fixture"], TokenIndex(vocab)).advance('[{"tool_name":"w')
    assert session.mask_vocabulary(vocab) == [True, True, False, False]
    dup = session.copy().advance("ho_am_i")
    assert dup.index is session.index
    assert dup.mask_vocabulary(vocab) == [False, False, False, True]
    assert session.mask_vocabulary(vocab) == [True, True, False, False]


# String openers in three places: a sub-task thought, a plan string argument
# and an element of an array-of-string argument.
_PLACES = {
    "thought": ("subtask", _STRING_OPENERS["subtask"]),
    "string argument": ("fixture", _STRING_OPENERS["fixture"]),
    "array of string": ("fixture", '[{"tool_name":"works_list","arguments":'
                                   '[{"argument_name":"owned_by","argument_value":["'),
}
_REACH = 8
# A body token, one that closes the string on its last character and one that
# closes it and continues; all ``_REACH`` long.
_EDGE_VOCAB = ["a" * _REACH, "a" * (_REACH - 1) + '"', '","' + "a" * (_REACH - 3)]
# Tokens outside an index of ``_EDGE_VOCAB``, longer than any token in it:
# body characters, a closed string, an escape and a ``\u`` escape's rest.
_BEYOND_REACH = ["a" * (_REACH + 1), "a" * _REACH + '"', "n" + "a" * _REACH, "00" + "a" * _REACH]


@pytest.mark.parametrize("place", sorted(_PLACES))
def test_mask_at_the_shape_reuse_boundary_equals_flat_peek(place):
    # a string state reuses the tables of its shape at any length: after an
    # empty and a long run of characters, one index serves both, and tokens
    # outside it are peeked from the state
    kind, opener = _PLACES[place]
    session = DecoderSession(_AUTOMATA[kind], TokenIndex(_EDGE_VOCAB))
    session.advance(opener)
    for run in ("", "a" * _LONG_STRING):
        session.advance(run)
        for escape in ("", "\\", "\\u0"):
            at = session.copy().advance(escape)
            assert at.mask_vocabulary(_EDGE_VOCAB) == _flat(at, _EDGE_VOCAB)
            candidates = _EDGE_VOCAB + _BEYOND_REACH
            assert at.mask_vocabulary(candidates) == _flat(at, candidates)


@pytest.mark.parametrize("place", sorted(_PLACES))
@pytest.mark.parametrize("inside", [True, False], ids=["reused shape", "walked state"])
def test_masks_are_fresh_lists_of_bools(place, inside):
    # from the string opened in ``place`` (a table kept per shape) or from
    # the state before its quote (a table walked per call)
    kind, opener = _PLACES[place]
    session = DecoderSession(_AUTOMATA[kind], TokenIndex(_EDGE_VOCAB)).advance(opener if inside else opener[:-1])
    session.mask_vocabulary(_EDGE_VOCAB)
    candidates = _EDGE_VOCAB + _BEYOND_REACH + ['"', "zz"]
    mask = session.mask_vocabulary(candidates)
    assert all(type(ok) is bool for ok in mask)
    assert mask == _flat(session, candidates)
    mask[:] = [not ok for ok in mask]
    assert session.mask_vocabulary(candidates) == _flat(session, candidates)


class _CountingTransitions:
    """An automaton that counts its ``transition`` calls, stepped through a
    transition graph of its own, which also keeps its next-character sets."""

    node, successor, walk, allowed = _Automaton.node, _Automaton.successor, _Automaton.walk, _Automaton.allowed

    def __init__(self, automaton):
        self._automaton = automaton
        self._graph = {}
        self.initial_state = automaton.initial_state
        self.calls = 0

    def transition(self, state, ch):
        self.calls += 1
        return self._automaton.transition(state, ch)


@pytest.mark.parametrize("place", sorted(_PLACES))
def test_string_masks_reuse_the_walk_of_their_shape(place, monkeypatch):
    kind, opener = _PLACES[place]
    automaton = _CountingTransitions(_AUTOMATA[kind])
    vocab = _EDGE_VOCAB + ['"', "\\", "\\u", "é"]
    index = TokenIndex(vocab)
    session = DecoderSession(automaton, index).advance(opener)
    session.mask_vocabulary(vocab)  # walks the shape of a plain string state
    session.copy().advance("\\").mask_vocabulary(vocab)  # and of one after a backslash
    walks = []
    walk = _Trie._walk
    monkeypatch.setattr(_Trie, "_walk", lambda trie, *args: walks.append(trie) or walk(trie, *args))
    for text in ("a", "bc", "\\n", "\\u00e9"):
        session.advance(text)
        for at in (session, session.copy().advance("\\")):
            # kept edges would hide a walk repeated over the graph, so each
            # count starts from a cleared graph: a node made after a clear
            # walks only the quoted tokens from its state, reusing the body
            # table of its shape
            automaton._graph.clear()
            automaton.calls = 0
            index.quoted._walk(automaton, automaton.node(at.state), index.quoted.rejected.copy())
            quoted_calls = automaton.calls
            automaton._graph.clear()
            at.node = automaton.node(at.state)
            automaton.calls = 0
            mask = at.mask_vocabulary(vocab)
            assert automaton.calls == quoted_calls > 0
            # the node keeps its table: masked again, it walks nothing
            automaton._graph.clear()
            automaton.calls = 0
            walks.clear()
            assert at.mask_vocabulary(vocab) == mask
            assert automaton.calls == 0 and walks == []
            assert mask == _flat(at, vocab)


def _opening(value_type):
    """Text that opens a string inside a value of ``value_type``: the value
    itself, an element of an array, an object member's value, or None."""
    if value_type.is_list:
        inner = _opening(value_type.element)
        return None if inner is None else "[" + inner
    if value_type.kind == "object":
        return '{"k":"'
    return '"' if value_type.name == "string" else None


def _string_openers(registry) -> list[tuple[str, str]]:
    """(opening, text) that leaves a plan of ``registry`` inside a string,
    for each argument with a string place."""
    openers = []
    for name in sorted(registry.tools):
        for arg in registry.tools[name].arguments:
            opening = _opening(arg.value_type)
            if opening is not None:
                openers.append((opening, f'[{{"tool_name":"{name}","arguments":[{{"argument_name":'
                                         f'"{arg.name}","argument_value":{opening}'))
    return openers


# Quotes in every role: closing alone, closing then structure or a tool name,
# escaped, after an escaped backslash; an escape and a ``\u`` escape in
# pieces; body text and tokens that no string state accepts.
_SHARED_VOCAB = ['"', '",', '"}', '"]', '"},{"', '"}]}]', '","thought":"', '","tool_name":"who',
                 '","tool_name":"tool0"}', '\\"', '\\\\"', "\\", "\\u", "u00", "00e9", 'e9"',
                 "a", "ab c", "é", "\x00", "", "}", "]", ",", '"$$PREV[', "0]"]
# After the opener: inside the string, after a backslash, at each digit of a
# ``\u`` escape, after an escaped quote or backslash, and just closed.
_SUFFIXES = ("", "a", "\\", "\\u", "\\u0", "\\u00", "\\u00e", '\\"', "\\\\", 'a"')


def test_one_index_serves_interleaved_automata():
    # the fixture plan automaton, a random registry's plan automaton and the
    # sub-task automata of both registries mask in turn through one index,
    # from string states in every string place and the states around them;
    # the sub-task automata reach equal states that close into different names
    registry = random_registry(random.Random(0))
    random_places = _string_openers(registry)
    assert {opening for opening, _ in random_places} == {'"', '["', '{"k":"', '[{"k":"'}
    places = {
        _AUTOMATA["subtask"]: [('"', _STRING_OPENERS["subtask"])],
        compile_subtask_schema(registry.tools): [('"', _STRING_OPENERS["subtask"])],
        _AUTOMATA["fixture"]: _string_openers(_FIXTURE),
        compile_schema(registry): random_places,
    }
    index = TokenIndex(_SHARED_VOCAB)
    sessions = [DecoderSession(automaton, index).advance(opener + suffix)
                for automaton, openers in places.items()
                for _, opener in openers
                for suffix in _SUFFIXES]
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(sessions)
        for session in sessions:
            assert session.mask_vocabulary(_SHARED_VOCAB) == _flat(session, _SHARED_VOCAB)
            _walk(session, rng, 1)
