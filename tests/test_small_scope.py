"""The plan language against the validator, every plan of a small scope counted.

"Schema-valid means cannot hallucinate" is a claim about two sets: the plans
the plan automaton accepts and the plans ``validate_plan`` finds no error in.
Over a small enough scope both can be listed in full (the small-scope
hypothesis; bounded-exhaustive enumeration as in SmallCheck), so the gap
between them is an exact count rather than a sample.

The scope is the fixture's nine tools without operators, and plans of one or
two calls. A call writes a subset of its tool's arguments in name order, and
``works_list`` writes at most one of its five optional arguments. A value is
one literal of the argument's type, "a", 1 or {} inside ``depth``
one-element arrays, or ``$$PREV[i]``, bare or in a one-element array.

The counts are pinned. At a fixed scope the accepted count may only fall as
the language learns to refuse what the validator finds; a change that lowers
it resets the pin and names the findings it removed. Recall, every valid plan
accepted, must stay 1.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from chainplan.enforcer import compile_schema
from chainplan.plan import Plan, PrevRef, ToolCall, serialize_plan
from chainplan.typegraph import validate_plan

_LITERALS = {"string": "a", "integer": 1}


def _literal(value_type):
    value = {} if value_type.kind == "object" else _LITERALS[value_type.name]
    for _ in range(value_type.depth):
        value = (value,)
    return value


def _calls(spec, indices):
    """Every call of ``spec`` in the scope, with references to ``indices``."""
    arguments = sorted(spec.arguments, key=lambda arg: arg.name)
    most = 1 if spec.name == "works_list" else len(arguments)
    choices = [
        [_literal(arg.value_type)] + [ref for i in indices for ref in (PrevRef(i), (PrevRef(i),))]
        for arg in arguments
    ]
    for size in range(most + 1):
        for picked in itertools.combinations(range(len(arguments)), size):
            for values in itertools.product(*(choices[i] for i in picked)):
                yield ToolCall(spec.name, tuple((arguments[i].name, value) for i, value in zip(picked, values)))


def _plans(registry, indices_of):
    """Every plan of one or two calls; ``indices_of(length)`` gives the
    reference indices a plan of that length may write."""
    for length in (1, 2):
        calls = [call for spec in registry.tools.values() for call in _calls(spec, indices_of(length))]
        for chosen in itertools.product(calls, repeat=length):
            yield Plan(chosen)


def _count(registry, indices_of):
    automaton = compile_schema(registry)
    start = automaton.node(automaton.initial_state)
    plans = accepted = valid = valid_accepted = 0
    kinds: Counter[str] = Counter()
    for plan in _plans(registry, indices_of):
        text = serialize_plan(plan)
        node, i = automaton.walk(start, text)
        is_accepted = i == len(text) and automaton.accepting(node[None])
        errors = {diag.kind for diag in validate_plan(plan, registry) if diag.is_error}
        plans += 1
        accepted += is_accepted
        valid += not errors
        valid_accepted += is_accepted and not errors
        if is_accepted:
            kinds.update(errors)
    return plans, accepted, valid, valid_accepted, dict(kinds)


@pytest.mark.parametrize("indices_of, counts", [
    (range, (8890, 8890, 312, 312,
             {"bad_reference": 7680, "incompatible": 3056, "missing_required": 2764})),
    (lambda length: range(3), (20306, 20306, 312, 312,
                               {"bad_reference": 19096, "incompatible": 5596, "missing_required": 5300})),
], ids=["references-below-the-length", "references-0-to-2"])
def test_small_scope_counts_are_pinned(fixture_registry, indices_of, counts):
    assert _count(fixture_registry, indices_of) == counts
