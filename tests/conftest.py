"""Shared fixtures and seeded generators for the test suite."""

from __future__ import annotations

import random

import pytest

from chainplan.datasets import GoldenExample, load_golden_dataset
from chainplan.plan import CANONICAL_JSON, Plan, PrevRef, ToolCall
from chainplan.registry import (
    ArgSpec,
    Registry,
    ToolSpec,
    fixture_tools_path,
    list_of,
    load_registry,
    object_type,
    primitive,
)

GOLDEN_PATH = fixture_tools_path().parent / "golden_dataset.jsonl"


@pytest.fixture(scope="session")
def fixture_registry() -> Registry:
    return load_registry(fixture_tools_path())


@pytest.fixture(scope="session")
def golden_examples(fixture_registry) -> list[GoldenExample]:
    return load_golden_dataset(GOLDEN_PATH)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

_TYPE_POOL = (
    primitive("string"),
    primitive("integer"),
    primitive("float"),
    primitive("boolean"),
    object_type("Alpha"),
    object_type("Beta"),
    list_of(primitive("string")),
    list_of(object_type("Alpha")),
)


def random_registry(rng: random.Random, max_tools: int = 8, type_pool: tuple = _TYPE_POOL) -> Registry:
    count = rng.randint(1, max_tools)
    specs = []
    for i in range(count):
        args = tuple(
            ArgSpec(
                name=f"arg{j}",
                description=f"argument {j}",
                value_type=rng.choice(type_pool),
                required=rng.random() < 0.5,
            )
            for j in range(rng.randint(0, 3))
        )
        specs.append(
            ToolSpec(
                name=f"tool{i}",
                description=f"synthetic tool {i}",
                arguments=args,
                returns=rng.choice(type_pool),
            )
        )
    return Registry.from_tools(specs)


def random_literal(rng: random.Random):
    choice = rng.randint(0, 4)
    if choice == 0:
        return rng.randint(-1000, 1000)
    if choice == 1:
        return round(rng.uniform(-10, 10), 3)
    if choice == 2:
        return rng.random() < 0.5
    if choice == 3:
        return f"value-{rng.randint(0, 99)}"
    return {"key": f"k{rng.randint(0, 9)}", "count": rng.randint(0, 9)}


def random_arg_value(rng: random.Random, position: int):
    roll = rng.random()
    if roll < 0.3 and position > 0:
        ref = PrevRef(rng.randrange(position))
        return (ref,) if rng.random() < 0.5 else ref
    if roll < 0.45:
        items = tuple(random_literal(rng) for _ in range(rng.randint(0, 3)))
        if position > 0 and rng.random() < 0.4:
            items = items + (PrevRef(rng.randrange(position)),)
        return items
    return random_literal(rng)


def random_plan(rng: random.Random, tool_names: tuple[str, ...] | None = None,
                max_calls: int = 6) -> Plan:
    """Structurally valid plan: backward references only, no prev-shaped
    string literals (so parse/serialize round-trips are exact)."""
    names = tool_names or tuple(f"tool{i}" for i in range(6))
    calls = []
    for position in range(rng.randint(0, max_calls)):
        args = tuple(
            (f"arg{j}", random_arg_value(rng, position))
            for j in range(rng.randint(0, 3))
        )
        calls.append(ToolCall(tool_name=rng.choice(names), arguments=args))
    return Plan(calls=tuple(calls))


# ---------------------------------------------------------------------------
# Replay authoring: assemble the exact prompts a pipeline will send and map
# their fingerprints to scripted stage outputs.
# ---------------------------------------------------------------------------

def subtasks_for(example: GoldenExample) -> str:
    return CANONICAL_JSON.encode([
        {"id": i, "thought": f"Step {i}: use {tool}", "tool_name": tool}
        for i, tool in enumerate(example.gold.tool_sequence)
    ])


def enchant_replay_entries(example: GoldenExample, ctx, config,
                           recompose_text: str | None = None) -> list[tuple[str, str]]:
    from chainplan.llm import fingerprint
    from chainplan.pipelines import assemble_decompose_prompt, assemble_recompose_prompt
    from chainplan.retrieval import retrieve_top_k

    retrieved = retrieve_top_k(example.query, ctx.tool_corpus, ctx.provider, config.k)
    names = [name for name, _ in retrieved]
    subtask_text = subtasks_for(example)
    decompose_prompt = assemble_decompose_prompt(example.query, names, ctx.registry, config)
    recompose_prompt = assemble_recompose_prompt(example.query, subtask_text, names, ctx.registry, config)
    return [
        (fingerprint(decompose_prompt), subtask_text),
        (fingerprint(recompose_prompt), recompose_text or example.gold_text),
    ]


def regains_replay_entries(example: GoldenExample, ctx, config,
                           response_text: str | None = None) -> list[tuple[str, str]]:
    from chainplan.llm import fingerprint
    from chainplan.pipelines import assemble_rap_prompt

    prompt, _, _ = assemble_rap_prompt(example.query, ctx, config)
    return [(fingerprint(prompt), response_text or example.gold_text)]
