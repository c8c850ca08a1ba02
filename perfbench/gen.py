"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` built from the run's seed, so
the same seed gives the same inputs. The properties that set the engine's cost
are fixed multisets that do not depend on the seed: the registry's return and
argument types and argument counts, the corruption mix, the vocabulary's token
lengths, and the eval set's plan lengths and perturbation kinds. The seed picks
names, words, literals, corruption sites and order. This keeps the work of a
run the same across seeds, so seeds can be compared.

Nothing here imports ``chainplan``; plans are handled in their JSON wire form.
"""

from __future__ import annotations

import json
import random
import re

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
PREV_REF = re.compile(r"^\$\$PREV\[(\d+)\]$")

# Argument names that occur in the bundled fixture registry.
FIXTURE_ARG_NAMES = (
    "owned_by", "issue_priority", "ticket_severity", "type", "limit", "objects",
    "work_items", "sprint_id", "work_id", "query", "text",
)

_STR = "string"
_INT = "integer"
_BOOL = "boolean"
_STRS = "array of string"
_ITEMS = "array of object:WorkItem"
_SUMMARIES = "array of object:Summary"

# One block of ten synthetic tool shapes: (return type, ((argument type,
# required), ...)). All types come from the fixture's vocabulary. Repeating
# the block gives every registry size the same type multiset, hence the same
# type-graph edge count and build work.
TOOL_SHAPES = (
    (_ITEMS, ()),
    (_ITEMS, ((_STR, True),)),
    (_ITEMS, ((_STRS, False), (_STR, False), (_INT, False))),
    (_SUMMARIES, ((_ITEMS, True),)),
    (_SUMMARIES, ((_ITEMS, True), (_STR, False))),
    (_BOOL, ((_ITEMS, True), (_STR, True))),
    (_BOOL, ((_STR, True),)),
    (_STR, ()),
    (_STR, ((_STR, True), (_BOOL, False))),
    (_INT, ((_STRS, False), (_INT, False))),
)


def word(rng: random.Random, syllables: int = 2) -> str:
    """A pronounceable lowercase pseudo-word."""
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))


def sentence(rng: random.Random, words: int) -> str:
    text = " ".join(word(rng, rng.randint(1, 3)) for _ in range(words))
    return text[0].upper() + text[1:]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def synthetic_registry(rng: random.Random, fixture_tools: list[dict], size: int) -> list[dict]:
    """Tool documents in the registry wire format: the fixture tools plus
    ``size - len(fixture_tools)`` synthetic tools cycled through TOOL_SHAPES,
    with seeded names and descriptions, in seeded order."""
    taken = {tool["tool_name"] for tool in fixture_tools}
    tools = [dict(tool) for tool in fixture_tools]
    for i in range(size - len(fixture_tools)):
        returns, args = TOOL_SHAPES[i % len(TOOL_SHAPES)]
        name = f"{word(rng)}_{word(rng)}_{word(rng, 1)}"
        while name in taken:
            name = f"{word(rng)}_{word(rng)}_{word(rng, 1)}"
        taken.add(name)
        arg_names = rng.sample(FIXTURE_ARG_NAMES, len(args))
        tools.append({
            "tool_name": name,
            "tool_description": sentence(rng, 10),
            "arguments": [
                {
                    "argument_name": arg_name,
                    "argument_description": sentence(rng, 6),
                    "argument_type": arg_type,
                    "required": required,
                }
                for arg_name, (arg_type, required) in zip(arg_names, args)
            ],
            "return_type": returns,
        })
    rng.shuffle(tools)
    return tools


# ---------------------------------------------------------------------------
# Queries and model responses for the single-call pipeline
# ---------------------------------------------------------------------------

_LEADS = ("", "Please ", "Could you ", "I need you to ", "Go ahead and ", "Quickly ")


def query_variant(rng: random.Random, query: str, serial: int) -> str:
    """A distinct rewording of a golden query: a seeded lead-in and a
    trailing context clause that carries the serial number."""
    lead = rng.choice(_LEADS)
    body = query[0].lower() + query[1:] if lead else query
    return f"{lead}{body} for the {word(rng)} {word(rng)} team, request {serial}"


# Per 100 single-call responses: the mix of the hallucination-elimination
# acceptance test (12 trailing commas, 15 fabricated names, 3 mis-wrapped
# references), the rest clean.
CORRUPTION_BLOCK = ("invalid_json",) * 12 + ("fabricated",) * 15 + ("miswrapped",) * 3 + ("clean",) * 70


def has_refs(gold: list[dict]) -> bool:
    return any(_refs_in(arg["argument_value"]) for call in gold for arg in call["arguments"])


def _refs_in(value) -> bool:
    if isinstance(value, str):
        return bool(PREV_REF.match(value))
    if isinstance(value, list):
        return any(isinstance(v, str) and PREV_REF.match(v) for v in value)
    return False


def plan_text(plan: list[dict]) -> str:
    """Canonical plan text: compact separators, ASCII only."""
    return json.dumps(plan, separators=(",", ":"), ensure_ascii=True)


def corrupt_response(rng: random.Random, gold: list[dict], kind: str, avoid: set[str]) -> str:
    """The model's answer for one query: the gold plan text, damaged as
    ``kind`` says. Fabricated names are seeded pseudo-words that are not in
    ``avoid``; the damaged calls and the mis-wrapped reference are seeded."""
    if kind == "clean":
        return plan_text(gold)
    if kind == "invalid_json":
        return plan_text(gold)[:-1] + ",]"
    plan = json.loads(plan_text(gold))
    if kind == "fabricated":
        victims = [i for i in range(len(plan)) if rng.random() < 0.5] or [rng.randrange(len(plan))]
        for i in victims:
            plan[i]["tool_name"] = _fabricate(rng, plan[i]["tool_name"], avoid)
            for arg in plan[i]["arguments"]:
                if rng.random() < 0.3:
                    arg["argument_name"] = _fabricate(rng, arg["argument_name"], avoid)
        return plan_text(plan)
    if kind == "miswrapped":
        sites = [arg for call in plan for arg in call["arguments"] if _refs_in(arg["argument_value"])]
        arg = rng.choice(sites)
        value = arg["argument_value"]
        arg["argument_value"] = value[0] if isinstance(value, list) else [value]
        return plan_text(plan)
    raise ValueError(f"unknown corruption kind {kind!r}")


def _fabricate(rng: random.Random, name: str, avoid: set[str]) -> str:
    fake = f"{word(rng)}_{name}"
    while fake in avoid:
        fake = f"{word(rng)}_{name}"
    return fake


# ---------------------------------------------------------------------------
# Token-level decoding scripts and the synthetic vocabulary
# ---------------------------------------------------------------------------

_PUNCTUATION = (
    "[", "]", "{", "}", ",", ":", '"', '":', '",', '"}', "}]", "},", "[{", '{"', '":"', '"]', '["',
    '":["', '"],', "]}", "]}]", "$$", "$$PREV", "PREV", "[$$", '"$$PREV[', "_", "__", ".", "-",
    "tool", "_name", "argument", "_value", "thought", "id", "true", "false", " ", "  ",
)


# Word-piece lengths, cycled; four leads cycled per sixteen pieces.
_PIECE_LENGTHS = (2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 3, 4)
_PIECE_LEADS = ("", " ", "_", " ")


def synthetic_vocabulary(rng: random.Random, size: int = 8192) -> list[str]:
    """A seeded, fixed-order token vocabulary of ``size`` distinct tokens:
    JSON punctuation, every single letter and one- or two-digit numeral, and
    word pieces whose length and leading-character multiset does not depend
    on the seed.

    It is synthetic: no real tokenizer vocabulary is available offline."""
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    tokens = list(_PUNCTUATION) + letters + [" " + c for c in letters] + [str(n) for n in range(100)]
    seen = set(tokens)
    i = 0
    while len(tokens) < size:
        lead = _PIECE_LEADS[(i // len(_PIECE_LENGTHS)) % len(_PIECE_LEADS)]
        length = _PIECE_LENGTHS[i % len(_PIECE_LENGTHS)]
        piece = lead + "".join(rng.choice(_CONSONANTS + _VOWELS) for _ in range(length))
        if piece not in seen:
            seen.add(piece)
            tokens.append(piece)
            i += 1
    rng.shuffle(tokens)
    return tokens


def cut_pieces(rng: random.Random, text: str) -> list[str]:
    """``text`` cut into seeded pieces of 1 to 4 characters."""
    pieces = []
    i = 0
    while i < len(text):
        n = rng.randint(1, 4)
        pieces.append(text[i : i + n])
        i += n
    return pieces


# Decode steps fall into two cost modes: string and name states test most
# tokens of the vocabulary deeply and cost several times more than structural
# states, which reject most tokens at the first character. Forty-word
# thoughts make the costly steps about 70% of all steps, so the median step
# lies inside the costly mode. With ten or twenty words the median sat on or
# near the sparse stretch between the modes and jumped from seed to seed.
THOUGHT_WORDS = 40


def subtask_script(rng: random.Random, gold: list[dict]) -> str:
    """Decomposition text in the sub-task wire format: one THOUGHT_WORDS-word
    thought per gold call."""
    doc = [
        {"id": i, "thought": sentence(rng, THOUGHT_WORDS), "tool_name": call["tool_name"]}
        for i, call in enumerate(gold)
    ]
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


# ---------------------------------------------------------------------------
# Evaluation pairs
# ---------------------------------------------------------------------------

# Per block of 100 records: the plan-length multiset. Most plans have one to
# five calls like the fixture; a tail reaches 24 calls. Record cost rises in
# steps with length, so the groups are sized to put each reported percentile
# inside a group rather than on a step between two: with the cheap invalid
# JSON records first, the median falls about halfway into the group of length
# 3 and the 95th percentile inside the group of length 18.
LENGTH_BLOCK = (
    (1,) * 16 + (2,) * 20 + (3,) * 18 + (4,) * 14 + (5,) * 12
    + (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16) + (18,) * 5 + (21,) * 1 + (24,) * 2
)

# Perturbation kinds for the short plans (80 per block) and the tail (20 per
# block). Invalid JSON stays among the short plans so that a seed never turns
# a long, costly record into a cheap unparsed one.
HEAD_KINDS = ("identity",) * 30 + ("drop",) * 7 + ("insert",) * 7 + ("swap",) * 7 + (
    "literal",) * 9 + ("fabricate",) * 10 + ("invalid_json",) * 10
TAIL_KINDS = ("identity",) * 8 + ("drop",) * 2 + ("insert",) * 3 + ("swap",) * 3 + (
    "literal",) * 2 + ("fabricate",) * 2


def _literal(rng: random.Random, arg_type: str):
    if arg_type == _STR:
        return f"{word(rng)} {word(rng)}"
    if arg_type == _INT:
        return rng.randint(1, 500)
    if arg_type == _BOOL:
        return rng.random() < 0.5
    if arg_type == _STRS:
        return [f"{word(rng).upper()}-{rng.randint(1, 99)}"]
    return [f"ITEM-{rng.randint(100, 999)}"]


def gold_plan(rng: random.Random, tools: list[dict], length: int, start: int) -> list[dict]:
    """A plan of ``length`` fixture calls: ``length`` consecutive tools of the
    fixture, cycled from ``start``, in seeded order. Every required
    argument and every optional argument at an even index is filled, from an
    earlier call whose return type feeds it when one exists (bare for an exact
    type match, array-wrapped for a list of that type), else with a literal.
    References only point backwards, so the plan executes.

    The scoring cost grows with the square of a plan's token count, so the
    tool multiset and arguments are fixed this way rather than drawn at
    random, which would let the seed set the long tail's token counts and
    with them the 95th-percentile record latency."""
    picked = [tools[(start + i) % len(tools)] for i in range(length)]
    rng.shuffle(picked)
    plan: list[dict] = []
    returns: list[str] = []
    for position, tool in enumerate(picked):
        args = []
        for index, arg in enumerate(tool["arguments"]):
            arg_type = arg["argument_type"]
            if not arg["required"] and index % 2:
                continue
            direct = [i for i in range(position) if returns[i] == arg_type]
            wrapped = [i for i in range(position) if arg_type == f"array of {returns[i]}"]
            if direct and rng.random() < 0.8:
                value = f"$$PREV[{rng.choice(direct)}]"
            elif wrapped and rng.random() < 0.8:
                value = [f"$$PREV[{rng.choice(wrapped)}]"]
            else:
                value = _literal(rng, arg_type)
            args.append({"argument_name": arg["argument_name"], "argument_value": value})
        plan.append({"tool_name": tool["tool_name"], "arguments": args})
        returns.append(tool["return_type"])
    return plan


def perturb(rng: random.Random, gold: list[dict], kind: str, tools: list[dict]) -> str:
    """Prediction text derived from ``gold`` by one seeded perturbation."""
    plan = json.loads(plan_text(gold))
    if kind == "identity":
        pass
    elif kind == "drop":
        if len(plan) > 1:
            del plan[rng.randrange(len(plan))]
    elif kind == "insert":
        extra = rng.choice([t for t in tools if not t["arguments"]])
        plan.insert(rng.randint(0, len(plan)), {"tool_name": extra["tool_name"], "arguments": []})
    elif kind == "swap":
        if len(plan) > 1:
            i, j = rng.sample(range(len(plan)), 2)
            plan[i], plan[j] = plan[j], plan[i]
    elif kind == "literal":
        sites = [arg for call in plan for arg in call["arguments"] if not _refs_in(arg["argument_value"])]
        if sites:
            rng.choice(sites)["argument_value"] = f"{word(rng)} {word(rng)}"
        else:
            plan[-1]["arguments"].append({"argument_name": "limit", "argument_value": rng.randint(1, 9)})
    elif kind == "fabricate":
        call = rng.choice(plan)
        call["tool_name"] = f"{word(rng)}_{call['tool_name']}"
    elif kind == "invalid_json":
        text = plan_text(plan)
        return text[: rng.randrange(1, len(text))]
    else:
        raise ValueError(f"unknown perturbation {kind!r}")
    return plan_text(plan)


def eval_pairs(rng: random.Random, tools: list[dict], blocks: int = 2) -> list[tuple[list[dict], str, str]]:
    """(gold plan, prediction text, perturbation kind) triples: ``blocks``
    blocks of 100 records with LENGTH_BLOCK lengths, in seeded order.

    Which perturbation and which first tool go with each length is drawn
    from a fixed generator, not from ``rng``: with them drawn per seed, the
    median record's token count, and with it the median record latency,
    moved by a tenth from seed to seed."""
    layout = random.Random("eval-layout")
    records = []
    for _ in range(blocks):
        head_kinds = layout.sample(HEAD_KINDS, len(HEAD_KINDS))
        tail_kinds = layout.sample(TAIL_KINDS, len(TAIL_KINDS))
        for length in sorted(LENGTH_BLOCK):
            kind = head_kinds.pop() if length <= 5 else tail_kinds.pop()
            gold = gold_plan(rng, tools, length, layout.randrange(len(tools)))
            records.append((gold, perturb(rng, gold, kind, tools), kind))
    rng.shuffle(records)
    return records
