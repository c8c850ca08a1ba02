"""The two query-to-plan pipelines.

The three-stage pipeline retrieves tools, decomposes the query into sub-tasks
under an enforced sub-task schema, then recomposes them into a plan under the
plan schema restricted to the retrieved tools: two model calls, both
schema-constrained, followed by type-graph repair.

The single-call pipeline retrieves tools and worked examples, builds one
state/action-framed prompt seeded with curated insights, completes once,
projects the output onto the plan schema if needed, and finishes with
type-graph repair.

Both build their trace in ``_trace``, from one record per model call.
Prompt assembly is exposed as pure functions so replays can be authored
offline and prompt budgets checked without any model call.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .datasets import GoldenExample
from .enforcer import DecoderSession, compile_schema, compile_subtask_schema, enforced_repair
from .llm import CompletionRequest, constrained_complete
from .plan import Plan, parse_plan, plan_to_data, serialize_plan, validate_refs
from .registry import Registry, load_json, read_text
from .retrieval import Corpus, index_corpus, retrieve_top_k, tool_embedding_text
from .typegraph import TypeGraph, build_graph, repair_plan

_DATA_DIR = Path(__file__).resolve().parent / "data"
_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


class PipelineError(RuntimeError):
    pass


class PromptError(ValueError):
    def __init__(self, placeholder: str):
        super().__init__(f"missing value for placeholder {{{placeholder}}}")
        self.placeholder = placeholder


def build_prompt(template: str, slots: dict[str, str]) -> str:
    """Deterministic placeholder substitution; every {name} slot must be
    provided and none may survive in the output."""
    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in slots:
            raise PromptError(name)
        return slots[name]

    return _PLACEHOLDER.sub(replace, template)


def _read_data(name: str) -> str:
    return (_DATA_DIR / name).read_text(encoding="utf-8")


def _lines(text: str) -> tuple[str, ...]:
    """The non-blank lines of ``text``, stripped: one insight each."""
    return tuple(line.strip() for line in text.splitlines() if line.strip())


_TEMPLATE_SLOTS = {
    "decompose": ("query", "tools"),
    "recompose": ("query", "tools", "subtasks"),
    "rap": ("query", "tools", "examples", "insights"),
}

_CONFIG_SCALARS = {"k": int, "example_count": int, "model_id": str, "max_tokens": int, "temperature": (int, float)}
# The least value each numeric setting may take.
_CONFIG_MINIMA = {"k": 1, "example_count": 0, "max_tokens": 1, "temperature": 0}


def _wrong_type(value, kind) -> bool:
    """A bool is never a config number, though Python counts it an int."""
    return isinstance(value, bool) or not isinstance(value, kind)


@dataclass
class PipelineConfig:
    """Pipeline settings, validated when built; the templates and insights
    default to the packaged ones. ``_TEMPLATE_SLOTS`` gives each template's
    config-file key and required placeholders; its field is ``<key>_template``."""

    k: int = 10
    example_count: int = 2
    decompose_template: str = field(default_factory=lambda: _read_data("templates/decompose.txt"))
    recompose_template: str = field(default_factory=lambda: _read_data("templates/recompose.txt"))
    rap_template: str = field(default_factory=lambda: _read_data("templates/rap.txt"))
    insights: tuple[str, ...] = field(default_factory=lambda: _lines(_read_data("insights.txt")))
    model_id: str = "default"
    max_tokens: int = 1024
    temperature: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        wrong = [key for key, kind in _CONFIG_SCALARS.items() if _wrong_type(getattr(self, key), kind)]
        wrong += [f"{k}_template" for k in _TEMPLATE_SLOTS if not isinstance(getattr(self, f"{k}_template"), str)]
        # a bare string would render one insight per character
        if not isinstance(self.insights, (tuple, list)) or not all(isinstance(i, str) for i in self.insights):
            wrong.append("insights")
        if wrong:
            raise ValueError(f"config values of the wrong type: {', '.join(wrong)}")
        for key, slots in _TEMPLATE_SLOTS.items():
            template = getattr(self, f"{key}_template")
            missing = [slot for slot in slots if f"{{{slot}}}" not in template]
            if missing:
                raise ValueError(f"{key}_template lacks required placeholders: {missing}")
        # a library caller may pass NaN, which "not >=" refuses, or infinity;
        # from_file refuses both as invalid JSON before they get here
        low = [f"{key} must be at least {least}"
               for key, least in _CONFIG_MINIMA.items() if not getattr(self, key) >= least]
        low += ["temperature must be finite"] if self.temperature == math.inf else []
        if low:
            raise ValueError(f"config values out of range: {', '.join(low)}")

    @classmethod
    def default(cls, **overrides) -> "PipelineConfig":
        """``cls(**overrides)``; kept until ROADMAP item 6 folds the benchmark's calls."""
        return cls(**overrides)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Config file: JSON with k, example_count, template paths, insights
        path and model params; missing fields fall back to the defaults. An
        unknown key, at the top or under templates, or a value of the wrong
        type is an error (``ValueError``), and so is a config, template or
        insights file that is not UTF-8, named with its path and byte. The
        file is read by ``registry.load_json``, so ``NaN``, ``Infinity`` and
        a float out of range such as ``1e999`` are invalid JSON that names
        the number."""
        text = read_text(path, ValueError)
        try:
            doc = load_json(text)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        templates = doc.get("templates", {}) if isinstance(doc, dict) else None
        if not isinstance(templates, dict):
            raise ValueError(f"{path}: a config is a JSON object, and its templates an object")
        base = Path(path).resolve().parent
        unknown = sorted(set(doc) - {*_CONFIG_SCALARS, "templates", "insights"})
        unknown += sorted(f"templates.{key}" for key in set(templates) - set(_TEMPLATE_SLOTS))
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
        # every other value, the insights path and the template paths, is a string
        values = [(key, doc[key], _CONFIG_SCALARS.get(key, str)) for key in doc if key != "templates"]
        values += [(f"templates.{key}", value, str) for key, value in templates.items()]
        wrong = [key for key, value, kind in values if _wrong_type(value, kind)]
        if wrong:
            raise ValueError(f"{path}: config values of the wrong type: {', '.join(wrong)}")
        settings = {key: doc[key] for key in _CONFIG_SCALARS if key in doc}
        for key in _TEMPLATE_SLOTS:
            if key in templates:
                settings[f"{key}_template"] = read_text(base / templates[key], ValueError)
        if "insights" in doc:
            settings["insights"] = _lines(read_text(base / doc["insights"], ValueError))
        try:
            return cls(**settings)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def render_tool_docs(registry: Registry, names: list[str] | tuple[str, ...]) -> str:
    """The tool list of a prompt: the ``prompt_block`` of each tool in
    ``names`` that ``registry`` holds, in order, one line apart. A name the
    registry lacks is skipped. Each block is rendered once per tool and kept
    with its spec, so a query only joins them."""
    tools = registry.tools
    return "\n".join([tools[name].prompt_block for name in names if name in tools])


def render_examples(examples: list[GoldenExample]) -> str:
    blocks = [f"Query: {ex.query}\nPlan: {ex.gold_text}" for ex in examples]
    return "\n\n".join(blocks) if blocks else "(none)"


# Automata a context keeps before it clears them all. A run retrieves a few
# distinct tool sets, and a lost automaton only costs a recompile.
_AUTOMATA_KEPT = 32


@dataclass
class PlannerContext:
    """Immutable inputs shared by pipeline runs: registry, embedding provider,
    indexed corpora, golden examples, the type graph, and the automata
    compiled so far (see :func:`_automaton`). A run's worked examples are
    those of ``examples``, so a copy with one left out holds it out of the
    prompts (see :func:`assemble_rap_prompt`)."""

    registry: Registry
    provider: object
    tool_corpus: Corpus
    graph: TypeGraph
    example_corpus: Corpus | None = None
    examples: dict[str, GoldenExample] = field(default_factory=dict)
    automata: dict[tuple, object] = field(default_factory=dict)

    @classmethod
    def build(cls, registry: Registry, provider, golden_examples: list[GoldenExample] | None = None) -> "PlannerContext":
        tool_items = [(name, tool_embedding_text(spec)) for name, spec in registry.tools.items()]
        tool_corpus = index_corpus(provider, tool_items)
        example_corpus = None
        examples: dict[str, GoldenExample] = {}
        if golden_examples:
            example_corpus = index_corpus(provider, [(ex.id, ex.query) for ex in golden_examples])
            examples = {ex.id: ex for ex in golden_examples}
        return cls(
            registry=registry,
            provider=provider,
            tool_corpus=tool_corpus,
            graph=build_graph(registry),
            example_corpus=example_corpus,
            examples=examples,
        )


@dataclass
class PipelineTrace:
    """The record of one run, each fact once: ``final_text`` is read off
    ``final_plan``, and a field added here reaches ``to_json`` unlisted."""

    pipeline: str
    query: str
    retrieved_tools: list[tuple[str, float]]
    retrieved_examples: list[str]
    prompts: dict[str, str]
    raw_texts: dict[str, str]
    enforcement: dict[str, str]
    repairs: list[dict]
    final_plan: Plan
    llm_calls: int
    prompt_tokens: int
    completion_tokens: int

    @property
    def final_text(self) -> str:
        return serialize_plan(self.final_plan)

    def to_json(self) -> str:
        """Every field in order; tools as id/score objects, the plan as wire data."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["retrieved_tools"] = [{"id": i, "score": s} for i, s in self.retrieved_tools]
        doc["final_plan"] = plan_to_data(self.final_plan)
        return json.dumps(doc, indent=2)


def _automaton(ctx: PlannerContext, kind: str, names):
    """The ``"plan"`` or ``"subtask"`` automaton over the tools ``names``,
    compiled once per context and tool set: both automata sort their names,
    so the language depends on the set alone. A plan automaton spells the
    named tools of ``ctx.registry`` itself, so no registry is built per
    tool set; ``names`` None is the whole registry, keyed ``("plan", None)``,
    so no key is built per call. At ``_AUTOMATA_KEPT`` automata the memo is
    cleared."""
    key = (kind, None if names is None else frozenset(names))
    automaton = ctx.automata.get(key)
    if automaton is None:
        automaton = compile_schema(ctx.registry, names) if kind == "plan" else compile_subtask_schema(names)
        if len(ctx.automata) >= _AUTOMATA_KEPT:
            ctx.automata.clear()
        ctx.automata[key] = automaton
    return automaton


def assemble_decompose_prompt(query: str, tool_names, registry: Registry, config: PipelineConfig) -> str:
    return build_prompt(
        config.decompose_template,
        {"query": query, "tools": render_tool_docs(registry, tool_names)},
    )


def assemble_recompose_prompt(query: str, subtasks_text: str, tool_names,
                              registry: Registry, config: PipelineConfig) -> str:
    return build_prompt(
        config.recompose_template,
        {
            "query": query,
            "tools": render_tool_docs(registry, tool_names),
            "subtasks": subtasks_text,
        },
    )


def assemble_rap_prompt(query: str, ctx: PlannerContext, config: PipelineConfig
                        ) -> tuple[str, list[tuple[str, float]], list[str]]:
    """(prompt, retrieved tools, retrieved example ids); pure, model-free.
    The query is embedded once, for both corpora.

    The worked examples are those of ``ctx.examples``: the example corpus
    is ranked to ``example_count`` plus the number of its items that
    ``ctx.examples`` lacks, and the first ``example_count`` ranked items
    it holds are kept, in rank order. So an example is held out by leaving
    it out of ``ctx.examples``, with the ids a corpus built without it
    would give, ties included, and the corpus is not rebuilt."""
    query_vec = ctx.provider.embed(query)
    retrieved = retrieve_top_k(query_vec, ctx.tool_corpus, ctx.provider, config.k)
    tool_names = [name for name, _ in retrieved]
    example_ids: list[str] = []
    corpus, examples = ctx.example_corpus, ctx.examples
    if corpus is not None and corpus.items and config.example_count > 0:
        lacking = sum(item.id not in examples for item in corpus.items)
        ranked = retrieve_top_k(query_vec, corpus, ctx.provider, config.example_count + lacking)
        example_ids = [ex_id for ex_id, _ in ranked if ex_id in examples][:config.example_count]
    picked = [examples[ex_id] for ex_id in example_ids]
    prompt = build_prompt(
        config.rap_template,
        {
            "insights": "\n".join(f"- {line}" for line in config.insights),
            "tools": render_tool_docs(ctx.registry, tool_names),
            "examples": render_examples(picked),
            "query": query,
        },
    )
    return prompt, retrieved, example_ids


def _request(prompt: str, config: PipelineConfig) -> CompletionRequest:
    return CompletionRequest(
        prompt=prompt,
        model_id=config.model_id,
        max_tokens=config.max_tokens,
        temperature=config.temperature,
    )


def _trace(pipeline: str, query: str, retrieved: list[tuple[str, float]], example_ids: list[str],
           stages: list[tuple], plan: Plan, ctx: PlannerContext) -> PipelineTrace:
    """The trace of one run, from one ``(stage, prompt, result)`` record per
    model call, in call order, and the parsed ``plan``, which is type-graph
    repaired here. A result's text is the stage's raw text."""
    final_plan, repairs = repair_plan(ctx.graph, plan)
    return PipelineTrace(
        pipeline=pipeline,
        query=query,
        retrieved_tools=retrieved,
        retrieved_examples=example_ids,
        prompts={stage: prompt for stage, prompt, _ in stages},
        raw_texts={stage: result.text for stage, _, result in stages},
        enforcement={stage: result.mode for stage, _, result in stages},
        repairs=[repair.__dict__ for repair in repairs],
        final_plan=final_plan,
        llm_calls=len(stages),
        prompt_tokens=sum(result.prompt_tokens for _, _, result in stages),
        completion_tokens=sum(result.completion_tokens for _, _, result in stages),
    )


def run_enchant(query: str, ctx: PlannerContext, model, config: PipelineConfig) -> PipelineTrace:
    """Retrieve, decompose under the sub-task schema, recompose under the plan
    schema restricted to the retrieved tools, then type-graph repair.
    Exactly two model calls. The recomposition prompt holds the
    decomposition as decoded: the text the sub-task automaton accepted."""
    retrieved = retrieve_top_k(query, ctx.tool_corpus, ctx.provider, config.k)
    tool_names = [name for name, _ in retrieved]

    decompose_prompt = assemble_decompose_prompt(query, tool_names, ctx.registry, config)
    # Both sessions mask through the one index of the model's vocabulary.
    decompose = DecoderSession(_automaton(ctx, "subtask", tool_names))
    decomposed = constrained_complete(model, _request(decompose_prompt, config), decompose)
    recompose_prompt = assemble_recompose_prompt(query, decompose.emitted, tool_names, ctx.registry, config)
    recompose = DecoderSession(_automaton(ctx, "plan", tool_names))
    recomposed = constrained_complete(model, _request(recompose_prompt, config), recompose)

    outcome = parse_plan(recompose.emitted)
    if not outcome.ok:
        raise PipelineError(f"enforced recomposition produced unparseable text: {outcome.detail}")
    stages = [("decompose", decompose_prompt, decomposed), ("recompose", recompose_prompt, recomposed)]
    return _trace("enchant", query, retrieved, [], stages, outcome.plan, ctx)


def run_regains(query: str, ctx: PlannerContext, model, config: PipelineConfig) -> PipelineTrace:
    """One retrieval-augmented, insight-guided prompt, exactly one model call;
    output projected onto the plan schema when it strays, then type-graph
    repaired."""
    prompt, retrieved, example_ids = assemble_rap_prompt(query, ctx, config)

    result = model.complete(_request(prompt, config))
    outcome = parse_plan(result.text)
    if not outcome.ok or any(diag.kind in ("unknown_tool", "unknown_argument")
                             for diag in validate_refs(outcome.plan, ctx.registry)):
        repaired_text, _ = enforced_repair(_automaton(ctx, "plan", None), result.text)
        outcome = parse_plan(repaired_text)
        if not outcome.ok:
            raise PipelineError(f"projection repair produced unparseable text: {outcome.detail}")
        result = replace(result, mode="repaired")  # the trace keeps the model's own text
    return _trace("regains", query, retrieved, example_ids, [("rap", prompt, result)], outcome.plan, ctx)
