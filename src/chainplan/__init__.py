"""chainplan: turn natural-language queries into validated, type-checked
chains of tool calls, with schema-enforced decoding, graph-based plan repair,
and a full evaluation harness."""

__version__ = "0.1.0"

from .datasets import GoldenExample, load_golden_dataset
from .enforcer import (
    DecoderSession,
    PlanAutomaton,
    SubTaskAutomaton,
    compile_schema,
    compile_subtask_schema,
    enforced_repair,
)
from .executor import StubRuntime, apply_operator, execute, register_operator_tools
from .llm import (
    CompletionRequest,
    CompletionResult,
    RemoteChatModel,
    ScriptedModel,
    ScriptedTokenModel,
    constrained_complete,
)
from .metrics import (
    EvalRecord,
    MetricsReport,
    bleu,
    correct_path,
    evaluate_dataset,
    hallucination_rate,
    rouge_l_f1,
    tool_selection_scores,
)
from .pipelines import PipelineConfig, PlannerContext, run_enchant, run_regains
from .plan import (
    Plan,
    PrevRef,
    ToolCall,
    parse_plan,
    serialize_plan,
    validate_refs,
)
from .registry import Registry, ToolSpec, load_registry, validate_registry
from .retrieval import HashEmbeddingProvider, cosine, index_corpus, retrieve_top_k, top_n_recall
from .typegraph import TypeGraph, build_graph, check_ref, repair_plan, validate_plan

__all__ = [
    "CompletionRequest",
    "CompletionResult",
    "DecoderSession",
    "EvalRecord",
    "GoldenExample",
    "HashEmbeddingProvider",
    "MetricsReport",
    "Plan",
    "PlanAutomaton",
    "PipelineConfig",
    "PlannerContext",
    "PrevRef",
    "Registry",
    "RemoteChatModel",
    "ScriptedModel",
    "ScriptedTokenModel",
    "StubRuntime",
    "SubTaskAutomaton",
    "ToolCall",
    "ToolSpec",
    "TypeGraph",
    "apply_operator",
    "bleu",
    "build_graph",
    "check_ref",
    "compile_schema",
    "compile_subtask_schema",
    "constrained_complete",
    "correct_path",
    "cosine",
    "enforced_repair",
    "evaluate_dataset",
    "execute",
    "hallucination_rate",
    "index_corpus",
    "load_golden_dataset",
    "load_registry",
    "parse_plan",
    "register_operator_tools",
    "repair_plan",
    "retrieve_top_k",
    "rouge_l_f1",
    "run_enchant",
    "run_regains",
    "serialize_plan",
    "tool_selection_scores",
    "top_n_recall",
    "validate_plan",
    "validate_refs",
    "validate_registry",
]
