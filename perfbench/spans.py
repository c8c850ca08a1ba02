"""Span tracing from outside the program, for the benchmark's traced run.

``Tracer.install`` replaces each public function in ``BOUNDARIES`` at every
name a calling module binds it to, with a wrapper that records a span (name,
start, end, parent span, operation id) and the boundary's counters; ``restore``
puts the originals back. Spans stay in memory and are written once, when the
run ends. A span's self time is its duration minus the durations of its direct
children, which nest inside it because the benchmark is single-threaded.

The harness opens its own spans: ``harness.setup``, ``harness.input`` and
``harness.op`` around each set-up, input generation and operation,
``harness.model`` inside the model stand-ins and ``harness.check`` around
output checks. Wall time not covered by any span is
reported as ``harness.unattributed_s``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def _count_items_scored(counts, args, result):
    counts["retrieval.items_scored"] += len(args[1].items)


def _count_repair_edits(counts, args, result):
    counts["enforcer.repair_edits"] += len(result[1])


def _count_mask(counts, args, result):
    counts["enforcer.mask_tokens"] += len(result)
    counts["enforcer.mask_allowed"] += sum(result)


def _count_repairs(counts, args, result):
    counts["typegraph.repairs"] += len(result[1])


def _count_llm_calls(counts, args, result):
    counts["llm.calls"] += 1


def _count_pipeline(counts, args, result):
    counts["pipelines.plans"] += 1
    counts["pipelines.repaired"] += "repaired" in result.enforcement.values()


def _count_tokens(counts, args, result):
    counts["metrics.plan_tokens.tokens"] += len(result)


# (span name, binding sites as (module, attribute) or (module, class,
# method), counter). A module-level function is patched where its callers
# look it up, which is the calling module's namespace, not the defining one.
BOUNDARIES = (
    ("registry.load_registry", [("chainplan", "load_registry")], None),
    ("datasets.load_golden_dataset", [("chainplan", "load_golden_dataset")], None),
    ("pipelines.PlannerContext.build", [("chainplan.pipelines", "PlannerContext", "build")], None),
    ("typegraph.build_graph", [("chainplan.pipelines", "build_graph")], None),
    ("retrieval.index_corpus", [("chainplan.pipelines", "index_corpus")], None),
    ("retrieval.embed", [("chainplan.retrieval", "HashEmbeddingProvider", "embed")], None),
    ("retrieval.retrieve_top_k", [("chainplan.pipelines", "retrieve_top_k")], _count_items_scored),
    ("enforcer.compile_schema", [("chainplan.pipelines", "compile_schema")], None),
    ("enforcer.compile_subtask_schema", [("chainplan.pipelines", "compile_subtask_schema")], None),
    ("enforcer.enforced_repair", [("chainplan.pipelines", "enforced_repair"),
                                  ("chainplan.llm", "enforced_repair")], _count_repair_edits),
    ("enforcer.mask_vocabulary", [("chainplan.enforcer", "DecoderSession", "mask_vocabulary")], _count_mask),
    ("enforcer.advance", [("chainplan.enforcer", "DecoderSession", "advance")], None),
    ("typegraph.repair_plan", [("chainplan.pipelines", "repair_plan")], _count_repairs),
    ("plan.parse_plan", [("chainplan.pipelines", "parse_plan"), ("chainplan.metrics", "parse_plan")], None),
    ("plan.serialize_plan", [("chainplan.pipelines", "serialize_plan"), ("chainplan.metrics", "serialize_plan"),
                             ("chainplan.datasets", "serialize_plan")], None),
    ("llm.constrained_complete", [("chainplan.pipelines", "constrained_complete")], _count_llm_calls),
    ("pipelines.run_regains", [("chainplan", "run_regains")], _count_pipeline),
    ("pipelines.run_enchant", [("chainplan", "run_enchant")], _count_pipeline),
    ("metrics.evaluate_dataset", [("chainplan", "evaluate_dataset")], None),
    ("metrics.score_example", [("chainplan.metrics", "score_example")], None),
    ("metrics.plan_tokens", [("chainplan.metrics", "plan_tokens")], _count_tokens),
    ("metrics.bleu", [("chainplan.metrics", "bleu")], None),
    ("metrics.rouge_l_f1", [("chainplan.metrics", "rouge_l_f1")], None),
    ("metrics.hallucination_rate", [("chainplan.metrics", "hallucination_rate")], None),
    ("executor.execute", [("chainplan", "execute")], None),
)

HARNESS_SPANS = ("harness.setup", "harness.input", "harness.op", "harness.model", "harness.check")

COUNTERS = (
    "retrieval.items_scored", "enforcer.repair_edits", "enforcer.mask_tokens", "typegraph.repairs",
    "llm.calls", "metrics.plan_tokens.tokens",
)


class NullTracer:
    """The untraced run's tracer: spans cost one method call."""

    op = 0

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> None:
        pass


class Tracer:
    """Keeps spans and boundary counters in memory for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Patch every boundary; ``modules`` maps module names to modules."""
        for name, sites, counter in BOUNDARIES:
            for site in sites:
                if len(site) == 2:
                    owner, attr = modules[site[0]], site[1]
                else:
                    owner, attr = getattr(modules[site[0]], site[1]), site[2]
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counter)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, counter))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - children
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


def per_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run: ``<span>.calls`` and
    ``<span>.self_s`` for each boundary and harness span, the boundary
    counters and ratios, and the unattributed wall time."""
    times = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in [b[0] for b in BOUNDARIES] + list(HARNESS_SPANS):
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in COUNTERS:
        metrics[name] = (counts[name], "count")
    tokens = counts["enforcer.mask_tokens"]
    metrics["enforcer.mask_allowed_share"] = (counts["enforcer.mask_allowed"] / tokens if tokens else 0.0, "ratio")
    plans = counts["pipelines.plans"]
    metrics["pipelines.repaired_share"] = (counts["pipelines.repaired"] / plans if plans else 0.0, "ratio")
    metrics["harness.unattributed_s"] = (wall_s - tracer.root_time(), "s")
    return metrics
