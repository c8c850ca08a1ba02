"""The benchmark's workloads, driven only through chainplan's public entry
points.

Each workload class has the same members. ``setup`` is the program's set-up
and is timed as ``setup_s``, the median of ``setup_repeats`` runs. ``inputs``
yields seeded operation inputs. ``run`` performs one operation, which is
timed. ``check`` verifies the operation's output with the benchmark's own
oracles and returns None, ``KNOWN_DEFECT`` or a failure message. ``timed``
picks the timed intervals, operations or decode steps, as (start, seconds)
pairs; a latency sample is the mean of ``window`` consecutive intervals, with
a new sample every ``stride`` intervals. ``operation`` and ``sample`` name an
operation and a sample in the report. A run does a fixed amount of work, so that its
inputs, and with them ``attempted`` and ``failed``, depend only on the seed
and ``--seconds``: ``rate`` is the untraced run's number of operations per
second of ``--seconds``, set so that on the reference machine they take about
``--seconds``. ``traced_rate`` is the traced run's, set so that the traced
operations take about half the run and their untraced replay the rest.

Program functions are looked up on the ``chainplan`` package at call time, so
the traced run's wrappers see these calls.
"""

from __future__ import annotations

import json
import random
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import chainplan as cp
from chainplan.registry import fixture_tools_path

import gen
from speed import NullGauge
from standins import ResponseModel, TokenModel

KNOWN_DEFECT = "known defect"
GOLDEN_PATH = fixture_tools_path().parent / "golden_dataset.jsonl"


def _fixture_tools() -> list[dict]:
    return json.loads(fixture_tools_path().read_text(encoding="utf-8"))


def _golden() -> list[tuple[str, list[dict]]]:
    rows = [json.loads(line) for line in GOLDEN_PATH.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [(row["query"], row["gold"]) for row in rows]


def plan_problems(text: str, tools: dict[str, set[str]]) -> tuple[list[str], list[str]]:
    """(problems, bad references) of a plan text against a registry given as
    tool name -> argument names. A plan with neither cannot hallucinate.
    Bad references are self or forward ``$$PREV`` references."""
    try:
        plan = json.loads(text)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"], []
    problems, bad_refs = [], []
    for position, call in enumerate(plan):
        args = tools.get(call["tool_name"])
        if args is None:
            problems.append(f"unknown tool {call['tool_name']!r}")
            continue
        for arg in call["arguments"]:
            if arg["argument_name"] not in args:
                problems.append(f"unknown argument {call['tool_name']}.{arg['argument_name']}")
            value = arg["argument_value"]
            for item in value if isinstance(value, list) else [value]:
                if not isinstance(item, str) or not item.startswith("$$PREV"):
                    continue
                match = gen.PREV_REF.match(item)
                if match is None:
                    problems.append(f"malformed reference {item!r}")
                elif int(match.group(1)) >= position:
                    bad_refs.append(f"{item} at call {position}")
    return problems, bad_refs


class RegainsWorkload:
    """regains-1k: the single-call pipeline over a 1,000-tool registry.

    The stand-in answers with the query's gold plan, 30% of them damaged
    (CORRUPTION_BLOCK). Straying answers, with invalid JSON or fabricated
    names, go through projection and must come out with known names and
    backward references only; clean and mis-wrapped answers must come out as
    the gold text."""

    name = "regains-1k"
    operation = "plan"
    sample = "one run_regains call"
    window = stride = 1
    setup_repeats = 3
    rate = 40  # twelve blocks of 100 answers in 30 seconds
    traced_rate = 25

    def __init__(self, seed: int, tracer, tools: int = 1000):
        self.seed = seed
        rng = random.Random(seed)
        docs = gen.synthetic_registry(rng, _fixture_tools(), tools)
        self.registry_text = json.dumps(docs)
        self.tools = {doc["tool_name"]: {a["argument_name"] for a in doc["arguments"]} for doc in docs}
        self.avoid = set(self.tools).union(*self.tools.values())
        self.golden = _golden()
        self.model = ResponseModel(tracer)

    def setup(self) -> None:
        registry = cp.load_registry(self.registry_text)
        examples = cp.load_golden_dataset(GOLDEN_PATH)
        self.config = cp.PipelineConfig.default()
        self.ctx = cp.PlannerContext.build(registry, cp.HashEmbeddingProvider(), examples)

    def inputs(self):
        """Blocks of 100 answers with the CORRUPTION_BLOCK mix. Each kind of
        answer takes the golden examples in turn, so whole blocks hold the
        same (kind, example) pairs whatever the seed; the seed sets their
        order, the query wording and the damage."""
        rng = random.Random(f"regains-inputs-{self.seed}")
        with_refs = [row for row in self.golden if gen.has_refs(row[1])]
        taken = Counter()
        serial = 0
        while True:
            block = []
            for kind in gen.CORRUPTION_BLOCK:
                pool = with_refs if kind == "miswrapped" else self.golden
                block.append((kind, pool[taken[kind] % len(pool)]))
                taken[kind] += 1
            rng.shuffle(block)
            for kind, (query, gold) in block:
                variant = gen.query_variant(rng, query, serial)
                serial += 1
                yield variant, gen.plan_text(gold), kind, gen.corrupt_response(rng, gold, kind, self.avoid)

    def timed(self, op_times: list[tuple[float, float]]) -> list[tuple[float, float]]:
        return op_times

    def run(self, item):
        query, _, _, response = item
        self.model.response = response
        return cp.run_regains(query, self.ctx, self.model, self.config)

    def check(self, item, trace):
        _, gold_text, kind, _ = item
        if trace.llm_calls != 1:
            return f"{trace.llm_calls} model calls"
        mode = trace.enforcement["rap"]
        if kind in ("clean", "miswrapped"):
            if mode != "plain":
                return f"{kind} answer was {mode}"
            return None if trace.final_text == gold_text else f"{kind} answer gave {trace.final_text}"
        if mode != "repaired":
            return f"{kind} answer was {mode}"
        problems, bad_refs = plan_problems(trace.final_text, self.tools)
        if problems:
            return f"{kind} answer projected to {trace.final_text}: {problems}"
        return KNOWN_DEFECT if bad_refs else None


class EnchantWorkload:
    """enchant-mask-8k: the staged pipeline over the 9-tool fixture with a
    token-level stand-in. Every decode step offers the scripted piece and then
    the 8,192-token synthetic vocabulary, so the per-step vocabulary mask is
    nearly all the work. Both stages must decode exactly the scripts."""

    name = "enchant-mask-8k"
    operation = "plan"
    setup_repeats = 75
    # Golden queries come in file order, so a run decodes the same plans
    # whatever the seed: the share of costly string-state steps, and with it
    # the median step, depends on which plans are decoded.
    rate = 0.1
    traced_rate = 0.04
    # A decode step is timed from the stand-in handing over a candidate list
    # to being asked for the next. Single steps fall into cheap structural,
    # middling name and costly string-state groups, and the median step sat
    # at the low edge of the costly group, where the share of the run the
    # host was busy moved it by a third between runs even after scaling.
    # Means over 20 steps mix the groups and keep the median steady.
    window, stride = 20, 5
    sample = (f"engine time per decode step, averaged over {window} consecutive steps, a new "
              f"sample every {stride} steps")

    def __init__(self, seed: int, tracer, vocabulary_size: int = 8192):
        self.seed = seed
        self.golden = _golden()
        self.model = TokenModel(tracer, gen.synthetic_vocabulary(random.Random(seed), vocabulary_size))

    def setup(self) -> None:
        registry = cp.load_registry(fixture_tools_path())
        examples = cp.load_golden_dataset(GOLDEN_PATH)
        self.config = cp.PipelineConfig.default()
        self.ctx = cp.PlannerContext.build(registry, cp.HashEmbeddingProvider(), examples)

    def inputs(self):
        rng = random.Random(f"enchant-inputs-{self.seed}")
        serial = 0
        while True:
            for query, gold in self.golden:
                subtasks = gen.subtask_script(rng, gold)
                gold_text = gen.plan_text(gold)
                variant = gen.query_variant(rng, query, serial)
                serial += 1
                yield variant, subtasks, gold_text, [gen.cut_pieces(rng, subtasks), gen.cut_pieces(rng, gold_text)]

    def run(self, item):
        query, _, _, scripts = item
        self.model.scripts = list(scripts)
        return cp.run_enchant(query, self.ctx, self.model, self.config)

    def timed(self, op_times: list[tuple[float, float]]) -> list[tuple[float, float]]:
        return self.model.step_gaps

    def check(self, item, trace):
        _, subtasks, gold_text, _ = item
        if trace.llm_calls != 2:
            return f"{trace.llm_calls} model calls"
        if set(trace.enforcement.values()) != {"enforced"}:
            return f"enforcement {trace.enforcement}"
        if trace.raw_texts["decompose"] != subtasks:
            return f"decomposition decoded as {trace.raw_texts['decompose']}"
        return None if trace.final_text == gold_text else f"plan decoded as {trace.final_text}"


class EvalWorkload:
    """eval-long-plans: scoring and executing generated gold/prediction pairs
    over the fixture tools, one record per operation. The gold set is written
    to a JSON-lines file that set-up loads."""

    name = "eval-long-plans"
    operation = "record"
    sample = "one record scored with evaluate_dataset and its gold plan executed"
    window = stride = 1
    setup_repeats = 75
    rate = 800 / 30  # four passes over the 200 records in 30 seconds
    traced_rate = 15

    def __init__(self, seed: int, tracer, workdir: Path, blocks: int = 2):
        self.seed = seed
        tools = _fixture_tools()
        self.pairs = gen.eval_pairs(random.Random(seed), tools, blocks)
        self.path = workdir / f"eval-gold-{seed}.jsonl"
        lines = [json.dumps({"query": f"record {i}", "gold": gold}) for i, (gold, _, _) in enumerate(self.pairs)]
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup(self) -> None:
        self.registry = cp.load_registry(fixture_tools_path())
        self.examples = cp.load_golden_dataset(self.path)
        self.runtime = cp.StubRuntime()

    def inputs(self):
        while True:
            for example, (gold, prediction, kind) in zip(self.examples, self.pairs):
                yield cp.EvalRecord(query=example.query, gold=example.gold, predicted_text=prediction), kind, len(gold)

    def timed(self, op_times: list[tuple[float, float]]) -> list[tuple[float, float]]:
        return op_times

    def run(self, item):
        record = item[0]
        report = cp.evaluate_dataset([record], self.registry)
        return report, cp.execute(record.gold, self.runtime)

    def check(self, item, output):
        _, kind, calls = item
        report, execution = output
        scores = report.examples[0]
        if len(execution.steps) != calls:
            return f"{len(execution.steps)} steps executed for {calls} calls"
        if scores.invalid_json != (kind == "invalid_json"):
            return f"{kind} prediction scored invalid_json={scores.invalid_json}"
        if scores.invalid_json:
            return None
        if abs(scores.ir + scores.nr - 1.0) > 1e-9:
            return f"IR + NR = {scores.ir + scores.nr}"
        if kind == "identity" and (scores.bleu != 1.0 or scores.rouge_l_f1 != 1.0 or scores.hr != 0.0
                                   or not scores.correct_path):
            return f"identity prediction scored {scores}"
        return None


def run_loop(workload, inputs, tracer, *, deadline: float | None = None, count: int | None = None,
             gauge=NullGauge()):
    """Run operations until ``deadline`` or for ``count`` operations, with
    a speed gauge sample before each. Returns (operation (start, seconds)
    pairs, failures, known defects, attempted)."""
    op_times: list[tuple[float, float]] = []
    failures: list[str] = []
    known = 0
    attempted = 0
    while (count is None or attempted < count) and (deadline is None or perf_counter() < deadline):
        attempted += 1
        tracer.op = attempted
        span = tracer.begin("harness.input")
        item = next(inputs)
        tracer.end(span)
        gauge.sample()
        span = tracer.begin("harness.op")
        started = perf_counter()
        try:
            output = workload.run(item)
        except Exception:  # an operation that raises counts as failed; the run goes on
            output = None
            failures.append(traceback.format_exc(limit=3))
        op_times.append((started, perf_counter() - started))
        tracer.end(span)
        if output is None:
            continue
        span = tracer.begin("harness.check")
        try:
            verdict = workload.check(item, output)
        except Exception:
            verdict = traceback.format_exc(limit=3)
        tracer.end(span)
        if verdict == KNOWN_DEFECT:
            known += 1
        elif verdict is not None:
            failures.append(verdict)
    return op_times, failures, known, attempted


WORKLOADS = {w.name: w for w in (RegainsWorkload, EnchantWorkload, EvalWorkload)}
