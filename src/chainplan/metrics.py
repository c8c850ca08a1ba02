"""Scoring predicted plans against gold plans.

Tool-selection rates compare tool-name multisets: necessary = predicted
intersect gold, irrelevant = predicted minus gold, missing = gold minus
predicted, so IR + NR = 1 for every parsed nonempty prediction. The
hallucination rate counts nonexistent resources per unit, where a plan has
one unit per tool name plus one per argument assignment. BLEU and ROUGE-L F1
run over a canonical serialization split on JSON structural characters, which
makes both scores stable across formatting.

A prediction usually differs from its gold in a few calls, so
``score_example`` finds the common prefix and suffix (``_shared_ends``) once
per record and hands them to both scores, which work on the middles, as diff
algorithms do (Myers 1986): the ends are counted once, in arithmetic, and the
per-token work scales with the difference, not the length. BLEU counts the
middle n-grams of all four orders into one table per side. Both scores stay
exact; see ``bleu`` and ``_lcs_length``. A prediction that is its gold's
canonical text, as a correct plan from either pipeline is, scores 1.0 on both
without being tokenized: canonical text is a fixed point of parsing then
serializing, so its token streams are equal.

Unparseable predictions contribute only to the invalid-JSON rate; all other
aggregates average over the parsed examples.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import compress, count
from operator import ne

from .plan import Plan, parse_plan, serialize_plan, validate_refs
from .registry import Registry


def tool_selection_scores(predicted: Plan, gold: Plan) -> tuple[float, float, float]:
    """(irrelevant rate, necessary rate, missing rate) over tool multisets."""
    unmatched: dict[str, int] = {}
    for name in gold.tool_sequence:
        unmatched[name] = unmatched.get(name, 0) + 1
    necessary = 0
    for name in predicted.tool_sequence:
        left = unmatched.get(name)
        if left:
            unmatched[name] = left - 1
            necessary += 1
    total_pred = len(predicted.calls)
    total_gold = len(gold.calls)
    if total_pred == 0:
        ir, nr = 0.0, 0.0
    else:
        ir = (total_pred - necessary) / total_pred
        nr = necessary / total_pred
    mr = (total_gold - necessary) / total_gold if total_gold else 0.0
    return ir, nr, mr


def hallucination_rate(predicted: Plan, registry: Registry) -> float:
    """Hallucinated units / total units.

    Units: one per call for the tool name, one per argument assignment. A
    unit is hallucinated iff :func:`validate_refs` reports a finding on it,
    or it is an argument of an unknown tool (arguments of a nonexistent tool
    are nonexistent resources). A plan with zero units scores 0.
    """
    units = sum(1 + len(call.arguments) for call in predicted.calls)
    flagged: set[tuple[int, str | None]] = set()
    for diag in validate_refs(predicted, registry):
        flagged.add((diag.position, diag.argument))
        if diag.kind == "unknown_tool":
            flagged.update((diag.position, name) for name in predicted.calls[diag.position].argument_names)
    return len(flagged) / units if units else 0.0


def plan_tokens(plan: Plan) -> list[str]:
    """Canonical token stream: the text tokens of the serialized plan."""
    return text_tokens(serialize_plan(plan))


def text_tokens(text: str) -> list[str]:
    """Each JSON structural character ``{}[],:"`` as its own token, and each
    run of other characters between them and whitespace as one token."""
    # str.split() splits on str.isspace() characters, so padding each
    # structural character with spaces makes it a token of its own.
    for ch in '{}[],:"':
        text = text.replace(ch, f" {ch} ")
    return text.split()


def _shared_ends(a: list[str], b: list[str]) -> tuple[int, int]:
    """(p, s): the length p of the common prefix of ``a`` and ``b``, and the
    length s of the common suffix of what follows it, so that
    p + s <= min(len(a), len(b)) and the two ends never overlap.

    Two scans run in C, each to its first differing pair: p from the front,
    and the streams' common suffix from the back. The common suffix of the
    tails after p is that suffix cut to the shorter tail's length,
    min(len(a), len(b)) - p, so s is that cut.
    """
    limit = min(len(a), len(b))
    p = next(compress(count(), map(ne, a, b)), limit)
    s = next(compress(count(), map(ne, reversed(a), reversed(b))), limit)
    return p, min(s, limit - p)


def _middle_ngrams(tokens: list[str], p: int, s: int) -> dict[tuple[str, ...], int]:
    """Counts of the n-grams, n = 1 to 4, that start after the n-grams wholly
    in the shared prefix of p tokens and before the shared suffix of s; an
    n-gram is an n-tuple, so a key's length is its order."""
    counts: dict[tuple[str, ...], int] = {}
    end = len(tokens) - s
    for n in range(1, 5):
        middle = tokens[max(p - n + 1, 0):end + n - 1]
        for gram in zip(*(middle[k:] for k in range(n))):
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def bleu(predicted_tokens: list[str], gold_tokens: list[str], *,
         ends: tuple[int, int] | None = None) -> float:
    """Sentence-level BLEU, 4-gram, uniform weights.

    Modified n-gram precisions with add-one smoothing on higher-order zeros
    (unigram precision stays unsmoothed), times a brevity penalty
    exp(1 - |gold| / |pred|) when the prediction is shorter than the gold.

    Only the n-grams that reach into the differing middle are counted. With a
    shared prefix of p tokens and a shared suffix of s (``ends``, computed by
    ``_shared_ends`` when not given), max(p - n + 1, 0) n-grams lie wholly in
    the prefix and max(s - n + 1, 0) wholly in the suffix, at the same places
    in both streams. Each such n-gram adds the same count A to both sides of
    its clipped match, and min(A + x, A + y) = A + min(x, y), so the matches
    are those shared n-grams plus the clipped matches of the n-grams that
    start after the prefix's and before the suffix's. Those n-grams, of all
    four orders, go into one count table per side, and one pass over the keys
    the tables share gives every order's clipped matches. The counts, and so
    the score, are exactly the full streams'; the counting work scales with
    the difference, not the length.
    """
    if not gold_tokens:
        raise ValueError("gold token stream must not be empty")
    if not predicted_tokens:
        return 0.0
    p, s = _shared_ends(predicted_tokens, gold_tokens) if ends is None else ends
    pred_counts = _middle_ngrams(predicted_tokens, p, s)
    gold_counts = _middle_ngrams(gold_tokens, p, s)
    middle_matches = [0] * 5
    for gram in pred_counts.keys() & gold_counts.keys():
        middle_matches[len(gram)] += min(pred_counts[gram], gold_counts[gram])
    log_sum = 0.0
    for n in range(1, 5):
        matches = max(p - n + 1, 0) + max(s - n + 1, 0) + middle_matches[n]
        total = max(len(predicted_tokens) - n + 1, 0)
        if n == 1:
            if matches == 0:
                return 0.0
            precision = matches / total
        elif matches == 0:
            precision = 1.0 / (total + 1)
        else:
            precision = matches / total
        log_sum += 0.25 * math.log(precision)
    brevity = 1.0
    if len(predicted_tokens) < len(gold_tokens):
        brevity = math.exp(1.0 - len(gold_tokens) / len(predicted_tokens))
    return brevity * math.exp(log_sum)


def _lcs_length(a: list[str], b: list[str], *, ends: tuple[int, int] | None = None) -> int:
    # The shared ends are matched first: when a and b start with the same
    # token, some longest common subsequence matches those two tokens, and the
    # same holds at the end, so the LCS is p + s + the LCS of the middles.
    # The middles then go through the bit-parallel LCS (Allison & Dix 1986;
    # Hyyrö 2004): bit j of v is 1 where the DP row over b does not step up at
    # column j, and each token of a updates the whole row at once, with an
    # addition, a subtraction and three bitwise operations. That is one step
    # per token of a's middle on ints of one bit per token of b's middle
    # (30 bits to a digit); the middle's length is the count of v's zero bits.
    # ``ends`` is _shared_ends(a, b), when the caller has it already.
    p, s = _shared_ends(a, b) if ends is None else ends
    a, b = a[p:len(a) - s], b[p:len(b) - s]
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return p + s + len(b) - v.bit_count()


def rouge_l_f1(predicted_tokens: list[str], gold_tokens: list[str], *,
               ends: tuple[int, int] | None = None) -> float:
    """F1 over the longest common subsequence; 0 when there is no overlap.
    ``ends`` is ``_shared_ends(predicted_tokens, gold_tokens)``, computed
    when not given."""
    if not gold_tokens:
        raise ValueError("gold token stream must not be empty")
    if not predicted_tokens:
        return 0.0
    lcs = _lcs_length(predicted_tokens, gold_tokens, ends=ends)
    if lcs == 0:
        return 0.0
    precision = lcs / len(predicted_tokens)
    recall = lcs / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def correct_path(predicted: Plan, gold: Plan) -> bool:
    """Whether gold's tool sequence is a (not necessarily contiguous)
    subsequence of the predicted tool sequence."""
    gold_seq = gold.tool_sequence
    if not gold_seq:
        return True
    it = iter(predicted.tool_sequence)
    return all(any(tool == step for step in it) for tool in gold_seq)


@dataclass(frozen=True)
class EvalRecord:
    query: str
    gold: Plan
    predicted_text: str


@dataclass(frozen=True)
class ExampleScores:
    query: str
    invalid_json: bool
    ir: float | None = None
    nr: float | None = None
    mr: float | None = None
    hr: float | None = None
    bleu: float | None = None
    rouge_l_f1: float | None = None
    correct_path: bool | None = None


@dataclass(frozen=True)
class MetricsReport:
    """A dataset's scores; ``to_json`` writes every field, in field order."""

    aggregates: dict[str, float | None]
    counts: dict[str, int]
    examples: tuple[ExampleScores, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def score_example(record: EvalRecord, registry: Registry) -> ExampleScores:
    """One record's scores; invalid JSON is scored only as such.

    The rates and the correct path come from the parsed prediction. When the
    prediction's text is the gold's canonical text, BLEU and ROUGE-L F1 are
    1.0 without tokenizing either plan. That is exact: canonical text is a
    fixed point of ``parse_plan`` then ``serialize_plan``, so the prediction
    would serialize back to the same text, its token stream would equal the
    gold's, and equal streams score exactly 1.0 on both. Any other
    prediction is tokenized and scored against the gold's text.
    """
    outcome = parse_plan(record.predicted_text)
    if not outcome.ok:
        return ExampleScores(query=record.query, invalid_json=True)
    predicted = outcome.plan
    ir, nr, mr = tool_selection_scores(predicted, record.gold)
    # plan_tokens, serialize_plan, bleu and rouge_l_f1 are called as module
    # globals, where the benchmark's traced run patches them.
    gold_text = serialize_plan(record.gold)
    if record.predicted_text == gold_text:
        bleu_score = rouge_score = 1.0
    else:
        predicted_tokens, gold_tokens = plan_tokens(predicted), text_tokens(gold_text)
        ends = _shared_ends(predicted_tokens, gold_tokens)  # one search for both scores
        bleu_score = bleu(predicted_tokens, gold_tokens, ends=ends)
        rouge_score = rouge_l_f1(predicted_tokens, gold_tokens, ends=ends)
    return ExampleScores(
        query=record.query,
        invalid_json=False,
        ir=ir,
        nr=nr,
        mr=mr,
        hr=hallucination_rate(predicted, registry),
        bleu=bleu_score,
        rouge_l_f1=rouge_score,
        correct_path=correct_path(predicted, record.gold),
    )


def _mean(values: list[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def evaluate_dataset(records: list[EvalRecord], registry: Registry,
                     traces: list | None = None) -> MetricsReport:
    """Score every record; deterministic ordered reduction.

    Tool/argument/solution aggregates average over parsed examples; the
    invalid-JSON rate covers all examples. Call and token counts are filled
    in when pipeline traces are supplied, one per record.
    """
    if not records:
        raise ValueError("dataset must not be empty")
    if traces is not None and len(traces) != len(records):
        raise ValueError(f"{len(traces)} traces for {len(records)} records")
    scored = [score_example(record, registry) for record in records]
    parsed = [s for s in scored if not s.invalid_json]
    aggregates: dict[str, float | None] = {
        "ir": _mean([s.ir for s in parsed]),
        "nr": _mean([s.nr for s in parsed]),
        "mr": _mean([s.mr for s in parsed]),
        "hr": _mean([s.hr for s in parsed]),
        "bleu": _mean([s.bleu for s in parsed]),
        "rouge_l_f1": _mean([s.rouge_l_f1 for s in parsed]),
        "invalid_json_rate": sum(s.invalid_json for s in scored) / len(scored),
        "correct_path_rate": _mean([1.0 if s.correct_path else 0.0 for s in parsed]),
    }
    counts = {
        "examples": len(scored),
        "parsed": len(parsed),
        "llm_calls": sum(t.llm_calls for t in traces) if traces else 0,
        "prompt_tokens": sum(t.prompt_tokens for t in traces) if traces else 0,
        "completion_tokens": sum(t.completion_tokens for t in traces) if traces else 0,
    }
    return MetricsReport(examples=tuple(scored), aggregates=aggregates, counts=counts)


_METRIC_COLUMNS = (
    ("ir", "IR", "v"),
    ("nr", "NR", "^"),
    ("hr", "HR", "v"),
    ("mr", "MR", "v"),
    ("bleu", "BLEU", "^"),
    ("rouge_l_f1", "ROUGE-L-F1", "^"),
    ("invalid_json_rate", "Invalid JSON", "v"),
    ("correct_path_rate", "Correct Path", "^"),
)

_ARROWS = {"v": "↓", "^": "↑"}


def _format_value(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_table(report: MetricsReport) -> str:
    lines = ["metric              value", "-" * 26]
    for key, label, direction in _METRIC_COLUMNS:
        arrow = _ARROWS[direction]
        lines.append(f"{label + ' ' + arrow:<20}{_format_value(report.aggregates[key])}")
    lines.append("-" * 26)
    lines.append(f"examples: {report.counts['examples']}  parsed: {report.counts['parsed']}")
    if report.counts["llm_calls"]:
        lines.append(
            f"llm calls: {report.counts['llm_calls']}  tokens: "
            f"{report.counts['prompt_tokens']}+{report.counts['completion_tokens']}"
        )
    return "\n".join(lines)


def render_csv(report: MetricsReport) -> str:
    header = ",".join(key for key, _, _ in _METRIC_COLUMNS)
    values = ",".join(_format_value(report.aggregates[key]) for key, _, _ in _METRIC_COLUMNS)
    return f"{header}\n{values}\n"
