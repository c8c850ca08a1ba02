import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from chainplan.metrics import (
    EvalRecord,
    ExampleScores,
    _lcs_length,
    _shared_ends,
    bleu,
    correct_path,
    evaluate_dataset,
    hallucination_rate,
    plan_tokens,
    render_csv,
    render_table,
    rouge_l_f1,
    score_example,
    text_tokens,
    tool_selection_scores,
)
from chainplan.plan import Plan, PrevRef, ToolCall, parse_plan, plan_to_data, serialize_plan

from conftest import random_plan


def _plan(*names: str) -> Plan:
    return Plan(tuple(ToolCall(name) for name in names))


# ---------------------------------------------------------------------------
# Tool selection
# ---------------------------------------------------------------------------

def test_identical_plans_score_perfect():
    plan = _plan("A", "B", "C")
    assert tool_selection_scores(plan, plan) == (0.0, 1.0, 0.0)


def test_one_irrelevant_tool():
    ir, nr, mr = tool_selection_scores(_plan("A", "B", "C"), _plan("A", "B"))
    assert ir == pytest.approx(1 / 3)
    assert nr == pytest.approx(2 / 3)
    assert mr == 0.0


def test_multiset_semantics_for_missing():
    ir, nr, mr = tool_selection_scores(_plan("A"), _plan("A", "B", "B"))
    assert ir == 0.0
    assert nr == 1.0
    assert mr == pytest.approx(2 / 3)


def test_empty_prediction():
    assert tool_selection_scores(_plan(), _plan("A")) == (0.0, 0.0, 1.0)


def _oracle_selection(pred_names, gold_names):
    # independent counting: remove matches one by one from a gold pool
    pool = list(gold_names)
    necessary = 0
    for name in pred_names:
        if name in pool:
            pool.remove(name)
            necessary += 1
    irrelevant = len(pred_names) - necessary
    missing = len(pool)
    ir = irrelevant / len(pred_names) if pred_names else 0.0
    nr = necessary / len(pred_names) if pred_names else 0.0
    mr = missing / len(gold_names) if gold_names else 0.0
    return ir, nr, mr


def test_selection_matches_oracle_on_random_pairs():
    rng = random.Random(8)
    names = tuple(f"t{i}" for i in range(6))
    for _ in range(300):
        pred = _plan(*(rng.choice(names) for _ in range(rng.randint(0, 6))))
        gold = _plan(*(rng.choice(names) for _ in range(rng.randint(0, 6))))
        got = tool_selection_scores(pred, gold)
        want = _oracle_selection(pred.tool_sequence, gold.tool_sequence)
        assert got == want
        if pred.calls:
            assert got[0] + got[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Hallucination rate
# ---------------------------------------------------------------------------

def test_hr_zero_on_valid_plan(fixture_registry):
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", (PrevRef(0),)),)),
    ))
    assert hallucination_rate(plan, fixture_registry) == 0.0


def test_hr_unknown_tool_is_total(fixture_registry):
    plan = _plan("made_up_tool")
    assert hallucination_rate(plan, fixture_registry) == 1.0


def test_hr_quarter_for_one_bad_argument(fixture_registry):
    # 2 calls, 4 units total (2 tool names + 2 arguments), one bad arg name
    plan = Plan((
        ToolCall("works_list", (("type", "issue"),)),
        ToolCall("summarize_objects", (("bogus", 1),)),
    ))
    assert hallucination_rate(plan, fixture_registry) == 0.25


def test_hr_counts_forward_reference(fixture_registry):
    plan = Plan((ToolCall("works_list", (("owned_by", (PrevRef(3),)),)),))
    assert hallucination_rate(plan, fixture_registry) == 0.5  # 1 of 2 units


def test_hr_counts_prev_like_literal(fixture_registry):
    plan = Plan((
        ToolCall("who_am_i"),
        ToolCall("works_list", (("owned_by", ("$$PREV[x]",)),)),
    ))
    assert hallucination_rate(plan, fixture_registry) == pytest.approx(1 / 3)


def test_hr_counts_reference_with_trailing_newline(fixture_registry):
    from chainplan.plan import parse_plan

    plan = parse_plan(
        '[{"tool_name":"who_am_i","arguments":[]},{"tool_name":"works_list","arguments":'
        '[{"argument_name":"owned_by","argument_value":["$$PREV[0]\\n"]}]}]'
    ).plan
    assert hallucination_rate(plan, fixture_registry) == pytest.approx(1 / 3)


def test_hr_empty_plan(fixture_registry):
    assert hallucination_rate(Plan(), fixture_registry) == 0.0


# ---------------------------------------------------------------------------
# BLEU / ROUGE
# ---------------------------------------------------------------------------

def test_bleu_identical_streams():
    tokens = text_tokens('[{"tool_name":"who_am_i","arguments":[]}]')
    assert bleu(tokens, tokens) == pytest.approx(1.0, abs=1e-9)


def test_bleu_disjoint_unigrams_is_zero():
    assert bleu(["a", "b", "c"], ["x", "y", "z"]) == 0.0


def reference_bleu(pred, gold):
    """Literal transcription of the pinned formula, no Counter tricks."""
    if not pred:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        pred_ngrams = [tuple(pred[i:i + n]) for i in range(len(pred) - n + 1)]
        gold_ngrams = [tuple(gold[i:i + n]) for i in range(len(gold) - n + 1)]
        matches = 0
        remaining = list(gold_ngrams)
        for gram in pred_ngrams:
            if gram in remaining:
                remaining.remove(gram)
                matches += 1
        total = len(pred_ngrams)
        if n == 1:
            if matches == 0:
                return 0.0
            p = matches / total
        elif matches == 0:
            p = 1.0 / (total + 1)
        else:
            p = matches / total
        log_sum += 0.25 * math.log(p)
    brevity = math.exp(1 - len(gold) / len(pred)) if len(pred) < len(gold) else 1.0
    return brevity * math.exp(log_sum)


def test_bleu_prefix_half_applies_brevity_penalty():
    gold = [str(i) for i in range(12)]
    pred = gold[:6]
    expected = reference_bleu(pred, gold)
    got = bleu(pred, gold)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got < math.exp(-1) + 1e-9  # brevity alone caps it at e^-1


def test_bleu_matches_reference_on_random_pairs():
    rng = random.Random(21)
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(50):
        pred = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        gold = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        assert bleu(pred, gold) == pytest.approx(reference_bleu(pred, gold), abs=1e-12)


def test_bleu_empty_gold_errors():
    with pytest.raises(ValueError):
        bleu(["a"], [])


def oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def test_rouge_identical_and_disjoint():
    assert rouge_l_f1(["a", "b"], ["a", "b"]) == 1.0
    assert rouge_l_f1(["a"], ["b"]) == 0.0


def test_rouge_refuses_empty_gold_and_scores_empty_prediction_zero():
    with pytest.raises(ValueError, match=r"^gold token stream must not be empty$"):
        rouge_l_f1(["a"], [])
    assert rouge_l_f1([], ["a", "b"]) == 0.0


def test_rouge_hand_example():
    assert rouge_l_f1(["a", "x", "b", "y"], ["a", "b"]) == pytest.approx(2 / 3)


def test_rouge_matches_dp_oracle():
    rng = random.Random(12)
    vocab = list("abcdef")
    for _ in range(100):
        pred = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        gold = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        lcs = oracle_lcs(pred, gold)
        if lcs == 0:
            expected = 0.0
        else:
            p = lcs / len(pred)
            r = lcs / len(gold)
            expected = 2 * p * r / (p + r)
        assert rouge_l_f1(pred, gold) == pytest.approx(expected, abs=1e-12)


_LCS_TOKENS = st.sampled_from(["{", "}", "[", "]", ",", ":", '"', "tool_name", "a", "b", "$$PREV[0]"])
_LONG_A = [["{", "a", ",", "b", "}"][i % 5] for i in range(1100)]
_LONG_B = [["a", "{", "b", "b", ",", "}", "["][i * 7 % 11 % 7] for i in range(1030)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_LCS_TOKENS, max_size=150), st.lists(_LCS_TOKENS, max_size=150))
@example([], [])
@example([], ["a", "b"])
@example(["a", "b"], [])
@example(["a"] * 70, ["a", "b"] * 40)
@example(_LONG_A, _LONG_B)
@example(_LONG_B, _LONG_A[:65])
# b across the 30-bit digit edges of CPython's ints and the 64-bit word edge,
# b wholly in a, and a holding tokens that b lacks.
@example(_LONG_B[:40], _LONG_A[:29])
@example(_LONG_B[:40], _LONG_A[:30])
@example(_LONG_B[:40], _LONG_A[:31])
@example(_LONG_B[:80], _LONG_A[:63])
@example(_LONG_B[:80], _LONG_A[:64])
@example(_LONG_B[:80], _LONG_A[:65])
@example(_LONG_A[:70], _LONG_A[:64])
@example(["x", "{", "y", "a", "z"] * 14, _LONG_A[:64])
@example(["x", "y"] * 40, _LONG_A[:31])
def test_lcs_length_matches_dp_oracle(a, b):
    assert _lcs_length(a, b) == oracle_lcs(a, b)


def counter_bleu(predicted_tokens, gold_tokens):
    """BLEU counting every n-gram of both whole streams with Counter, as
    ``bleu`` did before it stripped the shared ends: the exact reference."""
    if not gold_tokens:
        raise ValueError("gold token stream must not be empty")
    if not predicted_tokens:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        pred_ngrams = Counter(zip(*(predicted_tokens[k:] for k in range(n))))
        gold_ngrams = Counter(zip(*(gold_tokens[k:] for k in range(n))))
        matches = sum((pred_ngrams & gold_ngrams).values())
        total = sum(pred_ngrams.values())
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


# Few distinct tokens, so that the middles repeat n-grams of the shared ends.
_EDIT_TOKENS = st.sampled_from(["{", "}", "[", ",", '"', "a", "b"])


@st.composite
def _edited_pairs(draw):
    """A random stream and a copy after one to three span edits (insert,
    delete, replace, or swap of two neighbouring spans), in either order."""
    stream = draw(st.lists(_EDIT_TOKENS, max_size=60))
    edited = list(stream)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "swap"]))
        i = draw(st.integers(0, len(edited)))
        j = draw(st.integers(i, min(len(edited), i + 4)))
        if kind == "insert":
            edited[i:i] = draw(st.lists(_EDIT_TOKENS, min_size=1, max_size=4))
        elif kind == "delete":
            del edited[i:j]
        elif kind == "replace":
            edited[i:j] = draw(st.lists(_EDIT_TOKENS, min_size=1, max_size=4))
        else:
            k = draw(st.integers(j, min(len(edited), j + 4)))
            edited[i:k] = edited[j:k] + edited[i:j]
    return (edited, stream) if draw(st.booleans()) else (stream, edited)


_STREAM = list('[{"a":"b",[a,b]},{"b":[a]}]')


@settings(max_examples=400, deadline=None)
@given(_edited_pairs())
@example((_STREAM, list(_STREAM)))
@example((_STREAM[:9], _STREAM))
@example((_STREAM, _STREAM[:9]))
@example((_STREAM[-9:], _STREAM))
@example((_STREAM, _STREAM[-9:]))
# the prefix and the suffix would overlap if each were taken on its own
@example((["x"] * 5, ["x"] * 3))
@example((["x"] * 3, ["x"] * 5))
@example((["a", "b", "a"], ["a", "b", "a", "b", "a"]))
# too short for 3- and 4-grams
@example(([], ["a"]))
@example((["a"], ["a"]))
@example((["a"], ["b"]))
@example((["a", "b"], ["a", "c", "b"]))
@example((["a", "b", "c"], ["a", "c"]))
@example((["a", "b", "c", "d"], ["a", "b", "d", "d"]))
@example((["a", "b", "c", "d"], ["b", "c", "d"]))
# edits at index 0 and at the last index
@example((["x"] + _STREAM[1:], _STREAM))
@example((_STREAM[:-1] + ["x"], _STREAM))
@example((["x"] + _STREAM[1:-1] + ["y"], _STREAM))
# a one-token middle
@example((_STREAM[:12] + ["x"] + _STREAM[12:], _STREAM))
@example((_STREAM[:12] + ["x"] + _STREAM[13:], _STREAM))
def test_scores_of_pairs_sharing_their_ends_are_exact(pair):
    predicted, gold = pair
    p, s = _shared_ends(predicted, gold)
    assert p + s <= min(len(predicted), len(gold))
    assert predicted[:p] == gold[:p]
    assert predicted[len(predicted) - s:] == gold[len(gold) - s:]
    # and each is the longest: the prefix up to the shorter stream, the
    # suffix up to the tokens the prefix leaves
    limit = min(len(predicted), len(gold))
    assert p == limit or predicted[p] != gold[p]
    assert s == limit - p or predicted[len(predicted) - s - 1] != gold[len(gold) - s - 1]
    assert _lcs_length(predicted, gold) == oracle_lcs(predicted, gold)
    if gold:
        assert bleu(predicted, gold) == counter_bleu(predicted, gold)
        ends = (p, s)
        assert (bleu(predicted, gold, ends=ends), rouge_l_f1(predicted, gold, ends=ends)) == (
            bleu(predicted, gold), rouge_l_f1(predicted, gold))


def _perturbed(rng: random.Random, plan: Plan) -> Plan:
    """``plan`` after one to four call edits: a call dropped, fresh calls
    inserted, a tool renamed, or two neighbouring calls swapped."""
    calls = list(plan.calls)
    for _ in range(rng.randint(1, 4)):
        edit = rng.randrange(4)
        if edit == 0 and calls:
            del calls[rng.randrange(len(calls))]
        elif edit == 1:
            at = rng.randint(0, len(calls))
            calls[at:at] = random_plan(rng, max_calls=2).calls
        elif edit == 2 and calls:
            at = rng.randrange(len(calls))
            calls[at] = ToolCall(f"tool{rng.randrange(8)}", calls[at].arguments)
        elif edit == 3 and len(calls) > 1:
            at = rng.randrange(len(calls) - 1)
            calls[at], calls[at + 1] = calls[at + 1], calls[at]
    return Plan(tuple(calls))


def test_long_plan_scores_are_pinned():
    # sha256 over float.hex of BLEU and ROUGE-L F1 for 200 seeded plans of up
    # to 24 calls (up to 1,339 tokens), each scored against a perturbed
    # copy: the golden set's short plans do not reach these lengths.
    import hashlib

    rng = random.Random(32)
    digest = hashlib.sha256()
    longest = 0
    for _ in range(200):
        plan = random_plan(rng, max_calls=24)
        gold, predicted = plan_tokens(plan), plan_tokens(_perturbed(rng, plan))
        longest = max(longest, len(gold), len(predicted))
        for score in (bleu(predicted, gold), rouge_l_f1(predicted, gold)):
            digest.update(score.hex().encode("ascii"))
    assert longest > 1000
    assert digest.hexdigest() == "e915da6d5915b3cb979709010956729f76104787b6fcbe622d12358ed51e5ede"


# ---------------------------------------------------------------------------
# Correct path, tokenizer
# ---------------------------------------------------------------------------

def test_correct_path_cases():
    assert correct_path(_plan("A", "B"), _plan("A", "B")) is True
    assert correct_path(_plan("A", "X", "B"), _plan("A", "B")) is True
    assert correct_path(_plan("B", "A"), _plan("A", "B")) is False
    assert correct_path(_plan(), _plan()) is True


def test_correct_path_reflexive_on_random_plans():
    rng = random.Random(2)
    for _ in range(50):
        plan = random_plan(rng)
        assert correct_path(plan, plan) is True


def test_tokenizer_keeps_structural_chars():
    tokens = text_tokens('[{"a":1}]')
    assert tokens == ["[", "{", '"', "a", '"', ":", "1", "}", "]"]


def _scanned_tokens(text: str) -> list[str]:
    # reference: each character scanned once, str.isspace() separating runs
    tokens, run = [], ""
    for ch in text:
        if ch in '{}[],:"' or ch.isspace():
            tokens += [run] if run else []
            tokens += [ch] if not ch.isspace() else []
            run = ""
        else:
            run += ch
    return tokens + ([run] if run else [])


@given(st.text(alphabet=st.sampled_from('{}[],:"ab1 \t\n\x0b\x1c\x85\xa0\u2028\u3000$'), max_size=40) | st.text(max_size=40))
@example(' \x1c{"a b":[1,\u3000"$$PREV[0]"]}\x85')
def test_tokenizer_matches_a_character_scan(text):
    assert text_tokens(text) == _scanned_tokens(text)


def test_plan_tokens_serialization_stable():
    plan = Plan((ToolCall("who_am_i"),))
    assert plan_tokens(plan) == text_tokens(serialize_plan(plan))


# ---------------------------------------------------------------------------
# Dataset evaluation
# ---------------------------------------------------------------------------

def test_evaluate_perfect_prediction(fixture_registry):
    plan = Plan((ToolCall("who_am_i"),))
    record = EvalRecord(query="q", gold=plan, predicted_text=serialize_plan(plan))
    report = evaluate_dataset([record], fixture_registry)
    agg = report.aggregates
    assert agg["ir"] == 0.0
    assert agg["nr"] == 1.0
    assert agg["mr"] == 0.0
    assert agg["hr"] == 0.0
    assert agg["bleu"] == pytest.approx(1.0, abs=1e-9)
    assert agg["rouge_l_f1"] == 1.0
    assert agg["invalid_json_rate"] == 0.0
    assert agg["correct_path_rate"] == 1.0


def test_evaluate_mixed_with_unparseable(fixture_registry):
    plan = Plan((ToolCall("who_am_i"),))
    good = EvalRecord(query="a", gold=plan, predicted_text=serialize_plan(plan))
    bad = EvalRecord(query="b", gold=plan, predicted_text="{broken")
    report = evaluate_dataset([good, bad], fixture_registry)
    assert report.aggregates["invalid_json_rate"] == 0.5
    # tool metrics averaged over the single parsed record
    assert report.aggregates["nr"] == 1.0
    assert report.counts["parsed"] == 1


def test_evaluate_identical_examples_equal_single(fixture_registry):
    plan = Plan((ToolCall("who_am_i"), ToolCall("get_sprint_id")))
    pred = Plan((ToolCall("who_am_i"), ToolCall("works_list")))
    record = EvalRecord(query="q", gold=plan, predicted_text=serialize_plan(pred))
    single = evaluate_dataset([record], fixture_registry).aggregates
    triple = evaluate_dataset([record] * 3, fixture_registry).aggregates
    for key in ("ir", "nr", "mr", "hr", "bleu", "rouge_l_f1"):
        assert triple[key] == pytest.approx(single[key])


def test_evaluate_empty_dataset_errors(fixture_registry):
    with pytest.raises(ValueError):
        evaluate_dataset([], fixture_registry)


def test_evaluate_refuses_a_trace_count_other_than_the_record_count(fixture_registry):
    plan = Plan((ToolCall("who_am_i"),))
    record = EvalRecord(query="q", gold=plan, predicted_text=serialize_plan(plan))
    trace = SimpleNamespace(llm_calls=1, prompt_tokens=10, completion_tokens=5)
    for traces in ([], [trace], [trace] * 3):
        with pytest.raises(ValueError, match=f"^{len(traces)} traces for 2 records$"):
            evaluate_dataset([record, record], fixture_registry, traces=traces)
    counts = evaluate_dataset([record, record], fixture_registry, traces=[trace, trace]).counts
    assert (counts["llm_calls"], counts["prompt_tokens"], counts["completion_tokens"]) == (2, 20, 10)


def test_each_parsed_record_searches_its_shared_ends_once(fixture_registry, golden_examples, monkeypatch):
    import chainplan.metrics as metrics

    calls = []

    def counted(a, b):
        calls.append((a, b))
        return _shared_ends(a, b)

    monkeypatch.setattr(metrics, "_shared_ends", counted)
    gold = golden_examples[3].gold
    predicted = [
        serialize_plan(gold),  # identical
        serialize_plan(Plan(gold.calls[:-1])),  # shares a prefix
        serialize_plan(Plan(gold.calls[1:])),  # shares a suffix
        "[]",
        "{broken",  # invalid JSON: never tokenized
    ]
    records = [EvalRecord("q", gold, text) for text in predicted]
    report = evaluate_dataset(records, fixture_registry)
    assert report.counts["parsed"] == 4
    gold_tokens = plan_tokens(gold)
    # the gold's canonical text is scored 1.0 untokenized, so never searched
    assert calls == [(plan_tokens(parse_plan(text).plan), gold_tokens) for text in predicted[1:4]]
    assert (gold_tokens, gold_tokens) not in calls


def reference_score(record, registry):
    """``score_example`` tokenizing and scoring every parsed record, as it
    did before a prediction that is its gold's canonical text was scored
    1.0 untokenized."""
    outcome = parse_plan(record.predicted_text)
    if not outcome.ok:
        return ExampleScores(query=record.query, invalid_json=True)
    predicted = outcome.plan
    ir, nr, mr = tool_selection_scores(predicted, record.gold)
    predicted_tokens, gold_tokens = plan_tokens(predicted), plan_tokens(record.gold)
    ends = _shared_ends(predicted_tokens, gold_tokens)
    return ExampleScores(
        query=record.query, invalid_json=False, ir=ir, nr=nr, mr=mr,
        hr=hallucination_rate(predicted, registry),
        bleu=bleu(predicted_tokens, gold_tokens, ends=ends),
        rouge_l_f1=rouge_l_f1(predicted_tokens, gold_tokens, ends=ends),
        correct_path=correct_path(predicted, record.gold),
    )


_GOLD_WITH_ONE = Plan((ToolCall("who_am_i"), ToolCall("works_list", (("limit", 1), ("owned_by", (PrevRef(0),))))))
_GOLD_WITH_A_REFERENCE_STRING = Plan((ToolCall("who_am_i"), ToolCall("works_list", (("owned_by", ("$$PREV[0]",)),))))


@st.composite
def _predictions(draw):
    """A gold plan over the fixture's tool names and unknown ones, with its
    canonical text, the same plan as indented JSON, or a perturbed plan."""
    rng = draw(st.randoms(use_true_random=False))
    names = ("who_am_i", "works_list", "get_sprint_id", "summarize_objects", "ghost_tool")
    gold = random_plan(rng, tool_names=names, max_calls=draw(st.integers(0, 12)))
    kind = draw(st.sampled_from(["canonical", "indented", "perturbed"]))
    if kind == "canonical":
        text = serialize_plan(gold)
    elif kind == "indented":
        text = json.dumps(plan_to_data(gold), indent=1)
    else:
        text = serialize_plan(_perturbed(rng, gold))
    return EvalRecord("q", gold, text)


@settings(max_examples=300, deadline=None)
@given(_predictions())
# parsed plans that compare equal while their texts differ: 1.0 == 1
@example(EvalRecord("q", _GOLD_WITH_ONE, serialize_plan(_GOLD_WITH_ONE).replace(":1}", ":1.0}")))
@example(EvalRecord("q", _GOLD_WITH_ONE, serialize_plan(_GOLD_WITH_ONE)))
# a hand-built string that reads as a reference: the texts are equal, the plans are not
@example(EvalRecord("q", _GOLD_WITH_A_REFERENCE_STRING, serialize_plan(_GOLD_WITH_A_REFERENCE_STRING)))
@example(EvalRecord("q", Plan(), "[]"))
@example(EvalRecord("q", Plan(), "[ ]"))
@example(EvalRecord("q", Plan(), "{broken"))
def test_score_example_equals_the_tokenizing_reference(fixture_registry, record):
    assert score_example(record, fixture_registry) == reference_score(record, fixture_registry)


def test_report_renderings(fixture_registry):
    plan = Plan((ToolCall("who_am_i"),))
    record = EvalRecord(query="q", gold=plan, predicted_text=serialize_plan(plan))
    report = evaluate_dataset([record], fixture_registry)
    table = render_table(report)
    assert "IR ↓" in table and "NR ↑" in table
    csv = render_csv(report)
    assert csv.splitlines()[0].startswith("ir,nr,hr,mr")
    assert report.to_json()


def test_eval_report_is_pinned(fixture_registry, golden_examples):
    # sha256 over the report's JSON, table and CSV for the golden set scored
    # against itself and against fixed damaged predictions: invalid JSON, a
    # fabricated tool, a forward reference and an empty plan.
    import hashlib

    records = [EvalRecord(ex.query, ex.gold, ex.gold_text) for ex in golden_examples]
    damaged = [
        golden_examples[0].gold_text[:-1] + ",]",
        golden_examples[1].gold_text.replace("summarize_objects", "summarise_objects"),
        golden_examples[2].gold_text.replace("$$PREV[1]", "$$PREV[3]"),
        "[]",
    ]
    records += [EvalRecord(ex.query, ex.gold, text) for ex, text in zip(golden_examples, damaged)]
    report = evaluate_dataset(records, fixture_registry)
    digest = hashlib.sha256()
    for text in (report.to_json(), render_table(report), render_csv(report)):
        digest.update(text.encode("utf-8"))
    assert report.aggregates["invalid_json_rate"] == 1 / 14
    assert digest.hexdigest() == "f7240c129ecf422ddd5fa6f27e11dff74a1b513f324b88310727bf2c1a64e18f"


def test_all_zero_parsed_renders_dashes(fixture_registry):
    plan = Plan((ToolCall("who_am_i"),))
    record = EvalRecord(query="q", gold=plan, predicted_text="nope")
    report = evaluate_dataset([record], fixture_registry)
    assert report.aggregates["ir"] is None
    assert "-" in render_table(report)
