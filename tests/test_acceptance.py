"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from chainplan.enforcer import DecoderSession, compile_schema, enforced_repair
from chainplan.executor import apply_operator, OperatorError, register_operator_tools
from chainplan.llm import ScriptedModel, estimate_tokens
from chainplan.metrics import bleu, hallucination_rate, rouge_l_f1, tool_selection_scores
from chainplan.pipelines import PipelineConfig, PlannerContext, assemble_rap_prompt, run_enchant, run_regains
from chainplan.plan import Plan, ToolCall, parse_plan, serialize_plan, iter_prev_refs
from chainplan.retrieval import HashEmbeddingProvider, cosine, index_corpus, retrieve_top_k, top_n_recall
from chainplan.typegraph import TypeEdge, build_graph, check_ref, repair_plan

from conftest import (
    enchant_replay_entries,
    random_plan,
    random_registry,
    regains_replay_entries,
)
from test_metrics import _oracle_selection, oracle_lcs, reference_bleu


def _report(criterion: int, summary: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion}: PASS - {summary}")


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence
# ---------------------------------------------------------------------------

def _oracle_hr(plan: Plan, registry) -> float:
    """Independent per-unit count, written as literal rule checks."""
    units = 0
    bad = 0
    for position, call in enumerate(plan.calls):
        spec = registry.get(call.tool_name)
        units += 1
        if spec is None:
            bad += 1
        for arg_name, value in call.arguments:
            units += 1
            if spec is None:
                bad += 1
                continue
            if spec.argument(arg_name) is None:
                bad += 1
                continue
            flagged = False
            for ref in iter_prev_refs(value):
                if ref.index >= position or ref.index < 0:
                    flagged = True
            def prev_like(v):
                if isinstance(v, str):
                    text = v
                    if text.startswith("$$PREV"):
                        import re

                        if not re.fullmatch(r"\$\$PREV\[(0|[1-9][0-9]*)\]", text):
                            return True
                if isinstance(v, tuple):
                    return any(prev_like(e) for e in v)
                return False

            if flagged or prev_like(value):
                bad += 1
    return bad / units if units else 0.0


def test_criterion_1_metric_oracle_equivalence(fixture_registry):
    rng = random.Random(101)
    started = time.monotonic()
    names = tuple(f"t{i}" for i in range(6))
    registry_names = fixture_registry.names
    for case in range(200):
        pred = random_plan(rng, tool_names=names, max_calls=6)
        gold = random_plan(rng, tool_names=names, max_calls=6)
        ir, nr, mr = tool_selection_scores(pred, gold)
        oir, onr, omr = _oracle_selection(pred.tool_sequence, gold.tool_sequence)
        assert (ir, nr, mr) == (oir, onr, omr), f"case {case}"
        if pred.calls:
            assert ir + nr == pytest.approx(1.0, abs=1e-15)
        # HR oracle over plans drawn against the real registry
        hr_plan = random_plan(rng, tool_names=registry_names + ("ghost_tool",), max_calls=6)
        assert hallucination_rate(hr_plan, fixture_registry) == _oracle_hr(hr_plan, fixture_registry)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, f"IR/NR/MR/HR match brute-force oracle on 200 random pairs in {elapsed:.2f}s; IR+NR=1 throughout")


# ---------------------------------------------------------------------------
# 2. ROUGE-L and BLEU oracles
# ---------------------------------------------------------------------------

def test_criterion_2_solution_metric_oracles():
    rng = random.Random(202)
    vocab = [f"tok{i}" for i in range(12)]
    for _ in range(200):
        pred = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        gold = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        lcs = oracle_lcs(pred, gold)
        if lcs == 0:
            expected = 0.0
        else:
            precision = lcs / len(pred)
            recall = lcs / len(gold)
            expected = 2 * precision * recall / (precision + recall)
        assert abs(rouge_l_f1(pred, gold) - expected) < 1e-12
    for _ in range(20):
        stream = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        assert abs(bleu(stream, stream) - 1.0) < 1e-9
    for _ in range(50):
        pred = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        gold = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
        assert bleu(pred, gold) == pytest.approx(reference_bleu(pred, gold), abs=1e-12)
    _report(2, "ROUGE-L F1 matches the O(nm) LCS dynamic program within 1e-12 on 200 streams; "
               "BLEU is 1.0 on identical streams and matches the pinned formula on 50 random pairs")


# ---------------------------------------------------------------------------
# 3. Enforcer soundness
# ---------------------------------------------------------------------------

def test_criterion_3_enforcer_soundness(fixture_registry, golden_examples):
    started = time.monotonic()
    automaton = compile_schema(fixture_registry)
    rng = random.Random(303)

    walks = 0
    sampled_states: list = []
    for _ in range(1000):
        session = DecoderSession(automaton)
        steps = 0
        while not session.at_end:
            allowed = session.automaton.allowed(session.state)
            session.advance(rng.choice(sorted(allowed)))
            steps += 1
            assert steps < 100_000, "depth cap exceeded"
        outcome = parse_plan(session.emitted)
        assert outcome.ok, session.emitted[:200]
        for call in outcome.plan.calls:
            spec = fixture_registry.get(call.tool_name)
            assert spec is not None, call.tool_name
            for name, _ in call.arguments:
                assert spec.argument(name) is not None, (call.tool_name, name)
        walks += 1
        if walks % 100 == 0:
            sampled_states.append(session.emitted)

    # mask/advance consistency on sampled (state, token) pairs: a true mask
    # must advance cleanly, a false mask must be rejected
    from chainplan.enforcer import DecodeRejection

    tokens = ['{"tool_name":"', "who_am_i", "works", "]", "}", ',"arguments":[]', "$$PREV[0]", '"]']
    pairs = 0
    allowed_pairs = 0
    for _ in range(300):
        session = DecoderSession(automaton)
        depth = rng.randint(0, 60)
        for _ in range(depth):
            if session.at_end:
                break
            allowed = session.automaton.allowed(session.state)
            session.advance(rng.choice(sorted(allowed)))
        probe_tokens = list(tokens)
        if not session.at_end:
            allowed = session.automaton.allowed(session.state)
            head = rng.choice(sorted(allowed))
            probe_tokens.append(head)
            probe_tokens.append(head + rng.choice(sorted(allowed)))
        for token in probe_tokens:
            ok = session.mask_vocabulary([token])[0]
            if ok:
                session.copy().advance(token)  # must not raise
                allowed_pairs += 1
            else:
                with pytest.raises(DecodeRejection):
                    session.copy().advance(token)
            pairs += 1
    assert allowed_pairs > 100

    # idempotence and identity
    valid_texts = [ex.gold_text for ex in golden_examples]
    while len(valid_texts) < 100:
        plan = random_plan(rng, tool_names=("who_am_i", "get_sprint_id"), max_calls=3)
        calls = tuple(ToolCall(call.tool_name) for call in plan.calls)
        valid_texts.append(serialize_plan(Plan(calls)))
    for text in valid_texts[:100]:
        out, edits = enforced_repair(automaton, text)
        assert out == text and edits == [], text
    garbage_cases = 0
    for _ in range(100):
        garbage = "".join(rng.choice('[]{}",:aw$PREV01xyz_') for _ in range(rng.randint(0, 80)))
        once, _ = enforced_repair(automaton, garbage)
        twice, edits = enforced_repair(automaton, once)
        assert twice == once and edits == []
        assert parse_plan(once).ok
        garbage_cases += 1

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, f"1000 random walks parse with known names, mask/advance consistent on {pairs} pairs, "
               f"repair idempotent+identity on 100 valid plans and {garbage_cases} garbage cases in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Hallucination elimination at scale
# ---------------------------------------------------------------------------

def _corrupt_cases(golden_examples, total=100):
    """Deterministic case list: 30% corrupted (12 trailing commas, 15 name
    corruptions, 3 mis-wrapped references), 70% clean."""
    cases = []
    for i in range(total):
        example = golden_examples[i % len(golden_examples)]
        text = example.gold_text
        kind = "clean"
        if i % 100 < 12:
            kind = "invalid_json"
            text = text[:-1] + ",]" if text.endswith("]") else text + ","
        elif i % 100 < 27:
            kind = "hallucinated"
            corrupted = parse_plan(text).plan
            calls = []
            for position, call in enumerate(corrupted.calls):
                args = call.arguments
                if position == 0 and args:
                    args = (("imaginary_" + args[0][0], args[0][1]),) + args[1:]
                calls.append(ToolCall("fab_" + call.tool_name, args))
            text = serialize_plan(Plan(tuple(calls)))
        elif i % 100 < 30:
            kind = "miswrapped"
            if '["$$PREV[' in text:
                text = text.replace('["$$PREV[0]"]', '"$$PREV[0]"', 1)
            else:
                text = text.replace('"$$PREV[0]"', '["$$PREV[0]"]', 1)
        cases.append((example, text, kind))
    return cases


def test_criterion_4_hallucination_elimination(fixture_registry, golden_examples):
    from chainplan.llm import CompletionRequest, fingerprint

    cases = _corrupt_cases(golden_examples, total=100)
    automaton = compile_schema(fixture_registry)
    graph = build_graph(fixture_registry)
    model = ScriptedModel({
        fingerprint(f"case-{i}"): text for i, (_, text, _) in enumerate(cases)
    })
    raw_outputs = [
        model.complete(CompletionRequest(prompt=f"case-{i}")).text
        for i in range(len(cases))
    ]

    # unenforced path: parse the model output as-is
    invalid = 0
    raw_hrs = []
    for text in raw_outputs:
        outcome = parse_plan(text)
        if not outcome.ok:
            invalid += 1
        else:
            raw_hrs.append(hallucination_rate(outcome.plan, fixture_registry))
    raw_invalid_rate = invalid / len(cases)
    raw_hr = sum(raw_hrs) / len(raw_hrs)
    assert raw_invalid_rate > 0.10, raw_invalid_rate
    assert raw_hr > 0.15, raw_hr

    # enforced + repair pipeline on the same outputs
    enforced_hrs = []
    enforced_invalid = 0
    for text in raw_outputs:
        projected, _ = enforced_repair(automaton, text)
        outcome = parse_plan(projected)
        if not outcome.ok:
            enforced_invalid += 1
            continue
        plan, _ = repair_plan(graph, outcome.plan)
        enforced_hrs.append(hallucination_rate(plan, fixture_registry))
    assert enforced_invalid == 0
    assert all(hr == 0.0 for hr in enforced_hrs)

    _report(4, f"unenforced: HR {raw_hr:.3f} > 0.15 and invalid-JSON {raw_invalid_rate:.2f} > 0.10; "
               f"enforced+repair: HR = 0 and invalid-JSON = 0 on the same 100 cases")


# ---------------------------------------------------------------------------
# 5. Type-graph oracle
# ---------------------------------------------------------------------------

def test_criterion_5_type_graph_oracle():
    rng = random.Random(505)
    for _ in range(50):
        registry = random_registry(rng, max_tools=8)
        graph = build_graph(registry)
        oracle = set()
        for src in registry.tools.values():
            for dst in registry.tools.values():
                for arg in dst.arguments:
                    if arg.value_type.render() == src.returns.render():
                        oracle.add(TypeEdge(src.name, dst.name, arg.name, 1))
                    elif arg.value_type.render() == f"array of {src.returns.render()}":
                        oracle.add(TypeEdge(src.name, dst.name, arg.name, 2))
        assert graph.edges == frozenset(oracle)

    def count_correct_post_repair(graph, registry, plan):
        once, _ = repair_plan(graph, plan)
        twice, _ = repair_plan(graph, once)
        assert twice == once
        assert once.tool_sequence == plan.tool_sequence
        checked = 0
        for position, call in enumerate(once.calls):
            for name, value in call.arguments:
                if not list(iter_prev_refs(value)):
                    continue
                found = check_ref(graph, once, position, name)
                if all(diag.kind != "incompatible" for diag in found):
                    assert found == []
                    checked += 1
        return checked

    checked_refs = 0
    for _ in range(100):
        registry = random_registry(rng, max_tools=8)
        graph = build_graph(registry)
        plan = random_plan(rng, tool_names=registry.names, max_calls=6)
        checked_refs += count_correct_post_repair(graph, registry, plan)

    # plans built directly from edges: every reference sits on a known edge
    # with randomly scrambled wrapping, so repair must fix each one
    from chainplan.plan import PrevRef as Ref
    from chainplan.registry import load_registry, fixture_tools_path

    fixture = load_registry(fixture_tools_path())
    fixture_graph = build_graph(fixture)
    edges = sorted(fixture_graph.edges, key=lambda e: (e.from_tool, e.to_tool, e.to_argument))
    for _ in range(100):
        edge = rng.choice(edges)
        ref = Ref(0)
        value = (ref,) if rng.random() < 0.5 else ref
        plan = Plan((
            ToolCall(edge.from_tool),
            ToolCall(edge.to_tool, ((edge.to_argument, value),)),
        ))
        checked = count_correct_post_repair(fixture_graph, fixture, plan)
        assert checked == 1, edge
        checked_refs += checked

    assert checked_refs > 100
    _report(5, f"graph matches triple-enumeration oracle on 50 registries; repair idempotent and "
               f"order-preserving on 200 plans; {checked_refs} post-repair references all correctly wrapped")


# ---------------------------------------------------------------------------
# 6. Retriever correctness
# ---------------------------------------------------------------------------

def test_criterion_6_retriever_correctness():
    rng = random.Random(606)

    class SeededProvider:
        provider_id = "seeded"
        dimension = 12

        def __init__(self, seed):
            self.seed = seed

        def embed(self, text):
            local = random.Random(f"{self.seed}:{text}")
            return [local.uniform(-1, 1) for _ in range(self.dimension)]

    for case in range(50):
        provider = SeededProvider(case)
        size = rng.randint(1, 50)
        corpus = index_corpus(provider, [(f"i{j:02d}", f"text {case}-{j}") for j in range(size)])
        k = rng.randint(1, 12)
        query = f"query {case}"
        got = retrieve_top_k(query, corpus, provider, k)
        qv = provider.embed(query)
        oracle = sorted(
            ((item.id, cosine(qv, list(item.vector))) for item in corpus.items),
            key=lambda pair: (-pair[1], pair[0]),
        )[:k]
        assert got == oracle

        ranked_all = [item_id for item_id, _ in retrieve_top_k(query, corpus, provider, size)]
        needed = set(rng.sample([item.id for item in corpus.items], min(size, rng.randint(1, 5))))
        last = 0.0
        for n in range(1, size + 1):
            value = top_n_recall(ranked_all, needed, n)
            assert value >= last - 1e-15
            last = value
    _report(6, "top-k equals the exhaustive-sort oracle on 50 random corpora; "
               "top-N recall monotone nondecreasing in N on every case")


# ---------------------------------------------------------------------------
# 7. End-to-end determinism and call accounting
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_replay(fixture_registry, golden_examples):
    assert len(golden_examples) == 10
    ctx = PlannerContext.build(fixture_registry, HashEmbeddingProvider(), golden_examples)
    config = PipelineConfig()

    regains_matches = 0
    for example in golden_examples:
        model = ScriptedModel(dict(regains_replay_entries(example, ctx, config)))
        trace = run_regains(example.query, ctx, model, config)
        assert trace.llm_calls == 1
        assert trace.final_plan.tool_sequence == example.gold.tool_sequence
        assert trace.final_text == example.gold_text
        regains_matches += 1

    enchant_matches = 0
    for example in golden_examples:
        model = ScriptedModel(dict(enchant_replay_entries(example, ctx, config)))
        trace = run_enchant(example.query, ctx, model, config)
        assert trace.llm_calls == 2
        assert trace.final_plan.tool_sequence == example.gold.tool_sequence
        assert trace.final_text == example.gold_text
        enchant_matches += 1

    # prompt budget: 17 retrieved tools + 2 worked examples under 4000 tokens
    extended = register_operator_tools(fixture_registry)
    budget_ctx = PlannerContext.build(extended, HashEmbeddingProvider(), golden_examples)
    budget_config = PipelineConfig(k=17, example_count=2)
    prompt, retrieved, example_ids = assemble_rap_prompt(
        "Prioritize my work items and add them to the current sprint", budget_ctx, budget_config
    )
    assert len(retrieved) == 17 and len(example_ids) == 2
    tokens = estimate_tokens(prompt)
    assert tokens < 4000, tokens

    _report(7, f"10/10 tool sequences reproduced by both pipelines (1 call single-prompt, 2 calls staged); "
               f"17-tool + 2-example prompt estimated at {tokens} tokens < 4000")


# ---------------------------------------------------------------------------
# 8. Executor arithmetic
# ---------------------------------------------------------------------------

def test_criterion_8_executor_arithmetic():
    import operator as op_mod

    rng = random.Random(808)
    reference = {
        "add": op_mod.add, "sub": op_mod.sub, "mul": op_mod.mul, "div": op_mod.truediv,
        "floordiv": op_mod.floordiv, "pow": op_mod.pow, "mod": op_mod.mod,
        "gt": op_mod.gt, "lt": op_mod.lt, "ge": op_mod.ge, "le": op_mod.le,
        "eq": op_mod.eq, "neq": op_mod.ne,
    }
    identity_checked = 0
    for _ in range(100):
        op = rng.choice(list(reference))
        a = rng.randint(-500, 500)
        b = rng.choice([n for n in range(-20, 21) if n != 0])
        if op == "pow":
            a, b = rng.randint(-9, 9), rng.randint(0, 6)
        got = apply_operator(op, a, b)
        want = reference[op](a, b)
        if isinstance(want, float):
            assert math.isclose(got, want, rel_tol=1e-12)
        else:
            assert got == want
        ia = rng.randint(-500, 500)
        ib = rng.choice([n for n in range(-20, 21) if n != 0])
        q = apply_operator("floordiv", ia, ib)
        r = apply_operator("mod", ia, ib)
        assert ia == ib * q + r
        if ib > 0:
            assert 0 <= r < ib
        identity_checked += 1

    with pytest.raises(OperatorError):
        apply_operator("div", 1, 0)
    with pytest.raises(OperatorError):
        apply_operator("mod", 3, 0)
    with pytest.raises(OperatorError):
        apply_operator("add", "text", 2)
    with pytest.raises(OperatorError):
        apply_operator("lt", True, 1)

    _report(8, f"100 random operand pairs match reference arithmetic; floor-division identity held on "
               f"{identity_checked} integer pairs; zero-division and kind-mismatch raise as specified")
