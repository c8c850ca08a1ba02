"""Tests of the benchmark's own code: seeded generators, the synthetic
registry, the tracer, the speed gauge, the latency windows, a short smoke pass
of each workload and the runner's refusal to run outside a source checkout."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import chainplan  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _fixture():
    return workloads._fixture_tools()


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]


@pytest.mark.parametrize("make", [
    lambda rng: gen.synthetic_registry(rng, _fixture(), 60),
    lambda rng: gen.synthetic_vocabulary(rng, 600),
    lambda rng: gen.eval_pairs(rng, _fixture(), 1),
    lambda rng: [gen.query_variant(rng, "Prioritize my work items", i) for i in range(20)],
    lambda rng: [gen.corrupt_response(rng, workloads._golden()[0][1], kind, set())
                 for kind in ("fabricated", "miswrapped") * 10],
    lambda rng: gen.cut_pieces(rng, gen.subtask_script(rng, workloads._golden()[2][1])),
], ids=["registry", "vocabulary", "eval-pairs", "queries", "corruptions", "subtask-script"])
def test_generators_repeat_for_a_seed_and_differ_across_seeds(make):
    assert make(random.Random(7)) == make(random.Random(7))
    assert make(random.Random(7)) != make(random.Random(8))


def test_workload_input_streams_repeat_for_a_seed():
    for make in (lambda s: workloads.RegainsWorkload(s, spans.NullTracer(), tools=30),
                 lambda s: workloads.EnchantWorkload(s, spans.NullTracer(), vocabulary_size=300)):
        assert _take(make(3).inputs(), 30) == _take(make(3).inputs(), 30)
        assert _take(make(3).inputs(), 30) != _take(make(4).inputs(), 30)


def test_synthetic_registries_validate_with_a_seed_independent_type_multiset():
    shapes = []
    for seed in (1, 2):
        docs = gen.synthetic_registry(random.Random(seed), _fixture(), 1000)
        registry = chainplan.load_registry(json.dumps(docs))
        assert len(registry) == 1000
        assert [d for d in chainplan.validate_registry(registry) if d.severity == "error"] == []
        shapes.append(Counter((d["return_type"], tuple((a["argument_type"], a["required"]) for a in d["arguments"]))
                              for d in docs))
    assert shapes[0] == shapes[1]


def test_eval_pairs_have_the_fixed_length_and_kind_multisets():
    pairs = gen.eval_pairs(random.Random(5), _fixture(), 2)
    assert sorted(len(gold) for gold, _, _ in pairs) == sorted(gen.LENGTH_BLOCK * 2)
    assert Counter(kind for _, _, kind in pairs) == Counter((gen.HEAD_KINDS + gen.TAIL_KINDS) * 2)


def test_vocabulary_is_distinct_and_full_size():
    vocabulary = gen.synthetic_vocabulary(random.Random(1), 8192)
    assert len(vocabulary) == len(set(vocabulary)) == 8192


def _smoke(workload, ops):
    for _ in range(workload.setup_repeats):
        workload.setup()
    _, failures, known, attempted = workloads.run_loop(workload, workload.inputs(), spans.NullTracer(), count=ops)
    assert attempted == ops
    return failures, known


def test_regains_smoke_pass(capsys):
    failures, known = _smoke(workloads.RegainsWorkload(11, spans.NullTracer(), tools=120), 100)
    assert failures == []
    with capsys.disabled():
        print(f"\nregains smoke: {known} of 100 outputs show the known self/forward reference defect")


def test_enchant_smoke_pass():
    failures, known = _smoke(workloads.EnchantWorkload(11, spans.NullTracer(), vocabulary_size=400), 3)
    assert failures == [] and known == 0


def test_eval_smoke_pass(tmp_path):
    workload = workloads.EvalWorkload(11, spans.NullTracer(), tmp_path, blocks=1)
    failures, known = _smoke(workload, 100)
    assert failures == [] and known == 0


def test_check_rejects_wrong_outputs(tmp_path):
    workload = workloads.EvalWorkload(11, spans.NullTracer(), tmp_path, blocks=1)
    workload.setup()
    record, kind, calls = next(k for k in workload.inputs() if k[1] == "identity")
    wrong = chainplan.EvalRecord(query=record.query, gold=record.gold, predicted_text="[]")
    assert workload.check((record, kind, calls), workload.run((wrong, kind, calls))) is not None

    tools = {"who_am_i": set(), "works_list": {"owned_by"}}
    assert workloads.plan_problems('[{"tool_name":"nope","arguments":[]}]', tools)[0]
    forward = '[{"tool_name":"works_list","arguments":[{"argument_name":"owned_by","argument_value":["$$PREV[0]"]}]}]'
    assert workloads.plan_problems(forward, tools) == ([], ["$$PREV[0] at call 0"])


def test_tracer_attributes_self_time_and_restores_the_program():
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "chainplan"}
    original = chainplan.pipelines.retrieve_top_k
    original_build = vars(chainplan.pipelines.PlannerContext)["build"]
    tracer = spans.Tracer()
    workload = workloads.RegainsWorkload(2, tracer, tools=40)
    tracer.install(modules)
    try:
        workload.setup()
        workloads.run_loop(workload, workload.inputs(), tracer, count=20)
    finally:
        tracer.restore()
    assert chainplan.pipelines.retrieve_top_k is original
    assert vars(chainplan.pipelines.PlannerContext)["build"] is original_build
    metrics = spans.per_layer_metrics(tracer, tracer.root_time())
    assert metrics["pipelines.run_regains.calls"][0] == 20
    assert metrics["retrieval.retrieve_top_k.calls"][0] == 40
    assert metrics["retrieval.items_scored"][0] == 20 * (40 + 10)
    assert metrics["harness.unattributed_s"][0] == 0.0
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(tracer.root_time(), rel=1e-9)


def test_speed_gauge_scales_each_time_by_the_reference_times_around_it():
    gauge = speed.SpeedGauge()
    for t in range(100):
        gauge.times.append(float(t))
        gauge.durations.append(speed.REFERENCE_S * (2.0 if t < 50 else 1.0))
    assert gauge.scaled([(10.5, 0.4), (80.5, 0.4)]) == [0.2, 0.4]
    gauge.sample()
    assert len(gauge.durations) == 101 and gauge.durations[-1] > 0


def test_latency_samples_are_means_of_consecutive_windows():
    import run

    assert run.windows([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 4, 2) == [2.5, 4.5]
    assert run.windows([3.0, 1.0, 2.0], 1, 1) == [3.0, 1.0, 2.0]


def test_runner_refuses_without_a_source_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-long-plans", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
