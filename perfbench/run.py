"""chainplan benchmark: one workload per process, single client, closed loop.

    python3 perfbench/run.py --workload regains-1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from its
``src`` directory. Every run does a fixed number of operations, set by the
workload and ``--seconds``, so that the same seed gives the same operations
and the same output checks. An untraced run (``--trace 0``) times set-up and
every operation and reports the end-to-end metrics; on the reference machine
it takes about ``--seconds``. A traced run (``--trace 1``) wraps the
program's public functions, runs fewer operations, reports self time and
counters per layer, then replays the same operations untraced to report the
tracing overhead. Fixed work lets per-layer figures of two commits be
compared directly.
``--workload all`` runs every workload untraced, each in its own process.
Every operation's output is checked; the last line of standard output is one
JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("regains-1k", "enchant-mask-8k", "eval-long-plans")
# Speed samples before each set-up: a 3-second set-up is scaled by the reference
# times just before and just after it.
SETUP_GAUGE_SAMPLES = 5


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def windows(seconds: list[float], window: int, stride: int) -> list[float]:
    """Means of ``window`` consecutive values, one every ``stride`` values."""
    return [statistics.fmean(seconds[i: i + window]) for i in range(0, len(seconds) - window + 1, stride)]


def make_workload(name: str, seed: int, tracer):
    if name == "eval-long-plans":
        workdir = ROOT / ".perfbench"
        workdir.mkdir(exist_ok=True)
        return workloads.EvalWorkload(seed, tracer, workdir)
    return workloads.WORKLOADS[name](seed, tracer)


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    tracer = spans.NullTracer()
    gauge = speed.SpeedGauge()
    workload = make_workload(name, seed, tracer)
    if hasattr(workload, "model"):
        workload.model.gauge = gauge
    setup_times = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        for _ in range(SETUP_GAUGE_SAMPLES):
            gauge.sample()
        started = perf_counter()
        workload.setup()
        setup_times.append((started, perf_counter() - started))
    # The deadline only stops a program far slower than the reference machine.
    op_times, failures, known, attempted = workloads.run_loop(
        workload, workload.inputs(), tracer, count=max(1, round(workload.rate * seconds)),
        deadline=perf_counter() + 3 * seconds, gauge=gauge)
    timed = workload.timed(op_times)
    raw = windows([s for _, s in timed], workload.window, workload.stride)
    scaled = gauge.scaled(timed)
    samples = windows(scaled, workload.window, workload.stride)
    metrics = {
        "setup_s": (statistics.median(gauge.scaled(setup_times)), "s"),
        "op_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "op_ms_p95": (percentile(samples, 95) * 1e3, "ms"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report(name, failures, known, attempted)
    unit = workload.operation
    op_seconds = sum(gauge.scaled(op_times))
    print(f"{name}: latency sample = {workload.sample}; {len(samples)} samples, "
          f"{len(samples) - int(len(samples) * 0.95)} beyond p95; {len(op_times)} {unit}s at "
          f"{len(op_times) / op_seconds:.4f} {unit}s/s; set-up repeated {len(setup_times)} times")
    print(f"  times at the reference speed: the reference work took a median "
          f"{gauge.median_duration() * 1e3:.4f} ms here against {speed.REFERENCE_S * 1e3:g} ms; as measured, "
          f"op_ms_p50 {statistics.median(raw) * 1e3:.4f} ms, op_ms_p95 {percentile(raw, 95) * 1e3:.4f} ms, "
          f"setup_s {statistics.median(s for _, s in setup_times):.4f} s")
    for key, (value, unit_name) in metrics.items():
        print(f"  {key:<14} {value:12.4f} {unit_name}")
    return result(failures, known, attempted, metrics)


def run_traced(name: str, seed: int, seconds: float) -> dict:
    modules = {m: sys.modules[m] for m in sys.modules if m == "chainplan" or m.startswith("chainplan.")}
    tracer = spans.Tracer()
    workload = make_workload(name, seed, tracer)
    tracer.install(modules)
    try:
        started = perf_counter()
        span = tracer.begin("harness.setup")
        workload.setup()
        tracer.end(span)
        loop_started = perf_counter()
        _, failures, known, attempted = workloads.run_loop(
            workload, workload.inputs(), tracer, count=max(1, round(workload.traced_rate * seconds)))
        finished = perf_counter()
    finally:
        tracer.restore()
    traced_wall = finished - started
    traced_loop = finished - loop_started

    # The same operations again, untraced, for the tracing overhead.
    if hasattr(workload, "model"):
        workload.model.tracer = spans.NullTracer()
    replay_started = perf_counter()
    _, replay_failures, _, _ = workloads.run_loop(workload, workload.inputs(), spans.NullTracer(), count=attempted)
    untraced_loop = perf_counter() - replay_started

    out_path = ROOT / ".perfbench" / f"trace-{name}-{seed}.jsonl"
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)

    metrics = spans.per_layer_metrics(tracer, traced_wall)
    metrics["harness.traced_wall_s"] = (traced_wall, "s")
    metrics["harness.untraced_loop_s"] = (untraced_loop, "s")
    metrics["harness.trace_overhead_s"] = (traced_loop - untraced_loop, "s")
    report(name, failures + replay_failures, known, attempted)
    print_layers(name, metrics, traced_wall, traced_loop, untraced_loop, out_path)
    return result(failures + replay_failures, known, attempted, metrics)


def print_layers(name, metrics, traced_wall, traced_loop, untraced_loop, out_path) -> None:
    rows = sorted(((key[: -len(".self_s")], value) for key, (value, _) in metrics.items()
                   if key.endswith(".self_s")), key=lambda row: -row[1])
    layers: dict[str, float] = {}
    for span_name, self_s in rows:
        layer = span_name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    program = {layer: s for layer, s in layers.items() if layer != "harness"}
    top = max(program, key=program.get)
    harness = layers["harness"] + metrics["harness.unattributed_s"][0]
    print(f"{name}: traced wall {traced_wall:.3f} s; spans written to {out_path.relative_to(ROOT)}")
    for span_name, self_s in rows:
        if self_s > 0:
            calls = metrics[f"{span_name}.calls"][0]
            print(f"  {span_name:<34} {self_s:10.4f} s self  {calls:8d} calls")
    print(f"  largest layer self time: {top} {program[top]:.4f} s ({program[top] / traced_wall:.1%} of wall)")
    print(f"  layers {sum(program.values()):.4f} s + harness {harness:.4f} s = "
          f"{sum(program.values()) + harness:.4f} s; traced wall {traced_wall:.4f} s")
    print(f"  tracing overhead: traced loop {traced_loop:.4f} s - untraced replay {untraced_loop:.4f} s = "
          f"{traced_loop - untraced_loop:.4f} s ({(traced_loop - untraced_loop) / untraced_loop:.1%})")


def report(name: str, failures: list[str], known: int, attempted: int) -> None:
    failed = len(failures) + known
    print(f"{name}: {attempted} operations attempted, {failed} failed (failed_share {failed / attempted:.4f}): "
          f"{known} with the known defect of a self or forward $$PREV reference after projection, "
          f"{len(failures)} other")
    for failure in failures[:5]:
        print(f"  failure: {failure.strip()}", file=sys.stderr)


def result(failures: list[str], known: int, attempted: int, metrics: dict) -> dict:
    """Known-defect outputs count as failed; only other failures make the
    run incorrect."""
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures) + known,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, each in a fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=max(180, seconds * 4),
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced only")
        outcome = run_all(args.seed, args.seconds)
    elif args.trace:
        outcome = run_traced(args.workload, args.seed, args.seconds)
    else:
        outcome = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "chainplan" / "__init__.py").is_file():
        sys.exit(f"no chainplan source under {ROOT / 'src'}: run from a full source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import speed
    import workloads

    sys.exit(main())
