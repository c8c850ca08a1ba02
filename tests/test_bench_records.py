"""The benchmark records at the repository root, ``BENCH_*.json``: each
parses, claims a workload and an end-to-end metric that ``BENCHMARK.json``
declares, and gives, for every end-to-end metric of every workload it
reports, both sides' quartiles and the pairs the change won."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared() -> tuple[set[str], set[str]]:
    """The workload names and end-to-end metric names of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]}


def test_the_root_holds_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_claims_a_declared_metric_and_reports_every_row(path):
    workloads, metrics = _declared()
    record = json.loads(path.read_text(encoding="utf-8"))
    claim, summary = record["claim"], record["summary"]
    assert claim["workload"] in workloads, claim
    assert claim["metric"] in metrics, claim
    assert claim["workload"] in summary
    assert set(summary) <= workloads, sorted(set(summary) - workloads)
    for workload, rows in summary.items():
        for metric in sorted(metrics):
            row = rows[metric]
            for side in ("parent", "change"):
                quartiles = [row[side][name] for name in ("q1", "median", "q3")]
                assert all(isinstance(q, (int, float)) and not isinstance(q, bool) for q in quartiles), (workload, metric)
                assert quartiles == sorted(quartiles), (workload, metric, side)
            wins = re.fullmatch(r"(\d+)/(\d+)", row["change_wins"])
            assert wins and int(wins[1]) <= int(wins[2]) and int(wins[2]) > 0, (workload, metric, row["change_wins"])
