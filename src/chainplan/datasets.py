"""Golden query/plan datasets: the shared JSONL format for retrieval
exemplars and evaluation gold."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .plan import Plan, load_json, plan_from_data, serialize_plan
from .registry import read_text


class DatasetError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass(frozen=True)
class GoldenExample:
    id: str
    query: str
    gold: Plan

    @cached_property
    def gold_text(self) -> str:
        return serialize_plan(self.gold)


def load_golden_dataset(source: str | Path) -> list[GoldenExample]:
    """Load JSON lines of {"query": str, "gold": <plan wire format>}. A file
    that is not UTF-8 is refused with its path and the offending byte."""
    text = read_text(source, DatasetError)
    examples: list[GoldenExample] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = load_json(line)
        except ValueError as exc:
            raise DatasetError(f"invalid JSON: {exc}", line=line_no) from exc
        if not isinstance(record, dict) or "query" not in record or "gold" not in record:
            raise DatasetError("record needs query and gold fields", line=line_no)
        if not isinstance(record["query"], str) or not record["query"]:
            raise DatasetError(f"query must be a non-empty string, not {record['query']!r}", line=line_no)
        outcome = plan_from_data(record["gold"])
        if not outcome.ok:
            raise DatasetError(f"gold plan does not match the wire format: {outcome.detail}", line=line_no)
        examples.append(GoldenExample(id=f"ex{line_no:03d}", query=record["query"], gold=outcome.plan))
    return examples


def save_golden_dataset(examples: list[GoldenExample], path: str | Path) -> None:
    from .plan import plan_to_data

    lines = [
        json.dumps({"query": ex.query, "gold": plan_to_data(ex.gold)}, ensure_ascii=False)
        for ex in examples
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
