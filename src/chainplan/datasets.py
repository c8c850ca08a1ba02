"""Golden query/plan datasets: the shared JSONL format for retrieval
exemplars and evaluation gold."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .plan import Plan, plan_from_data, serialize_plan
from .registry import line_error, read_json_lines


class DatasetError(ValueError):
    """A golden dataset that cannot be loaded. ``line`` is the number of
    the refused line, or None when the file as a whole is refused."""

    line: int | None = None


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
    that is not UTF-8 is refused with its path and the offending byte; a
    line that is not strict JSON, or not such a record, with one error line
    starting ``<path> line <n>:`` (``registry.read_json_lines``); a gold
    plan off the wire format also names where, such as ``at /0``."""
    examples: list[GoldenExample] = []
    for line_no, record in read_json_lines(source, DatasetError):
        if not isinstance(record, dict) or "query" not in record or "gold" not in record:
            raise line_error(DatasetError, source, line_no, "record needs query and gold fields")
        if not isinstance(record["query"], str) or not record["query"]:
            raise line_error(DatasetError, source, line_no,
                             f"query must be a non-empty string, not {record['query']!r}")
        outcome = plan_from_data(record["gold"])
        if not outcome.ok:
            where = f" at {outcome.path}" if outcome.path else ""
            raise line_error(DatasetError, source, line_no,
                             f"gold plan does not match the wire format{where}: {outcome.detail}")
        examples.append(GoldenExample(id=f"ex{line_no:03d}", query=record["query"], gold=outcome.plan))
    return examples


def save_golden_dataset(examples: list[GoldenExample], path: str | Path) -> None:
    """Write ``examples`` as JSON lines that :func:`load_golden_dataset`
    reads back. A gold plan holding a NaN or an infinity, which strict JSON
    does not have, raises ValueError before the file is opened."""
    from .plan import plan_to_data

    lines = [
        json.dumps({"query": ex.query, "gold": plan_to_data(ex.gold)}, ensure_ascii=False, allow_nan=False)
        for ex in examples
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
