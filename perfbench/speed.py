"""Scaling measured times to a reference machine speed.

A shared virtual machine changes speed by up to half again over periods of
seconds to minutes, as other tenants load its host: a fixed pure-Python loop
takes from 10 to 17 ms in the same minute. Such drift outlasts any run, so
medians of whole runs still scatter by it. The untraced run therefore times a
short fixed piece of reference work before every operation (and every decode
step), and scales every measured time by ``REFERENCE_S`` over the reference
work's median time around that moment. A time reported this way reads as on a
machine that does the reference work in exactly ``REFERENCE_S``.

The reference work is interpreted Python of the kinds the program does (a
JSON round trip, regular-expression tokenising, a small LCS table, a scan of
words against a character set, dict counting and sorting, float products) on
its own fixed data. It does not call the program, so a change that makes the
program slower still shows in full. A tight loop of integer additions was
tried first: when the host was busy it slowed less than the program did, so
it scaled busy stretches too little.
"""

from __future__ import annotations

import bisect
import json
import random
import re
import statistics
from time import perf_counter

REFERENCE_S = 1e-3

_rng = random.Random("speed-reference")
_WORDS = ["".join(_rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(_rng.randint(2, 9)))
          for _ in range(300)]
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz ")
_DOC = [{"tool_name": f"tool_{w}",
         "arguments": [{"argument_name": w, "argument_value": f"$$PREV[{i}]"},
                       {"argument_name": "limit", "argument_value": i * 7}]}
        for i, w in enumerate(_WORDS[:6])]
_VEC = [_rng.random() for _ in range(200)]
_TOKEN = re.compile(r"\w+|[^\w\s]")


def reference_work() -> str:
    """About a millisecond of fixed work; returns a digest so none of it is idle."""
    text = json.dumps(_DOC)
    json.loads(text)
    tokens = _TOKEN.findall(text)[:36]
    other = tokens[::-1]
    prev = [0] * (len(other) + 1)
    for a in tokens:
        cur = [0]
        for j, b in enumerate(other):
            cur.append(prev[j] + 1 if a == b else max(prev[j + 1], cur[j]))
        prev = cur
    letters_only = 0
    for word in _WORDS:
        for ch in word:
            if ch not in _LETTERS:
                break
        else:
            letters_only += 1
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word[:2]] = counts.get(word[:2], 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    dot = sum(a * b for a, b in zip(_VEC, reversed(_VEC)))
    return f"{prev[-1]}:{letters_only}:{ranked[0][0]}:{dot:.6f}"


class SpeedGauge:
    """Reference work times taken through the run, and the scale they give a
    time."""

    # Samples on each side of a moment that set its scale: about half a
    # second of the run at one sample per operation or decode step.
    window = 15

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        started = perf_counter()
        reference_work()
        self.times.append(started)
        self.durations.append(perf_counter() - started)

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median reference time around ``at``."""
        i = bisect.bisect(self.times, at)
        near = self.durations[max(0, i - self.window): i + self.window]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """(start, seconds) pairs as seconds at the reference speed."""
        return [seconds * self.scale(start) for start, seconds in spans]

    def median_duration(self) -> float:
        return statistics.median(self.durations)


class NullGauge:
    """The traced run's gauge: per-layer times are reported as measured."""

    def sample(self) -> None:
        pass
