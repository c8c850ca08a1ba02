"""Model stand-ins that replace the LLM, so that all measured time is engine
time. Both follow the duck-typed protocol the pipelines use: ``complete``
for the single-call pipeline, ``candidate_steps`` plus the ``calls``,
``prompt_tokens`` and ``completion_tokens`` counters for token-level
constrained decoding. Their own work runs inside ``harness.model`` spans.
"""

from __future__ import annotations

from time import perf_counter

from chainplan import CompletionResult
from chainplan.llm import estimate_tokens
from speed import NullGauge


class ResponseModel:
    """Answers the next request with the text set in ``response``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.response = ""
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def complete(self, request) -> CompletionResult:
        span = self.tracer.begin("harness.model")
        prompt_tokens = estimate_tokens(request.prompt)
        completion_tokens = estimate_tokens(self.response)
        self.calls += 1
        self.prompt_tokens += prompt_tokens
        self.completion_tokens += completion_tokens
        result = CompletionResult(text=self.response, prompt_tokens=prompt_tokens,
                                  completion_tokens=completion_tokens, latency_s=0.0)
        self.tracer.end(span)
        return result


class TokenModel:
    """Offers one candidate list per decode step: the next scripted piece,
    then the whole vocabulary in its fixed order.

    ``scripts`` holds one list of pieces per model call. ``step_gaps``
    collects, for every step after the first of a call, the time from handing
    over a candidate list to being asked for the next one, the engine's work
    per decode step, as a (start, seconds) pair. ``gauge`` takes a speed
    sample before each hand-over."""

    def __init__(self, tracer, vocabulary: list[str]):
        self.tracer = tracer
        self.gauge = NullGauge()
        self.vocabulary = vocabulary
        self.scripts: list[list[str]] = []
        self.step_gaps: list[tuple[float, float]] = []
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def candidate_steps(self):
        span = self.tracer.begin("harness.model")
        pieces = self.scripts.pop(0)
        self.tracer.end(span)
        for piece in pieces:
            span = self.tracer.begin("harness.model")
            candidates = [piece, *self.vocabulary]
            self.gauge.sample()
            self.tracer.end(span)
            handed = perf_counter()
            yield candidates
            self.step_gaps.append((handed, perf_counter() - handed))
