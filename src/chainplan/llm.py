"""Completion clients: remote chat models, scripted replays, and constrained
decoding glue.

Scripted models make every pipeline reproducible at desk scale: a replay maps
prompt fingerprints to canned responses, bit-deterministic across runs. The
remote client speaks the OpenAI-compatible chat completions wire format with
bounded exponential backoff. A model is one of two things: a chat model,
``complete(request) -> CompletionResult``, or a token model, ``vocabulary``
plus ``candidate_steps()``. ``_result`` builds the result of every model
call, from ``complete`` or from ``constrained_complete``'s token path; the
pipelines' traces sum those results, and are the one account of calls and
tokens. A repaired completion is the underlying call's result, the model's
own text, in mode "repaired"; the projection is ``session.emitted``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .enforcer import DecoderSession, enforced_repair, vocabulary_index
from .registry import line_error, read_json_lines, sha256


class CompletionError(RuntimeError):
    pass


class ReplayMismatchError(CompletionError):
    """A prompt whose fingerprint the replay does not hold."""

    def __init__(self, got: str):
        super().__init__(f"replay mismatch: prompt fingerprint {got!r} is not in the replay")
        self.got = got


class NoPermissibleTokenError(CompletionError):
    """The model's candidate vocabulary cannot cover any allowed character."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model_id: str = "default"
    max_tokens: int = 1024
    temperature: float = 0.0

    def __post_init__(self):
        # a bool is an int to Python; a fractional cap is never met by a step count
        if isinstance(self.max_tokens, bool) or not isinstance(self.max_tokens, int):
            raise ValueError("max_tokens must be an integer")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        # a bool would be sent as JSON true, NaN fails both comparisons, and
        # infinity is no JSON number
        t = self.temperature
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t < math.inf:
            raise ValueError("temperature must be a finite nonnegative number")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float
    mode: str = "plain"  # "plain" | "enforced" | "repaired"


def estimate_tokens(text: str) -> int:
    """Rough budget estimate: about four characters per token."""
    return (len(text) + 3) // 4


def _result(request: CompletionRequest, text: str, latency_s: float,
            mode: str = "plain", usage: dict | None = None) -> CompletionResult:
    """The result of one model call. Token counts come from the server's
    ``usage`` where it gives them, else from ``estimate_tokens``."""
    usage = usage or {}
    return CompletionResult(
        text=text,
        prompt_tokens=int(usage.get("prompt_tokens", estimate_tokens(request.prompt))),
        completion_tokens=int(usage.get("completion_tokens", estimate_tokens(text))),
        latency_s=latency_s,
        mode=mode,
    )


def fingerprint(prompt: str) -> str:
    """Stable hash of the whitespace-normalized prompt, so replays survive
    formatting drift in retrieved content."""
    normalized = " ".join(prompt.split())
    return sha256(normalized.encode("utf-8")).hexdigest()[:16]


def resolve_endpoint(api_base: str | None, api_key: str | None,
                     timeout: float | None) -> tuple[str, str, float]:
    """(api_base, api_key, timeout): each explicit value, else CHAINPLAN_API_BASE
    / CHAINPLAN_API_KEY / CHAINPLAN_TIMEOUT, else OPENAI_API_BASE / OPENAI_API_KEY,
    else the OpenAI endpoint, no key and 30 s. A timeout that is not a finite
    number of seconds above 0 raises CompletionError naming its source."""
    env = os.environ
    base = api_base or env.get("CHAINPLAN_API_BASE") or env.get("OPENAI_API_BASE", "https://api.openai.com")
    key = api_key or env.get("CHAINPLAN_API_KEY") or env.get("OPENAI_API_KEY", "")
    if timeout is None:
        seconds = _seconds(env.get("CHAINPLAN_TIMEOUT", "30"), "CHAINPLAN_TIMEOUT")
    else:
        seconds = _seconds(timeout, "timeout")
    return base.rstrip("/"), key, seconds


def _seconds(value, name: str) -> float:
    """``value`` as a float of seconds; a bool, a non-number, NaN, an
    infinity, zero or less raises CompletionError."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    # NaN fails the comparison, and a socket refuses an infinite timeout
    if isinstance(value, bool) or not 0 < seconds < math.inf:
        raise CompletionError(f"{name} must be a finite number of seconds above 0, got {value!r}")
    return seconds


def _check_retry_settings(max_attempts, backoff_s) -> None:
    """Raise CompletionError naming the setting unless ``max_attempts`` is an
    ``int`` of at least 1 and ``backoff_s`` a finite number of seconds of at
    least 0, a bool being neither."""
    if isinstance(max_attempts, bool) or not isinstance(max_attempts, int) or max_attempts < 1:
        raise CompletionError(f"max_attempts must be an integer of at least 1, got {max_attempts!r}")
    # NaN fails the comparison, and time.sleep refuses a negative length
    if isinstance(backoff_s, bool) or not isinstance(backoff_s, (int, float)) or not 0 <= backoff_s < math.inf:
        raise CompletionError(f"backoff_s must be a finite number of seconds of at least 0, got {backoff_s!r}")


def post_json(url: str, payload: dict, api_key: str = "", timeout: float = 30.0,
              max_attempts: int = 3, backoff_s: float = 0.5) -> dict:
    """POST JSON with bounded exponential backoff; raises CompletionError
    after the final attempt. A 4xx response other than 408 (timeout) or 429
    (rate limit) will not change on a retry, so it fails at once. A response
    cut short or garbled (an ``http.client.HTTPException``) is retried like
    any transport failure. The HTTP client, with ``ssl``, is loaded on the
    first call, so a run that sends no request never loads it. The retry
    settings are checked first, as ``RemoteChatModel`` checks them."""
    _check_retry_settings(max_attempts, backoff_s)
    import http.client
    import urllib.error
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last: Exception | None = None
    for attempt in range(max_attempts):
        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        # URLError and HTTPError are OSErrors; IncompleteRead and BadStatusLine are not
        except (OSError, ValueError, http.client.HTTPException) as exc:
            last = exc
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # it holds the response and its socket
                if 400 <= exc.code < 500 and exc.code not in (408, 429):
                    raise CompletionError(f"request to {url} failed with HTTP {exc.code}: {exc}") from exc
            if attempt + 1 < max_attempts:
                time.sleep(backoff_s * (2 ** attempt))
    raise CompletionError(f"request to {url} failed after {max_attempts} attempts: {last}")


class ScriptedModel:
    """Replays canned responses keyed by prompt fingerprint; any known
    fingerprint may be requested any number of times, in any order."""

    def __init__(self, entries: list[tuple[str, str]] | dict[str, str]):
        self._by_fp = dict(entries)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        fp = fingerprint(request.prompt)
        response = self._by_fp.get(fp)
        if response is None:
            raise ReplayMismatchError(fp)
        return _result(request, response, 0.0)


class ScriptedTokenModel:
    """Replays ranked candidate-token lists, one list per decode step.

    Exposes per-step candidates so constrained decoding can mask them; the
    first candidate that survives the mask is emitted. Its ``vocabulary`` is
    the distinct tokens of its steps, in the order first offered.
    """

    def __init__(self, steps: list[list[str]]):
        self.steps = [list(step) for step in steps]
        self.vocabulary = list(dict.fromkeys(token for step in self.steps for token in step))

    def candidate_steps(self):
        return iter(self.steps)


class RemoteChatModel:
    """OpenAI-compatible chat completions client.

    Credentials and endpoint come from the environment (CHAINPLAN_API_BASE /
    CHAINPLAN_API_KEY, falling back to OPENAI_API_BASE / OPENAI_API_KEY)
    unless passed explicitly. The retry settings are checked when the client
    is built, before any request: ``max_attempts`` is an ``int`` of at least
    1 and ``backoff_s`` a finite number of seconds of at least 0, a bool
    being neither; anything else raises CompletionError naming the setting.
    """

    def __init__(self, model_id: str | None = None, api_base: str | None = None,
                 api_key: str | None = None, timeout: float | None = None,
                 max_attempts: int = 3, backoff_s: float = 0.5):
        self.model_id = model_id or os.environ.get("CHAINPLAN_MODEL", "gpt-3.5-turbo")
        self.api_base, self.api_key, self.timeout = resolve_endpoint(api_base, api_key, timeout)
        _check_retry_settings(max_attempts, backoff_s)
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s

    def complete(self, request: CompletionRequest) -> CompletionResult:
        payload = {
            "model": request.model_id if request.model_id != "default" else self.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
        }
        started = time.monotonic()
        body = post_json(
            f"{self.api_base}/v1/chat/completions",
            payload,
            api_key=self.api_key,
            timeout=self.timeout,
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
        )
        latency = time.monotonic() - started
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise CompletionError(f"malformed chat completion response: {exc}") from exc
        usage = {} if body.get("usage") is None else body["usage"]
        if not isinstance(text, str) or not isinstance(usage, dict) or not all(
                type(count) is int and count >= 0
                for count in (usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0))):
            raise CompletionError("malformed chat completion response: need a string content "
                                  "and non-negative integer usage counts")
        return _result(request, text, latency, usage=usage)


def _tail(emitted: str, keep: int = 60) -> str:
    """The last ``keep`` characters of decoded text, for error messages."""
    return repr(emitted) if len(emitted) <= keep else "..." + repr(emitted[-keep:])


def constrained_complete(model, request: CompletionRequest, session: DecoderSession) -> CompletionResult:
    """Complete under the session's automaton.

    Models that expose per-step candidates declare their ``vocabulary`` and
    are decoded token by token with a vocabulary mask, yielding
    automaton-accepted text ("enforced"), in at most ``request.max_tokens``
    steps. The session masks through the vocabulary's index, built once for
    equal content (``vocabulary_index``); a candidate outside the vocabulary
    is still masked exactly. The session keeps one verdict table across the
    steps and drops it when the decode ends, however it ends. Models without
    per-step access run one plain completion, kept as the result's text,
    greedily projected onto the schema ("repaired"). Either way the accepted text is ``session.emitted``.
    """
    if hasattr(model, "candidate_steps"):
        started = time.monotonic()
        session.index = vocabulary_index(model.vocabulary)
        try:
            for step, candidates in enumerate(model.candidate_steps(), start=1):
                mask = session.mask_vocabulary(candidates)
                chosen = next((tok for tok, ok in zip(candidates, mask) if ok), None)
                if chosen is None:
                    raise NoPermissibleTokenError(
                        f"none of {len(candidates)} candidates is permissible after "
                        f"{_tail(session.emitted)}; first candidates: {repr(candidates[:3])[:120]}"
                    )
                session.advance(chosen)
                if session.at_end:
                    break
                if step == request.max_tokens:
                    raise CompletionError(
                        f"the schema did not accept within max_tokens={request.max_tokens} decode steps, "
                        f"after {_tail(session.emitted)}"
                    )
        finally:
            session.table = None
        if not session.at_end:
            raise CompletionError("scripted token steps exhausted before the schema accepted")
        return _result(request, session.emitted, time.monotonic() - started, "enforced")

    result = model.complete(request)
    session.advance(enforced_repair(session.automaton, result.text)[0])
    return replace(result, mode="repaired")


def load_replay(path: str | Path) -> ScriptedModel:
    """Replay file: JSON lines of {"fingerprint": ..., "response": ...}. A
    file that is not UTF-8 is refused with its path and the offending byte;
    a line that is not strict JSON, or not such a record, or that gives a
    fingerprint a response other than an earlier line's, with one error
    line starting ``<path> line <n>:`` (``registry.read_json_lines``). A
    repeated line is accepted."""
    entries: dict[str, tuple[str, int]] = {}  # fingerprint -> (response, first line)
    for line_no, record in read_json_lines(path, CompletionError):
        if not isinstance(record, dict) or not {"fingerprint", "response"} <= record.keys():
            raise line_error(CompletionError, path, line_no, "record needs fingerprint and response fields")
        fingerprint, response = record["fingerprint"], record["response"]
        if not isinstance(fingerprint, str) or not isinstance(response, str):
            raise line_error(CompletionError, path, line_no, "fingerprint and response must be strings")
        first_response, first = entries.setdefault(fingerprint, (response, line_no))
        if response != first_response:
            raise line_error(CompletionError, path, line_no,
                             f"fingerprint {fingerprint!r} has a different response on line {first}")
    return ScriptedModel({fp: response for fp, (response, _) in entries.items()})


def save_replay(entries: list[tuple[str, str]], path: str | Path) -> None:
    lines = [json.dumps({"fingerprint": fp, "response": response}) for fp, response in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
