"""Dense retrieval over tool and example corpora.

Embeds texts through a pluggable provider, ranks by cosine similarity, and
selects top-k. Item norms are derived once per corpus, so a query costs one
dot product per item, and scores equal :func:`cosine` bit for bit. Ships a
deterministic hashing provider for network-free tests and a client for any
OpenAI-compatible embeddings endpoint. Corpora are immutable after indexing
and carry the provider id plus registry version so stale caches are rejected
instead of silently reused.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .llm import post_json, resolve_endpoint


class RetrievalError(ValueError):
    pass


def cosine(a: list[float], b: list[float]) -> float:
    """dot(a, b) / (|a| * |b|); errors on dimension mismatch or zero vectors."""
    if len(a) != len(b):
        raise RetrievalError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise RetrievalError("cosine of a zero vector is undefined")
    return dot / (norm_a * norm_b)


class HashEmbeddingProvider:
    """Deterministic test provider: hashed character trigrams projected into a
    fixed-dimension space, then L2-normalized. CI-stable, no network.

    Each distinct trigram is hashed once per instance and memoized as one int,
    ``bucket << 1 | sign_bit``; the memo holds one entry per distinct trigram
    embedded and does not change any vector."""

    def __init__(self, dimension: int = 64, seed: int = 0):
        self.dimension = dimension
        self.seed = seed
        self.provider_id = f"hash-trigram-{dimension}-{seed}"
        self._trigram_codes: dict[str, int] = {}

    def embed(self, text: str) -> list[float]:
        if not text:
            raise RetrievalError("cannot embed empty text")
        padded = f"##{text.lower()}##"
        values = [0.0] * self.dimension
        codes = self._trigram_codes
        for i in range(len(padded) - 2):
            gram = padded[i : i + 3]
            code = codes.get(gram)
            if code is None:
                digest = hashlib.sha256(f"{self.seed}:{gram}".encode("utf-8")).digest()
                bucket = int.from_bytes(digest[:4], "big") % self.dimension
                code = codes[gram] = (bucket << 1) | (digest[4] & 1)
            values[code >> 1] += 1.0 if code & 1 else -1.0
        norm = math.sqrt(sum(v * v for v in values))
        if norm == 0.0:
            values[0] = 1.0
            norm = 1.0
        return [v / norm for v in values]


class RemoteEmbeddingProvider:
    """OpenAI-compatible embeddings endpoint (POST {base}/v1/embeddings)."""

    def __init__(self, model: str | None = None, api_base: str | None = None,
                 api_key: str | None = None, timeout: float | None = None):
        self.model = model or os.environ.get("CHAINPLAN_EMBED_MODEL", "text-embedding-ada-002")
        self.api_base, self.api_key, self.timeout = resolve_endpoint(api_base, api_key, timeout)
        self.provider_id = f"remote-{self.model}"
        self.dimension: int | None = None

    def embed(self, text: str) -> list[float]:
        if not text:
            raise RetrievalError("cannot embed empty text")
        body = post_json(
            f"{self.api_base}/v1/embeddings",
            {"model": self.model, "input": text},
            api_key=self.api_key,
            timeout=self.timeout,
        )
        try:
            vector = [float(v) for v in body["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError) as exc:
            raise RetrievalError(f"malformed embeddings response: {exc}") from exc
        if self.dimension is None:
            self.dimension = len(vector)
        return vector


@dataclass(frozen=True)
class CorpusItem:
    id: str
    text: str
    vector: tuple[float, ...]


@dataclass(frozen=True)
class Corpus:
    kind: str  # "tools" | "examples"
    items: tuple[CorpusItem, ...]
    provider_id: str
    registry_version: str
    dimension: int

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def norms(self) -> tuple[float, ...]:
        """Each item's L2 norm, in item order, summed as :func:`cosine` sums
        it. Derived on first use and never saved; a zero or wrong-length item
        vector raises here, once per corpus."""
        norms = []
        for index, item in enumerate(self.items):
            if len(item.vector) != self.dimension:
                raise RetrievalError(
                    f"dimension mismatch: item {index} ({item.id!r}) has {len(item.vector)}, "
                    f"corpus has {self.dimension}"
                )
            norm = math.sqrt(sum(map(operator.mul, item.vector, item.vector)))
            if norm == 0.0:
                raise RetrievalError(f"cosine of a zero vector is undefined: item {index} ({item.id!r})")
            norms.append(norm)
        return tuple(norms)


def _check_item(index: int, item_id: str, vector, dimension: int, seen: set[str]) -> None:
    """Every corpus item, indexed or loaded, has a new id and a vector of
    `dimension` finite values; errors name the item's index and id."""
    if item_id in seen:
        raise RetrievalError(f"item {index}: duplicate corpus id {item_id!r}")
    seen.add(item_id)
    if len(vector) != dimension:
        raise RetrievalError(
            f"item {index} ({item_id!r}): vector has dimension {len(vector)}, expected {dimension}"
        )
    if not all(map(math.isfinite, vector)):
        raise RetrievalError(f"item {index} ({item_id!r}): non-finite vector value")


def index_corpus(provider, items: list[tuple[str, str]], kind: str = "tools",
                 registry_version: str = "") -> Corpus:
    """One vector per (id, text) item, order preserved; ids must be unique."""
    seen: set[str] = set()
    indexed: list[CorpusItem] = []
    dimension = getattr(provider, "dimension", None)
    for index, (item_id, text) in enumerate(items):
        try:
            vector = provider.embed(text)
        except RetrievalError:
            raise
        except Exception as exc:
            raise RetrievalError(f"provider failed on item {item_id!r}: {exc}") from exc
        if dimension is None:
            dimension = len(vector)
        _check_item(index, item_id, vector, dimension, seen)
        indexed.append(CorpusItem(id=item_id, text=text, vector=tuple(vector)))
    return Corpus(
        kind=kind,
        items=tuple(indexed),
        provider_id=provider.provider_id,
        registry_version=registry_version,
        dimension=dimension or 0,
    )


def retrieve_top_k(query: str, corpus: Corpus, provider, k: int) -> list[tuple[str, float]]:
    """The k highest-cosine items, descending score, ties broken by ascending
    id; the whole corpus when it holds fewer than k items."""
    if k < 1:
        raise RetrievalError("k must be at least 1")
    if not corpus.items:
        raise RetrievalError("cannot retrieve from an empty corpus")
    if corpus.provider_id != provider.provider_id:
        raise RetrievalError(
            f"corpus indexed with provider {corpus.provider_id!r}, queried with {provider.provider_id!r}"
        )
    query_vec = provider.embed(query)
    if len(query_vec) != corpus.dimension:
        raise RetrievalError(f"dimension mismatch: {len(query_vec)} vs {corpus.dimension}")
    query_norm = math.sqrt(sum(map(operator.mul, query_vec, query_vec)))
    if query_norm == 0.0:
        raise RetrievalError("cosine of a zero vector is undefined")
    if not math.isfinite(query_norm):
        raise RetrievalError("query vector has a NaN or infinite value")
    # The same products, summed in the same order and divided the same way
    # as cosine(query_vec, item.vector), so every score equals it exactly.
    scored = [
        (item.id, sum(map(operator.mul, query_vec, item.vector)) / (query_norm * norm))
        for item, norm in zip(corpus.items, corpus.norms)
    ]
    return heapq.nsmallest(k, scored, key=lambda pair: (-pair[1], pair[0]))


def top_n_recall(retrieved: list[str], needed: set[str], n: int) -> float:
    """Fraction of needed ids present in the first n retrieved ids."""
    if not needed:
        raise RetrievalError("needed set must not be empty")
    head = set(retrieved[:n])
    return len(needed & head) / len(needed)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    doc = {
        "provider": corpus.provider_id,
        "dimension": corpus.dimension,
        "registry_version": corpus.registry_version,
        "kind": corpus.kind,
        "items": [
            {"id": item.id, "text": item.text, "vector": list(item.vector)}
            for item in corpus.items
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_corpus(path: str | Path, expect_registry_version: str | None = None) -> Corpus:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("provider", "dimension", "registry_version", "kind", "items"):
        if key not in doc:
            raise RetrievalError(f"corpus file lacks the key {key!r}")
    if expect_registry_version is not None and doc["registry_version"] != expect_registry_version:
        raise RetrievalError(
            f"stale corpus: indexed for registry {doc['registry_version']!r}, "
            f"current is {expect_registry_version!r}"
        )
    dimension = int(doc["dimension"])
    seen: set[str] = set()
    items: list[CorpusItem] = []
    for index, raw in enumerate(doc["items"]):
        try:
            vector = tuple(float(v) for v in raw["vector"])
        except (TypeError, ValueError) as exc:
            raise RetrievalError(f"item {index} ({raw['id']!r}): non-numeric vector value: {exc}") from None
        _check_item(index, raw["id"], vector, dimension, seen)
        items.append(CorpusItem(id=raw["id"], text=raw["text"], vector=vector))
    return Corpus(
        kind=doc["kind"],
        items=tuple(items),
        provider_id=doc["provider"],
        registry_version=doc["registry_version"],
        dimension=dimension,
    )


def tool_embedding_text(spec) -> str:
    """Text embedded for a tool: name and description, joined with argument
    names and descriptions for better disambiguation."""
    parts = [f"{spec.name}: {spec.description}"]
    for arg in spec.arguments:
        parts.append(f"{arg.name}: {arg.description}" if arg.description else arg.name)
    return " | ".join(parts)
