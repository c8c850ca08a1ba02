"""Dense retrieval over tool and example corpora.

Embeds texts through a pluggable provider, ranks by cosine similarity, and
selects top-k. Ships a deterministic hashing provider that needs no network.
Corpora are built in memory, immutable after indexing, and carry the
provider id so a query embedded by another provider is refused.

Every vector is checked once, where it enters: a corpus checks each item's
vector and keeps its norm when it is built, and a query is checked as it
arrives, by the same function, so no corpus holds a vector that a query
would refuse.

A query, a text or the vector a provider embedded it as, is scored in two
passes. A corpus derives, on first use, a packed form of its unit
vectors: one Python int per dimension whose 32-bit field i holds item i's
component rounded to ``_Q`` fractional bits. The query's components,
rounded the same way, are integer weights; the dimensions that share a
non-zero weight have their ints summed and multiplied by it once,
which pre-scores every item at once. Counting the fields' top bytes from
the highest down narrows the k-th best pre-score to a handful of fields,
and the items whose pre-score lies within twice the pre-score's error bound
of it (about k of them) are scored in floating point. Those scores use the
products, order and division of :func:`cosine`, so results equal a full
:func:`cosine` sort bit for bit, ties included; :class:`_PreScore` derives
the bound. On a 2-core Intel Xeon x86-64 host under CPython 3.11.7,
given the query vector, a query for the top 10 of 1,000 hashed tools of
64 dimensions costs about 0.11 ms instead of 3.0 ms for scoring every item
in float, and over 10,000 tools about 0.5 ms instead of 38 ms; packing
takes about 9 ms for 1,000 tools and 95 ms for 10,000 in a fresh process,
on the first query.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .registry import sha256


class RetrievalError(ValueError):
    pass


def _norm(vector) -> float:
    """|vector|, its squares summed correctly rounded by ``math.fsum``, so
    the same on every interpreter; inf when their sum overflows."""
    try:
        return math.sqrt(math.fsum(map(operator.mul, vector, vector)))
    except OverflowError:
        return math.inf


def _checked_norm(vector, dimension: int, where: str) -> float:
    """``_norm(vector)``, the one check of a vector that enters retrieval:
    one that is not of ``dimension``, holds a value that is not an ``int``
    or a ``float`` (a bool is neither), is zero, holds a NaN or an infinity,
    or whose norm overflows raises one error, prefixed by ``where``."""
    if len(vector) != dimension:
        raise RetrievalError(f"{where}: vector has dimension {len(vector)}, expected {dimension}")
    if not set(map(type, vector)) <= {int, float}:
        raise RetrievalError(f"{where}: vector value is not an int or a float")
    norm = _norm(vector)
    if norm == 0.0:
        raise RetrievalError(f"{where}: cosine of a zero vector is undefined")
    if not math.isfinite(norm):
        raise RetrievalError(f"{where}: non-finite vector value" if not all(map(math.isfinite, vector))
                             else f"{where}: vector norm overflows")
    return norm


def cosine(a: list[float], b: list[float]) -> float:
    """dot(a, b) / (|a| * |b|); errors on dimension mismatch, values that
    are not an int or a float, zero vectors, non-finite values and norms that
    overflow. Sums with ``math.fsum``, so a score is the same on every
    interpreter."""
    norm_a = _checked_norm(a, len(b), "a")
    norm_b = _checked_norm(b, len(b), "b")
    # Both sums of squares are finite, so no product a[i] * b[i] overflows.
    return math.fsum(map(operator.mul, a, b)) / (norm_a * norm_b)


class HashEmbeddingProvider:
    """Deterministic test provider: hashed character trigrams projected into a
    fixed-dimension space, then L2-normalized. CI-stable, no network.

    A text must be a non-empty ``str``. Its trigrams are walked as tuples of
    three characters, and each distinct trigram is hashed once per instance:
    the memo maps the tuple to a ``(bucket, sign)`` pair, and equal pairs are
    one object, so the memo holds one entry per distinct trigram embedded,
    at most ``2 * dimension`` pairs, and changes no vector. A vector's
    components are signed trigram counts over one norm, so it holds one
    float object per distinct count. SHA-256 comes from the interpreter's
    built-in module, not from OpenSSL (``registry.sha256``)."""

    def __init__(self, dimension: int = 64, seed: int = 0):
        if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
            raise RetrievalError(f"embedding dimension must be an integer of at least 1, got {dimension!r}")
        self.dimension = dimension
        self.seed = seed
        self.provider_id = f"hash-trigram-{dimension}-{seed}"
        self._trigram_codes: dict[tuple[str, str, str], tuple[int, int]] = {}
        self._pairs: dict[tuple[int, int], tuple[int, int]] = {}

    def embed(self, text: str) -> list[float]:
        if not isinstance(text, str):
            raise RetrievalError(f"can only embed text, not {type(text).__name__}")
        if not text:
            raise RetrievalError("cannot embed empty text")
        padded = f"##{text.lower()}##"
        counts = [0] * self.dimension
        codes = self._trigram_codes
        for gram in zip(padded, padded[1:], padded[2:]):
            pair = codes.get(gram)
            if pair is None:
                digest = sha256(f"{self.seed}:{''.join(gram)}".encode("utf-8")).digest()
                pair = (int.from_bytes(digest[:4], "big") % self.dimension, 1 if digest[4] & 1 else -1)
                pair = codes[gram] = self._pairs.setdefault(pair, pair)
            bucket, sign = pair
            counts[bucket] += sign
        # The integer sum of squares is exact, and an int divides as the
        # float of its value does, so each component is what summing and
        # dividing floats gives; one division per distinct count.
        norm = math.sqrt(sum(map(operator.mul, counts, counts)))
        if not norm:
            return [1.0] + [0.0] * (self.dimension - 1)
        shared = {c: c / norm for c in set(counts)}
        return list(map(shared.__getitem__, counts))


@dataclass(frozen=True)
class CorpusItem:
    id: str
    vector: tuple[float, ...]


@dataclass(frozen=True)
class Corpus:
    """Items embedded by one provider. Every item's vector is checked when
    the corpus is built, as :func:`retrieve_top_k` checks a query: a
    wrong-length, non-numeric, zero or non-finite vector, or one whose norm
    overflows, raises naming the item's index and id. ``norms`` holds each
    item's L2 norm, in item order, summed as :func:`cosine` sums it."""

    items: tuple[CorpusItem, ...]
    provider_id: str
    dimension: int
    norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norms = tuple(_checked_norm(item.vector, self.dimension, f"item {index} ({item.id!r})")
                      for index, item in enumerate(self.items))
        object.__setattr__(self, "norms", norms)

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def _prescore(self) -> _PreScore:
        """The packed unit vectors, derived on first use."""
        return _PreScore(self.items, self.norms, self.dimension)


# Fractional bits of a quantized unit component. A unit component c is held
# as round(c * 2**_Q) + _BIAS, which lies in [0, 2**(_Q + 2)); a query's sum
# over the dimensions is stored as _OFFSET + P, where |P| <= 2**(2*_Q) + slack
# <= 2**29, so every 32-bit field lies in [2**29, 3 * 2**29].
_Q = 14
_BIAS = 1 << (_Q + 1)
_OFFSET = 1 << 30
# Norms in this range have squares and products neither overflowing nor
# losing relative precision; other items, or every item for such a query,
# are scored in floating point only.
_SAFE_NORMS = (2.0 ** -400, 2.0 ** 400)
# Largest dimension pre-scored: the bound below holds and no field can
# overflow up to it (test_prescore_fields_fit_every_dimension_up_to_the_limit).
_MAX_DIMENSION = 1 << 26
# The offset of a field's top byte among its 4 bytes, and the highest value
# that byte takes: fields lie in [2**29, 3 * 2**29].
_TOP_BYTE = 3 if sys.byteorder == "little" else 0
_TOP_MAX = (_OFFSET + (1 << 29)) >> 24
# Fields are packed and unpacked as C unsigned ints ("I").
if array("I").itemsize != 4:
    raise ImportError("chainplan.retrieval packs 32-bit fields, but a C unsigned int is not 4 bytes here")


def _slack(dimension: int) -> int:
    """Δ of :class:`_PreScore`, in field units (2**(-2*_Q) of a score)."""
    return (
        ((math.isqrt(dimension) + 2) << _Q)
        + dimension // 4
        + 1
        + ((dimension + 4) >> (48 - 2 * _Q))
        + 1
    )


class _PreScore:
    """Every item's unit vector quantized to ``_Q`` fractional bits and
    packed by dimension: ``columns[j]`` holds item ``positions[i]``'s
    component j in its 32-bit field i. Items whose norm lies outside
    ``_SAFE_NORMS`` are left out and listed in ``rest``.

    For a query q and an item v of dimension D, let a = q/|q| and b = v/|v|
    in exact arithmetic, c = <a, b> the exact cosine, s the float score that
    :func:`retrieve_top_k` computes, u = 2**-53 and γ_m = m·u / (1 - m·u).
    The quantized components are ã_j = 2**Q·a_j·(1 + σ_j) + f_j and
    b̃_j = 2**Q·b_j·(1 + ρ_j) + e_j, with |e_j|, |f_j| <= 1/2 from rounding
    to an integer and |σ_j|, |ρ_j| <= γ_(D+4) from the float norm (relative
    error γ_(D+2)), the float scale 2**Q / norm and the product. Expanding
    P = Σ ã_j·b̃_j, with Σ|a_j·b_j| <= 1 and Σ|a_j|, Σ|b_j| <= √D:

        |P - 2**(2Q)·c| <= 2**(2Q)·γ_(2D+8) + 2**Q·√D·(1 + γ_(D+4)) + D/4.

    The float score divides a dot product with absolute error at most
    γ_(D+2)·|q|·|v| by |q|·|v|·(1 + τ), |τ| <= γ_(2D+5), so
    |s - c| <= γ_(3D+9). This holds for left-to-right summation, and so
    for the correctly rounded ``math.fsum`` that the scores and norms use,
    whose error is smaller. Products or squares that underflow add at most
    D·2**-1074 to quantities no smaller than 2**-800 (both norms are at
    least 2**-400), a relative D·2**-274. Together these float terms stay
    below 2**(2Q)·(D + 4)·2**-48, that is below ((D + 4) >> (48 - 2Q)) + 1
    field units, so for D <= ``_MAX_DIMENSION`` all of this fits in

        |P - 2**(2Q)·s| <= Δ = (isqrt(D) + 2)·2**Q + D//4 + 1 + ((D + 4) >> (48 - 2Q)) + 1,

    and |P| <= 2**(2Q) + Δ <= 2**29, so the field _OFFSET + P lies in
    [2**29, 3·2**29] and no carry or borrow crosses a field boundary.

    Let T be the k-th largest P. At least k items have P >= T, hence
    2**(2Q)·s >= T - Δ, so the k-th best score s_k has 2**(2Q)·s_k >= T - Δ,
    and every item with s >= s_k has P >= T - 2Δ. Scoring those items in
    float and selecting by ``(-score, id)`` therefore gives the full sort's
    result, every tie of the k-th score included.

    A query pre-scores every item at once (SWAR, SIMD within a register;
    Fisher & Dietz 1998): with w_j = ã_j, the fields of
    (_OFFSET - _BIAS·Σ w_j)·ones + Σ_j w_j·columns[j] are _OFFSET + P.
    Integer arithmetic is exact, so grouping the sum by weight,
    Σ_w w·(Σ_{j: w_j = w} columns[j]), and dropping w = 0 give the same
    integer: one multiply per distinct non-zero weight. Hashed trigram
    vectors hold small counts over a norm, so their weights are mostly zero
    or repeated. Only that final integer is read as fields.

    The items to score are found from the fields' top bytes, field >> 24.
    The k-th largest field is _OFFSET + T; call it T* and let
    cut = T* - 2Δ. Counting top bytes down from the highest a field can
    hold, (_OFFSET + 2**29) >> 24, stops at the largest t such that at least
    k fields have a top byte >= t. Those fields are all >= t·2**24, so
    T* >= t·2**24. Let H be the fields whose top byte is >= t. Every field
    >= T* is >= t·2**24, so lies in H: H holds all the fields >= T*, at
    least k, and all the fields > T*, fewer than k, so T* is also the k-th
    largest of H. H is small: fewer than k fields have a top byte above t,
    and the rest of H shares the top byte t. Finally, >> 24 is monotone, so
    every field >= cut has a top byte >= cut >> 24; reading the fields with
    a top byte >= min(t, cut >> 24), H itself when cut >> 24 >= t, and
    keeping those >= cut misses no item to score. That byte is taken from
    cut itself, not from t: 2Δ exceeds 2**24 once D passes about 2**18, so
    cut can lie more than one byte below t·2**24. As T* >= 2**29 and
    2Δ <= 2**29 (Δ <= 2**29 - 2**(2Q) = 2**28), cut >= 0."""

    def __init__(self, items: tuple[CorpusItem, ...], norms: tuple[float, ...], dimension: int):
        low, high = _SAFE_NORMS
        self.positions = [i for i, norm in enumerate(norms) if low <= norm <= high]
        self.rest = [i for i, norm in enumerate(norms) if not low <= norm <= high]
        scales = [2.0 ** _Q / norms[i] for i in self.positions]
        vectors = [items[i].vector for i in self.positions]
        self.columns = tuple(
            _pack([round(x * scale) + _BIAS for x, scale in zip(column, scales)])
            for column in zip(*vectors)
        )
        self.ones = _pack([1] * len(self.positions))
        self.slack = _slack(dimension)

    def candidates(self, query_vec: list[float], query_norm: float, k: int) -> list[int]:
        """Item indices that may rank in the top k; needs more than k
        positions and a query norm inside ``_SAFE_NORMS``."""
        scale = 2.0 ** _Q / query_norm
        weights = [round(x * scale) for x in query_vec]
        # Columns sharing a weight are summed, then multiplied by it once;
        # a zero weight adds nothing.
        sums: dict[int, int] = {}
        for weight, column in zip(weights, self.columns):
            if weight:
                sums[weight] = sums[weight] + column if weight in sums else column
        total = (_OFFSET - _BIAS * sum(weights)) * self.ones + sum(map(operator.mul, sums, sums.values()))
        positions = self.positions
        found = _select(total.to_bytes(4 * len(positions), sys.byteorder), k, self.slack)
        return [positions[i] for i in found] + self.rest


def _pack(fields: list[int]) -> int:
    """One int whose 32-bit field i is fields[i], in the byte order that
    :meth:`_PreScore.candidates` unpacks."""
    return int.from_bytes(array("I", fields).tobytes(), sys.byteorder)


def _select(packed: bytes, k: int, slack: int) -> list[int]:
    """Indices, ascending, of the 32-bit fields of ``packed`` (native byte
    order) that are at least T - 2*slack, T the k-th largest field; needs
    at least k fields, each in [2**29, 3 * 2**29], and 2*slack <= 2**29.
    :class:`_PreScore` shows why reading top bytes finds them all; the work
    grows with the number of fields whose top byte is read."""
    fields = memoryview(packed).cast("I")
    tops = packed[_TOP_BYTE::4]
    top, count = _TOP_MAX + 1, 0
    while count < k:
        top -= 1
        if top in tops:
            count += tops.count(top)
    high = _at_least(tops, top)
    cut = heapq.nlargest(k, [fields[i] for i in high])[-1] - 2 * slack
    if cut >> 24 < top:
        high = _at_least(tops, cut >> 24)
    return [i for i in high if fields[i] >= cut]


def _at_least(tops: bytes, top: int) -> list[int]:
    """Indices, ascending, of the bytes of ``tops`` that are at least ``top``."""
    flags = tops.translate(bytes(top) + b"\1" * (256 - top))
    found, at = [], flags.find(1)
    while at >= 0:
        found.append(at)
        at = flags.find(1, at + 1)
    return found


def _candidates(corpus: Corpus, query_vec: list[float], query_norm: float, k: int):
    """Indices of the items to score in float: all of them, unless the
    pre-score can prune (see :class:`_PreScore`)."""
    low, high = _SAFE_NORMS
    if len(corpus.items) > k and low <= query_norm <= high and corpus.dimension <= _MAX_DIMENSION:
        prescore = corpus._prescore
        if len(prescore.positions) > k:
            return prescore.candidates(query_vec, query_norm, k)
    return range(len(corpus.items))


def index_corpus(provider, items: list[tuple[str, str]]) -> Corpus:
    """One vector per (id, text) item, order preserved. Every item needs a
    new id, and :class:`Corpus` checks each vector; errors name the item's
    index and id."""
    seen: set[str] = set()
    indexed: list[CorpusItem] = []
    for index, (item_id, text) in enumerate(items):
        try:
            vector = provider.embed(text)
        except RetrievalError:
            raise
        except Exception as exc:
            raise RetrievalError(f"provider failed on item {item_id!r}: {exc}") from exc
        if item_id in seen:
            raise RetrievalError(f"item {index}: duplicate corpus id {item_id!r}")
        seen.add(item_id)
        indexed.append(CorpusItem(id=item_id, vector=tuple(vector)))
    dimension = getattr(provider, "dimension", None)
    if dimension is None:
        dimension = len(indexed[0].vector) if indexed else 0
    return Corpus(items=tuple(indexed), provider_id=provider.provider_id, dimension=dimension)


def retrieve_top_k(query: str | list[float] | tuple[float, ...], corpus: Corpus, provider,
                   k: int) -> list[tuple[str, float]]:
    """The k highest-cosine items, descending score, ties broken by ascending
    id; the whole corpus when it holds fewer than k items. ``query`` is a
    ``str``, which ``provider`` embeds, or a vector that ``provider.embed``
    returned, so that one embedding serves several corpora: a ``list`` or
    ``tuple``, checked as an embedded text is. A query of any other type,
    ``bytes`` included, is refused. ``k`` is an ``int``, a bool not
    included."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise RetrievalError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise RetrievalError("k must be at least 1")
    if not corpus.items:
        raise RetrievalError("cannot retrieve from an empty corpus")
    if corpus.provider_id != provider.provider_id:
        raise RetrievalError(
            f"corpus indexed with provider {corpus.provider_id!r}, queried with {provider.provider_id!r}"
        )
    if isinstance(query, str):
        query_vec = provider.embed(query)
    elif isinstance(query, (list, tuple)):
        query_vec = query
    else:
        raise RetrievalError(f"query must be a str or a list or tuple of floats, got {type(query).__name__}")
    query_norm = _checked_norm(query_vec, corpus.dimension, "query")
    # The same products, summed and divided the same way as
    # cosine(query_vec, item.vector), so every score equals it exactly.
    items, norms = corpus.items, corpus.norms
    scored = [
        (items[i].id, math.fsum(map(operator.mul, query_vec, items[i].vector)) / (query_norm * norms[i]))
        for i in _candidates(corpus, query_vec, query_norm, k)
    ]
    return heapq.nsmallest(k, scored, key=lambda pair: (-pair[1], pair[0]))


def top_n_recall(retrieved: list[str], needed: set[str], n: int) -> float:
    """Fraction of needed ids present in the first n retrieved ids."""
    if not needed:
        raise RetrievalError("needed set must not be empty")
    head = set(retrieved[:n])
    return len(needed & head) / len(needed)


def tool_embedding_text(spec) -> str:
    """Text embedded for a tool: name and description, joined with argument
    names and descriptions for better disambiguation."""
    parts = [f"{spec.name}: {spec.description}"]
    for arg in spec.arguments:
        parts.append(f"{arg.name}: {arg.description}" if arg.description else arg.name)
    return " | ".join(parts)
