import ast
import hashlib
import heapq
import json
import math
import random
import re
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import chainplan.retrieval
from chainplan.retrieval import (
    _BIAS,
    _MAX_DIMENSION,
    _OFFSET,
    _Q,
    Corpus,
    CorpusItem,
    HashEmbeddingProvider,
    RetrievalError,
    _candidates,
    _select,
    _slack,
    cosine,
    index_corpus,
    retrieve_top_k,
    tool_embedding_text,
    top_n_recall,
)


def test_cosine_self_similarity():
    vector = [0.3, -1.2, 4.0]
    assert cosine(vector, vector) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_pinned_value():
    # 32 / (sqrt(14) * sqrt(77)), computed independently
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746318461970762, abs=1e-9)


def test_cosine_dimension_mismatch():
    with pytest.raises(RetrievalError):
        cosine([1.0], [1.0, 2.0])


def test_cosine_zero_vector():
    with pytest.raises(RetrievalError):
        cosine([0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("a, b, message", [
    ([1e200, 1e200], [1e200, -1e200], "vector norm overflows"),
    ([1.0, math.nan], [1.0, 1.0], "non-finite vector value"),
    ([1.0, 1.0], [math.inf, 1.0], "non-finite vector value"),
])
def test_cosine_refuses_non_finite_norms(a, b, message):
    with pytest.raises(RetrievalError, match=message):
        cosine(a, b)


def test_cosine_scale_invariance():
    rng = random.Random(1)
    for _ in range(20):
        a = [rng.uniform(-1, 1) for _ in range(8)]
        b = [rng.uniform(-1, 1) for _ in range(8)]
        if all(abs(x) < 1e-9 for x in a) or all(abs(x) < 1e-9 for x in b):
            continue
        scaled = [x * 7.5 for x in a]
        assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-9)


def test_hash_provider_is_deterministic():
    provider = HashEmbeddingProvider()
    first = provider.embed("who_am_i: Returns the string ID of the current user")
    second = HashEmbeddingProvider().embed("who_am_i: Returns the string ID of the current user")
    assert first == second
    assert len(first) == provider.dimension
    assert math.isclose(sum(v * v for v in first), 1.0, abs_tol=1e-9)


@pytest.mark.parametrize("dimension", [0, -3, 2.0, True, "64", None])
def test_hash_provider_refuses_a_dimension_below_one(dimension):
    with pytest.raises(RetrievalError, match="embedding dimension must be an integer of at least 1"):
        HashEmbeddingProvider(dimension=dimension)


def test_hash_provider_takes_a_dimension_of_one():
    assert HashEmbeddingProvider(dimension=1).embed("who_am_i") == [1.0]


def test_index_corpus_nine_tools(fixture_registry):
    provider = HashEmbeddingProvider()
    items = [(name, tool_embedding_text(spec)) for name, spec in fixture_registry.tools.items()]
    corpus = index_corpus(provider, items)
    assert len(corpus) == 9
    assert [item.id for item in corpus.items] == list(fixture_registry.names)


def test_index_empty_items():
    corpus = index_corpus(HashEmbeddingProvider(), [])
    assert len(corpus) == 0


def test_hash_provider_refuses_empty_text_and_indexing_keeps_its_error():
    with pytest.raises(RetrievalError, match=r"^cannot embed empty text$"):
        HashEmbeddingProvider().embed("")
    # a provider's own RetrievalError passes through index_corpus unwrapped
    with pytest.raises(RetrievalError) as err:
        index_corpus(HashEmbeddingProvider(), [("a", "x"), ("b", "")])
    assert str(err.value) == "cannot embed empty text" and err.value.__cause__ is None


@pytest.mark.parametrize("text, name", [
    (b"Who am I", "bytes"), (None, "NoneType"), (["a"], "list"), (7, "int"),
], ids=["bytes", "none", "list", "int"])
def test_hash_provider_refuses_what_is_not_text(text, name):
    message = f"can only embed text, not {name}"
    with pytest.raises(RetrievalError) as err:
        HashEmbeddingProvider().embed(text)
    assert str(err.value) == message
    with pytest.raises(RetrievalError) as err:
        index_corpus(HashEmbeddingProvider(), [("a", "x"), ("b", text)])
    assert str(err.value) == message and err.value.__cause__ is None


def test_index_rejects_wrong_dimension():
    provider = TableProvider({"x": [1.0] * 3, "y": [1.0] * 4})
    with pytest.raises(RetrievalError, match=r"item 1 \('b'\): vector has dimension 4, expected 3"):
        index_corpus(provider, [("a", "x"), ("b", "y")])


@pytest.mark.parametrize(("items", "message"), [
    ([("a", "x"), ("b", "nan")], "item 1 ('b'): non-finite vector value"),
    # no query could be scored against a zero or an overflowing item
    ([("a", "x"), ("b", "zero")], "item 1 ('b'): cosine of a zero vector is undefined"),
    ([("a", "x"), ("b", "big")], "item 1 ('b'): vector norm overflows"),
    ([("a", "x"), ("b", "z"), ("a", "x")], "item 2: duplicate corpus id 'a'"),
    # any other exception from the provider, here the table's KeyError
    ([("a", "x"), ("b", "missing")], "provider failed on item 'b': 'missing'"),
    # values that are not an int or a float: a bool is neither
    ([("a", "x"), ("b", "strs")], "item 1 ('b'): vector value is not an int or a float"),
    ([("a", "x"), ("b", "nones")], "item 1 ('b'): vector value is not an int or a float"),
    ([("a", "x"), ("b", "bool")], "item 1 ('b'): vector value is not an int or a float"),
], ids=["nan", "zero", "overflow", "duplicate-id", "provider-error", "str-values", "none-values",
        "bool-value"])
def test_index_rejects_bad_items(items, message):
    provider = TableProvider({"x": [1.0] * 3, "z": [1.0] * 3, "nan": [1.0, float("nan"), 1.0],
                              "zero": [0.0] * 3, "big": [1e200, 1.0, 1.0], "strs": ["x"] * 3,
                              "nones": [None] * 3, "bool": [True, 0.0, 0.0]})
    with pytest.raises(RetrievalError) as err:
        index_corpus(provider, items)
    assert str(err.value) == message


def test_retrieve_full_corpus_when_k_large():
    provider = HashEmbeddingProvider()
    corpus = index_corpus(provider, [(f"t{i}", f"text number {i}") for i in range(5)])
    ranked = retrieve_top_k("text number 3", corpus, provider, k=50)
    assert len(ranked) == 5
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_matches_exhaustive_sort_oracle():
    rng = random.Random(77)

    class RandomProvider:
        provider_id = "random-test"
        dimension = 16

        def embed(self, text):
            local = random.Random(hash(text) % (2**32))
            return [local.uniform(-1, 1) for _ in range(16)]

    provider = RandomProvider()
    for _ in range(20):
        size = rng.randint(1, 50)
        items = [(f"item{i:02d}", f"doc {rng.random()}") for i in range(size)]
        corpus = index_corpus(provider, items)
        query = f"query {rng.random()}"
        k = rng.randint(1, 10)
        got = retrieve_top_k(query, corpus, provider, k)
        query_vec = provider.embed(query)
        oracle = sorted(
            ((item.id, cosine(query_vec, list(item.vector))) for item in corpus.items),
            key=lambda pair: (-pair[1], pair[0]),
        )[:k]
        assert got == oracle


class TableProvider:
    """Embeds each text as the vector the test gave it."""

    provider_id = "table"
    dimension = None

    def __init__(self, table):
        self.table = table

    def embed(self, text):
        return list(self.table[text])


def _oracle_top_k(query_vec, corpus, k):
    return sorted(
        ((item.id, cosine(query_vec, list(item.vector))) for item in corpus.items),
        key=lambda pair: (-pair[1], pair[0]),
    )[:k]


@st.composite
def _retrieval_cases(draw):
    dimension = draw(st.integers(1, 6))
    component = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    vector = st.lists(component, min_size=dimension, max_size=dimension).filter(
        lambda v: sum(x * x for x in v) > 0.0
    )
    distinct = draw(st.lists(vector, min_size=1, max_size=5))
    size = draw(st.integers(1, 12))
    # Several items share a text, hence a vector and an exact score, and ids
    # are shuffled against item order, so ties must be broken by id.
    texts = [f"doc{draw(st.integers(0, len(distinct) - 1))}" for _ in range(size)]
    ids = draw(st.permutations([f"id{i:02d}" for i in range(size)]))
    table = {f"doc{i}": v for i, v in enumerate(distinct)}
    table["query"] = draw(vector)
    return table, list(zip(ids, texts)), draw(st.integers(1, size + 3))


@settings(max_examples=300, deadline=None)
@given(_retrieval_cases())
def test_retrieve_equals_cosine_sort_oracle_exactly(case):
    table, items, k = case
    provider = TableProvider(table)
    corpus = index_corpus(provider, items)
    got = retrieve_top_k("query", corpus, provider, k)
    assert got == _oracle_top_k(table["query"], corpus, k)
    assert len(got) == min(k, len(items))


def _scaled_vector(rng, dimension, exponent, tiny_share):
    """Gaussian components scaled by 10**exponent, some of them replaced by
    subnormal or tiny values."""
    scale = 10.0 ** exponent
    vector = [rng.gauss(0.0, 1.0) * scale for _ in range(dimension)]
    for j in range(dimension):
        if j and rng.random() < tiny_share:
            vector[j] = rng.choice([5e-324, -5e-324, 2.5e-310, -1e-320, 3e-150, -7e-200])
    if vector[0] == 0.0:
        vector[0] = scale
    return vector


@st.composite
def _prescore_cases(draw, dimensions=st.integers(1, 64), sizes=st.integers(11, 384)):
    """Corpora larger than k, with near-ties and exact ties placed around the
    k-th score and ids shuffled against item order."""
    dimension, size, k = draw(dimensions), draw(sizes), draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scaled_share, tiny_share = draw(st.sampled_from([0.0, 0.1, 0.5])), draw(st.sampled_from([0.0, 0.05, 0.3]))
    query = _scaled_vector(rng, dimension, draw(st.one_of(st.just(0), st.integers(-150, 150))), tiny_share)
    vectors = [
        _scaled_vector(rng, dimension, rng.randint(-150, 150) if rng.random() < scaled_share else 0, tiny_share)
        for _ in range(size)
    ]
    ranked = sorted(vectors, key=lambda v: -cosine(query, v))
    kth = ranked[min(k, size) - 1]
    for _ in range(draw(st.integers(0, 4))):
        vectors.append(list(kth))
    for _ in range(draw(st.integers(0, 4))):
        nudged = list(kth)
        j = rng.randrange(dimension)
        for _ in range(rng.randint(1, 4)):
            nudged[j] = math.nextafter(nudged[j], rng.choice([math.inf, -math.inf]))
        vectors.append(nudged)
    # Scores a little apart, closer than the pre-score can tell.
    for _ in range(draw(st.integers(0, 8))):
        near = list(kth)
        j = rng.randrange(dimension)
        near[j] += near[j] * rng.uniform(-1.0, 1.0) * 2.0 ** -rng.randint(20, 50)
        vectors.append(near)
    ids = [f"id{i:03d}" for i in range(len(vectors))]
    rng.shuffle(ids)
    table = {f"doc{i}": v for i, v in enumerate(vectors)}
    table["query"] = query
    return table, [(item_id, f"doc{i}") for i, item_id in enumerate(ids)], k


def _check_prescore_case(case):
    table, items, k = case
    provider = TableProvider(table)
    corpus = index_corpus(provider, items)
    query = table["query"]
    oracle = _oracle_top_k(query, corpus, len(items))
    assert retrieve_top_k("query", corpus, provider, k) == oracle[:k]
    kth_score = oracle[k - 1][1]
    query_norm = math.sqrt(sum(x * x for x in query))
    rescored = {corpus.items[i].id for i in _candidates(corpus, query, query_norm, k)}
    assert {item_id for item_id, score in oracle if score >= kth_score} <= rescored


@settings(max_examples=200, deadline=None)
@given(_prescore_cases())
def test_prescored_retrieval_equals_cosine_sort_oracle(case):
    _check_prescore_case(case)


@settings(max_examples=3, deadline=None)
@given(_prescore_cases(dimensions=st.just(1536), sizes=st.integers(11, 60)))
def test_prescored_retrieval_equals_oracle_at_1536_dimensions(case):
    _check_prescore_case(case)


def test_rescored_set_holds_every_tie_of_the_kth_score():
    rng = random.Random(15)
    query = [rng.uniform(-1, 1) for _ in range(16)]
    vectors = [[rng.uniform(-1, 1) for _ in range(16)] for _ in range(300)]
    tie = sorted(vectors, key=lambda v: -cosine(query, v))[4]
    # 30 copies of the 5th best vector, scaled by powers of two (exact
    # scores) and spread over ids on both sides of the k = 10 boundary.
    vectors += [[x * 2.0 ** (i % 7 - 3) for x in tie] for i in range(30)]
    ids = [f"t{i:03d}" for i in range(len(vectors))]
    rng.shuffle(ids)
    table = {f"d{i}": v for i, v in enumerate(vectors)}
    table["q"] = query
    provider = TableProvider(table)
    corpus = index_corpus(provider, [(item_id, f"d{i}") for i, item_id in enumerate(ids)])
    oracle = _oracle_top_k(query, corpus, len(vectors))
    kth_score = oracle[9][1]
    ties = {item_id for item_id, score in oracle if score == kth_score}
    assert len(ties) == 31
    rescored = {corpus.items[i].id for i in _candidates(corpus, query, math.sqrt(sum(x * x for x in query)), 10)}
    assert ties <= rescored
    assert len(rescored) < 40
    assert retrieve_top_k("q", corpus, provider, k=10) == oracle[:10]


def _near_unit_components(fraction, spread):
    """64 components n_j + fraction, n_j alternating 2047 -/+ spread and
    raised until the norm passes 2**14, which it then exceeds by less than
    1e-5 of itself: each 2**14 * c_j / |c| keeps about that fractional part."""
    vector = [2047 + (spread if j % 2 else -spread) + fraction for j in range(64)]
    j = 0
    while sum(x * x for x in vector) < 2.0 ** 28:
        vector[j] += 1
        j += 1
    return vector


def test_prescore_rounding_at_its_extreme_keeps_the_best_item():
    # With 14 fractional bits, every component of "over" rounds up by about
    # 0.4 and every component of "under" down by about 0.4, so "over"
    # pre-scores about 6 * 2**14 field units above "under", although "under"
    # scores higher in float: the cut must reach that far below the k-th
    # pre-score.
    query = [1.0] * 64
    over, under = _near_unit_components(0.6, 2), _near_unit_components(0.4, 0)
    assert cosine(query, under) > cosine(query, over)
    fillers = [[(-1.0) ** (j // (i + 1)) for j in range(64)] for i in range(6)]
    provider = TableProvider({"q": query, "over": over, "under": under,
                              **{f"f{i}": v for i, v in enumerate(fillers)}})
    corpus = index_corpus(provider, [("over", "over"), ("under", "under")]
                          + [(f"f{i}", f"f{i}") for i in range(len(fillers))])
    assert 1 in _candidates(corpus, query, 8.0, 1)
    assert retrieve_top_k("q", corpus, provider, 1) == [("under", cosine(query, under))]


def test_prescore_fields_fit_every_dimension_up_to_the_limit():
    # A quantized unit component is at most 2**Q + 1 in magnitude and |P|, a
    # query's field sum, at most 2**(2Q) + slack <= 2**29, so every field
    # stays in [2**29, 3 * 2**29] and cannot carry into its neighbour.
    assert 0 <= _BIAS - (1 << _Q) - 1 and _BIAS + (1 << _Q) + 1 < 1 << 32
    for dimension in (1, 2, 64, 1536, 3072, 1 << 20, _MAX_DIMENSION):
        assert (1 << 2 * _Q) + _slack(dimension) <= 1 << 29
    # The candidate flag sum: field - cut + 2**31 stays in [0, 2**32) for the
    # extreme fields and k-th fields, so it carries nothing across fields,
    # and its bit 31 is set exactly when field >= cut.
    low, high = _OFFSET - (1 << 29), _OFFSET + (1 << 29)
    for dimension in (1, 64, 1536, _MAX_DIMENSION):
        for kth in (low, _OFFSET, high):
            cut = kth - 2 * _slack(dimension)
            for field in (low, cut - 1, cut, kth, high):
                if low <= field <= high:
                    flagged = field - cut + (1 << 31)
                    assert 0 <= flagged < 1 << 32
                    assert (flagged >> 31 == 1) == (field >= cut)
    # The same bound attained: items equal to the query, its negation and
    # all-equal components of either sign, at 1,536 dimensions.
    rng = random.Random(1536)
    query = [rng.uniform(-1, 1) for _ in range(1536)]
    flat = [1.0] * 1536
    vectors = [query, [-x for x in query], flat, [-x for x in flat]]
    vectors += [[rng.uniform(-1, 1) for _ in range(1536)] for _ in range(20)]
    table = {f"d{i}": v for i, v in enumerate(vectors)}
    table["q"], table["flat"] = query, flat
    provider = TableProvider(table)
    corpus = index_corpus(provider, [(f"i{i:02d}", f"d{i}") for i in range(len(vectors))])
    for text in ("q", "flat"):
        for k in (1, 3):
            assert retrieve_top_k(text, corpus, provider, k) == _oracle_top_k(table[text], corpus, k)


def test_about_k_items_of_a_hashed_corpus_are_rescored():
    # 1,000 tool texts, 64-dimensional hashed trigrams, 50 queries with k = 10:
    # the pre-score's error bound leaves few items beyond the k to rescore.
    rng = random.Random(1000)
    words = ("list create update delete work item sprint user account query filter sort "
             "tag owner date priority issue ticket comment summary").split()
    provider = HashEmbeddingProvider()
    corpus = index_corpus(provider, [(f"tool{i:04d}", f"tool{i}: {' '.join(rng.choices(words, k=12))}")
                                     for i in range(1000)])
    rescored = []
    for _ in range(50):
        query = provider.embed(" ".join(rng.choices(words, k=8)))
        rescored.append(len(_candidates(corpus, query, math.sqrt(sum(x * x for x in query)), 10)))
        assert retrieve_top_k(query, corpus, provider, 10) == _oracle_top_k(query, corpus, 10)
    assert min(rescored) >= 10
    assert sum(rescored) / len(rescored) <= 12


_FIELD_LOW, _FIELD_HIGH = 1 << 29, 3 << 29


def _reference_select(fields, k, slack):
    """The rule :func:`_select` implements, over every field: T the k-th
    largest field by ``heapq.nlargest``, then every field >= T - 2*slack."""
    cut = heapq.nlargest(k, fields)[-1] - 2 * slack
    return [i for i, field in enumerate(fields) if field >= cut]


@st.composite
def _packed_fields(draw):
    """Fields in [2**29, 3 * 2**29] clustered about a few values, so that
    ties and shared top bytes are common, a k below their count and a slack
    up to 2**28."""
    anchors = draw(st.lists(st.one_of(st.integers(_FIELD_LOW, _FIELD_HIGH),
                                      st.integers(32, 96).map(lambda top: top << 24)), min_size=1, max_size=4))
    spread = draw(st.sampled_from([0, 1, 1 << 12, 1 << 24, 1 << 26]))
    field = st.builds(lambda anchor, offset: min(max(anchor + offset, _FIELD_LOW), _FIELD_HIGH),
                      st.sampled_from(anchors), st.integers(-spread, spread))
    fields = draw(st.lists(field, min_size=2, max_size=80))
    k = draw(st.one_of(st.integers(1, len(fields) - 1), st.just(len(fields) - 1)))
    slack = draw(st.one_of(st.integers(0, 1 << 20), st.integers((1 << 24) + 1, 1 << 28)))
    return fields, k, slack


@settings(max_examples=400, deadline=None)
@given(_packed_fields())
# Ties at the k-th field, across the k boundary.
@example(([1 << 30] * 5 + [_FIELD_LOW + 7] * 3, 3, 0))
# All of the top k in one top-byte bucket, above fields of another.
@example(([(64 << 24) + i for i in range(10)] + [40 << 24] * 5, 7, 1))
# The k-th field exactly at t << 24, and a cut just below it, in byte t - 1.
@example(([(71 << 24) + 5, 70 << 24, (70 << 24) - 1, 69 << 24], 2, 0))
@example(([(71 << 24) + 5, 70 << 24, (70 << 24) - 1, 69 << 24], 2, 1))
# k one below the number of fields.
@example(([_FIELD_LOW, _FIELD_HIGH, 1 << 30, 1 << 30], 3, 5))
# Fields at both ends of [2**29, 3 * 2**29]; the last cut is 0.
@example(([_FIELD_HIGH, _FIELD_LOW, _FIELD_LOW + 1, _FIELD_HIGH - 1], 1, 0))
@example(([_FIELD_LOW] * 3 + [_FIELD_HIGH], 2, 1 << 28))
# A slack above 2**24: the cut lies two bytes below t, and a field in
# byte t - 2 is selected.
@example(([80 << 24, 79 << 24, (78 << 24) + 1, 77 << 24, 60 << 24], 1, (1 << 24) + 1))
def test_top_byte_selection_equals_nlargest_over_every_field(case):
    fields, k, slack = case
    assert _select(array("I", fields).tobytes(), k, slack) == _reference_select(fields, k, slack)


def _check_against_plain_prescore(corpus, provider, query, k):
    """Retrieval equals the cosine sort, and the rescored items are those
    the plain pre-score selects: one multiply-add per dimension, then
    :func:`_reference_select`. Returns the query's non-zero weights."""
    assert retrieve_top_k(query, corpus, provider, k) == _oracle_top_k(query, corpus, k)
    norm = math.sqrt(sum(x * x for x in query))
    prescore = corpus._prescore
    weights = [round(x * 2.0 ** _Q / norm) for x in query]
    total = (_OFFSET - _BIAS * sum(weights)) * prescore.ones + sum(w * c for w, c in zip(weights, prescore.columns))
    fields = array("I", total.to_bytes(4 * len(prescore.positions), sys.byteorder))
    rescored = [prescore.positions[i] for i in _reference_select(fields, k, prescore.slack)]
    assert _candidates(corpus, query, norm, k) == rescored + prescore.rest
    return [w for w in weights if w]


_QUERY_WORDS = ("find get list open close merge assign label review build deploy release "
                "branch commit user team project milestone board status note").split()


def _hashed_corpus(rng, provider, size):
    return index_corpus(provider, [(f"tool{i:04d}", f"tool{i}: {' '.join(rng.choices(_QUERY_WORDS, k=10))}")
                                   for i in range(size)])


def test_hashed_queries_with_mostly_zero_weights_at_1536_dimensions_equal_the_oracle():
    # A hashed query of 1,536 dimensions has a few dozen non-zero weights;
    # the zero weights are skipped.
    rng = random.Random(1537)
    provider = HashEmbeddingProvider(dimension=1536)
    corpus = _hashed_corpus(rng, provider, 120)
    for k in (1, 3, 10, 10, 25):
        query = provider.embed(" ".join(rng.choices(_QUERY_WORDS, k=6)))
        nonzero = _check_against_plain_prescore(corpus, provider, query, k)
        assert 0 < len(nonzero) < 1536 // 10


def test_hashed_queries_with_repeated_weights_over_2000_tools_equal_the_oracle():
    # 64-dimensional hashed trigram counts over a norm: a query's weights
    # repeat, so columns sharing one are summed before one multiply.
    rng = random.Random(2000)
    provider = HashEmbeddingProvider()
    corpus = _hashed_corpus(rng, provider, 2000)
    repeated = 0
    for k in (1, 5, 10, 10, 10, 20):
        query = provider.embed(" ".join(rng.choices(_QUERY_WORDS, k=8)))
        nonzero = _check_against_plain_prescore(corpus, provider, query, k)
        repeated += len(nonzero) - len(set(nonzero))
    assert repeated >= 6 * 10


def test_items_and_queries_outside_the_safe_norm_range_are_scored_in_float():
    rng = random.Random(400)
    vectors = [[rng.uniform(-1, 1) for _ in range(8)] for _ in range(40)]
    vectors[3] = [x * 1e-130 for x in vectors[3]]
    vectors[7] = [x * 1e130 for x in vectors[7]]
    table = {f"d{i}": v for i, v in enumerate(vectors)}
    table["q"] = [rng.uniform(-1, 1) for _ in range(8)]
    table["tiny"] = [x * 1e-125 for x in table["q"]]
    table["huge"] = [x * 1e125 for x in table["q"]]
    provider = TableProvider(table)
    corpus = index_corpus(provider, [(f"i{i:02d}", f"d{i}") for i in range(len(vectors))])
    for text in ("q", "tiny", "huge"):
        query = table[text]
        norm = math.sqrt(sum(x * x for x in query))
        rescored = set(_candidates(corpus, query, norm, 2))
        if text == "q":
            assert {3, 7} <= rescored and len(rescored) < 10
        else:
            assert rescored == set(range(40))
        assert retrieve_top_k(text, corpus, provider, 2) == _oracle_top_k(query, corpus, 2)


def test_norms_refuse_non_finite_and_overflowing_items():
    good = CorpusItem(id="a", vector=(1.0, 0.0))
    for vector, problem in [
        ((float("nan"), 1.0), "non-finite vector value"),
        ((float("inf"), 1.0), "non-finite vector value"),
        ((1e200, 1.0), "vector norm overflows"),
        # each square is finite, their sum is not
        ((1.3e154, 1.3e154), "vector norm overflows"),
        (("x", "x"), "vector value is not an int or a float"),
        ((None, None), "vector value is not an int or a float"),
        ((True, 0.0), "vector value is not an int or a float"),
    ]:
        with pytest.raises(RetrievalError) as err:
            Corpus(items=(good, CorpusItem(id="b", vector=vector)), provider_id="table", dimension=2)
        assert str(err.value) == f"item 1 ('b'): {problem}"
    provider = TableProvider({"big": [1e200, 1.0]})
    with pytest.raises(RetrievalError) as err:
        index_corpus(provider, [("big", "big")])
    assert str(err.value) == "item 0 ('big'): vector norm overflows"


# Components that make a vector zero, non-finite, or overflow its norm:
# sqrt(DBL_MAX) is about 1.34e154.
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1e-300]),
    st.floats(1e154, 1e200).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-1e6, 1e6),
)


@settings(max_examples=300, deadline=None)
@given(vector=st.integers(1, 4).flatmap(lambda d: st.lists(_COMPONENTS, min_size=d, max_size=d)),
       item_id=st.text(max_size=5))
def test_corpus_refuses_exactly_the_vectors_cosine_refuses(vector, item_id):
    good = CorpusItem(id="a", vector=(1.0,) * len(vector))
    try:
        cosine(vector, vector)
    except RetrievalError as exc:
        expected = f"item 1 ({item_id!r}): {str(exc).removeprefix('a: ')}"
    else:
        expected = None
    try:
        corpus = Corpus(items=(good, CorpusItem(id=item_id, vector=tuple(vector))), provider_id="t",
                        dimension=len(vector))
    except RetrievalError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert corpus.norms[1] == math.sqrt(math.fsum(x * x for x in vector))


def test_retrieve_zero_vectors_and_wrong_dimension_raise():
    table = {"a": [1.0, -2.0], "zero": [0.0, 0.0], "q": [0.5, 0.5], "q3": [1.0, 1.0, 1.0],
             "strs": ["x", "x"], "nones": [None, None], "bool": [True, 0.0]}
    provider = TableProvider(table)
    with pytest.raises(RetrievalError) as err:
        index_corpus(provider, [("a", "a"), ("z", "zero")])
    assert str(err.value) == "item 1 ('z'): cosine of a zero vector is undefined"
    corpus = index_corpus(provider, [("a", "a")])
    # a vector query is checked as an embedded text is
    for query, message in [("zero", "query: cosine of a zero vector is undefined"),
                           ("q3", "query: vector has dimension 3, expected 2"),
                           ("strs", "query: vector value is not an int or a float"),
                           ("nones", "query: vector value is not an int or a float"),
                           ("bool", "query: vector value is not an int or a float")]:
        for sent in (query, table[query]):
            with pytest.raises(RetrievalError) as err:
                retrieve_top_k(sent, corpus, provider, k=1)
            assert str(err.value) == message
    assert retrieve_top_k("q", corpus, provider, k=1) == [("a", cosine([0.5, 0.5], [1.0, -2.0]))]
    assert retrieve_top_k(table["q"], corpus, provider, k=1) == retrieve_top_k("q", corpus, provider, k=1)


def test_hash_embeddings_are_pinned(fixture_registry, golden_examples):
    # sha256 over the vectors of the fixture tool texts and golden queries,
    # each embedded twice by one provider; the digest was taken before
    # trigram hashing was memoized, so the memo changes no vector.
    texts = [tool_embedding_text(spec) for spec in fixture_registry.tools.values()]
    texts += [example.query for example in golden_examples]
    provider = HashEmbeddingProvider()
    digest = hashlib.sha256()
    for text in texts + texts:
        digest.update(json.dumps(provider.embed(text)).encode("utf-8"))
    assert digest.hexdigest() == "187301b2ba4727a6847a95695a1e4348faf788a8c2fcb96e6969e498cd4cf20d"


def _float_embed(dimension: int, seed: int, text: str) -> list[float]:
    """The hashing provider's ``embed`` as it was before it counted in ints:
    float accumulation, a float sum of squares and a division per component."""
    padded = f"##{text.lower()}##"
    values = [0.0] * dimension
    for i in range(len(padded) - 2):
        digest = hashlib.sha256(f"{seed}:{padded[i : i + 3]}".encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dimension
        values[bucket] += 1.0 if digest[4] & 1 else -1.0
    norm = math.sqrt(sum(v * v for v in values))
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    return [v / norm for v in values]


# Small alphabets at small dimensions make counts that cancel to a zero norm:
# "aa" does at dimension 1, and "a ba" at dimension 2.
_EMBED_TEXTS = st.one_of(st.text(alphabet="ab A", min_size=1, max_size=30), st.text(min_size=1, max_size=200))


@settings(max_examples=300, deadline=None)
@given(text=_EMBED_TEXTS, dimension=st.sampled_from([1, 2, 3, 64, 257]), seed=st.integers(0, 3))
@example(text="aa", dimension=1, seed=0)
@example(text="a ba", dimension=2, seed=0)
def test_hash_embedding_equals_the_float_accumulating_oracle(text, dimension, seed):
    provider = HashEmbeddingProvider(dimension, seed)
    vector = provider.embed(text)
    assert list(map(float.hex, vector)) == list(map(float.hex, _float_embed(dimension, seed, text)))
    # one float object per distinct component
    assert len({id(x) for x in vector}) == len(set(vector))


# Few letters, so that trigrams repeat across and within texts, with Latin-1
# letters, astral characters and "İ", which lowercases to two code points.
_REPEATING_TEXTS = st.lists(st.text(alphabet="ab éÿ\U0001F600\U00010400İ", min_size=1, max_size=12),
                            min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(texts=_REPEATING_TEXTS, dimension=st.sampled_from([1, 2, 3, 64, 257]), seed=st.integers(0, 3))
@example(texts=["aa", "aa", "İİ", "\U0001F600a"], dimension=2, seed=0)
@example(texts=["İstanbul \U0001F600 İİ \U0001F600\U0001F600"], dimension=64, seed=0)
def test_hash_embedding_through_one_provider_equals_the_oracle(texts, dimension, seed):
    provider = HashEmbeddingProvider(dimension, seed)
    for text in texts + texts:
        vector = provider.embed(text)
        assert list(map(float.hex, vector)) == list(map(float.hex, _float_embed(dimension, seed, text)))
    seen = set()
    for text in texts:
        padded = f"##{text.lower()}##"
        seen.update(padded[i : i + 3] for i in range(len(padded) - 2))
    memo = provider._trigram_codes
    assert all(type(key) is tuple and len(key) == 3 for key in memo)
    assert {"".join(key) for key in memo} == seen and len(memo) == len(seen)
    # equal pairs are one object
    assert len({id(pair) for pair in memo.values()}) == len(set(memo.values())) <= 2 * dimension


def test_retrieve_rejects_non_finite_query():
    table = {"a": [1.0, 0.0], "z": [0.0, 1.0], "nan": [float("nan"), 1.0], "inf": [float("inf"), 1.0]}
    provider = TableProvider(table)
    corpus = index_corpus(provider, [("z", "z"), ("a", "a")])
    for query in ("nan", "inf", table["nan"], table["inf"]):
        with pytest.raises(RetrievalError) as err:
            retrieve_top_k(query, corpus, provider, k=2)
        assert str(err.value) == "query: non-finite vector value"


def _query_error(vector):
    provider = TableProvider({"a": [1.0, 0.0], "q": vector})
    with pytest.raises(RetrievalError) as err:
        retrieve_top_k("q", index_corpus(provider, [("a", "a")]), provider, k=1)
    return str(err.value)


def test_retrieve_names_a_nan_query_value():
    assert _query_error([float("nan"), 1.0]) == "query: non-finite vector value"


def test_retrieve_names_an_overflowing_query_norm():
    assert _query_error([1e200, 1.0]) == "query: vector norm overflows"
    assert _query_error([1.3e154, 1.3e154]) == "query: vector norm overflows"


def test_retrieve_ties_broken_by_ascending_id():
    class ConstantProvider:
        provider_id = "constant"
        dimension = 4

        def embed(self, text):
            return [1.0, 0.0, 0.0, 0.0]

    provider = ConstantProvider()
    corpus = index_corpus(provider, [("zebra", "a"), ("apple", "b"), ("mango", "c")])
    ranked = retrieve_top_k("anything", corpus, provider, k=3)
    assert [item_id for item_id, _ in ranked] == ["apple", "mango", "zebra"]


def test_retrieve_empty_corpus_errors():
    provider = HashEmbeddingProvider()
    corpus = index_corpus(provider, [])
    with pytest.raises(RetrievalError):
        retrieve_top_k("q", corpus, provider, k=1)


@pytest.mark.parametrize("k, message", [
    (2.5, "k must be an integer, got 2.5"),
    ("3", "k must be an integer, got '3'"),
    (True, "k must be an integer, got True"),
    (None, "k must be an integer, got None"),
    (0, "k must be at least 1"),
    (-2, "k must be at least 1"),
])
def test_retrieve_refuses_a_k_that_is_not_a_positive_int(k, message):
    provider = HashEmbeddingProvider()
    corpus = index_corpus(provider, [("a", "text"), ("b", "other text")])
    with pytest.raises(RetrievalError, match=f"^{re.escape(message)}$"):
        retrieve_top_k("q", corpus, provider, k)


@pytest.mark.parametrize("query", [b"x" * 64, bytearray(b"who am i"), None, 7, {"who": 1.0}],
                         ids=["bytes", "bytearray", "none", "int", "dict"])
def test_retrieve_refuses_a_query_that_is_neither_text_nor_vector(query):
    # bytes are neither a text to embed nor a vector of byte values
    provider = HashEmbeddingProvider()
    corpus = index_corpus(provider, [("a", "text"), ("b", "other text")])
    message = f"query must be a str or a list or tuple of floats, got {type(query).__name__}"
    with pytest.raises(RetrievalError, match=f"^{re.escape(message)}$"):
        retrieve_top_k(query, corpus, provider, 1)


def test_retrieve_provider_mismatch():
    provider = HashEmbeddingProvider()
    corpus = index_corpus(provider, [("a", "text")])
    other = HashEmbeddingProvider(seed=9)
    for query in ("q", other.embed("q")):
        with pytest.raises(RetrievalError, match="corpus indexed with provider 'hash-trigram-64-0', "
                                                 "queried with 'hash-trigram-64-9'"):
            retrieve_top_k(query, corpus, other, k=1)


def test_top_n_recall_hand_counted():
    assert top_n_recall(["A", "C", "D", "E", "F"], {"A", "B"}, 5) == 0.5


def test_top_n_recall_full_and_zero():
    assert top_n_recall(["A", "B", "C"], {"A", "B"}, 2) == 1.0
    assert top_n_recall(["C", "D"], {"A", "B"}, 2) == 0.0
    with pytest.raises(RetrievalError):
        top_n_recall(["A"], set(), 1)


def test_top_n_recall_monotone_in_n():
    rng = random.Random(4)
    for _ in range(50):
        universe = [f"t{i}" for i in range(20)]
        rng.shuffle(universe)
        needed = set(rng.sample(universe, rng.randint(1, 6)))
        last = 0.0
        for n in range(1, len(universe) + 1):
            value = top_n_recall(universe, needed, n)
            assert value >= last
            last = value
        assert last == 1.0


def test_retrieval_takes_nothing_from_the_package_but_the_registry():
    # ranking sits below the chat transport and the enforcer
    tree = ast.parse(Path(chainplan.retrieval.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(f"chainplan.{node.module or ''}" if node.level else node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.split(".")[0] == "chainplan"} == {"chainplan.registry"}
