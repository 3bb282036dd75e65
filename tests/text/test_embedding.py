"""Unit and property tests for deterministic hashed embeddings."""

import hashlib
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generator import build_planted_catalog
from repro.retriever.summarizer import narrate_table
from repro.text import CachedEmbedder, HashingEmbedder, tokenize_cached
from repro.text import embedding
from repro.text.embedding import _gram, _gram_codes, _feature_digest, trigram_table_stats
from repro.text.tokenize import normalize
from tests.oracles.embedding_scalar import char_ngrams, embed_scalar, features
from tests.oracles.text_scoring import cosine_similarity


@pytest.fixture(scope="module")
def embedder():
    return HashingEmbedder(dim=256)


class TestBasics:
    def test_deterministic(self, embedder):
        a = embedder.embed("tariff schedule")
        b = embedder.embed("tariff schedule")
        assert np.allclose(a, b)

    def test_unit_norm(self, embedder):
        vec = embedder.embed("some nontrivial text about suppliers")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_is_zero(self, embedder):
        assert np.linalg.norm(embedder.embed("")) == 0.0

    def test_batch_shape(self, embedder):
        matrix = embedder.embed_batch(["a b", "c d", "e f"])
        assert matrix.shape == (3, 256)

    def test_batch_empty(self, embedder):
        assert embedder.embed_batch([]).shape == (0, 256)

    def test_min_dim_validated(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=4)


class TestSimilarityStructure:
    def test_related_texts_closer_than_unrelated(self, embedder):
        tariff1 = embedder.embed("tariff rates for imported goods from germany")
        tariff2 = embedder.embed("import tariff percentage by country germany")
        weather = embedder.embed("daily rainfall measured at coastal stations")
        assert cosine_similarity(tariff1, tariff2) > cosine_similarity(tariff1, weather)

    def test_self_similarity_is_one(self, embedder):
        vec = embedder.embed("potassium ppm sample")
        assert cosine_similarity(vec, vec) == pytest.approx(1.0)

    def test_zero_vector_similarity(self, embedder):
        vec = embedder.embed("word")
        assert cosine_similarity(vec, np.zeros(256)) == 0.0


texts = st.text(alphabet="abcdefg ", min_size=1, max_size=30)


@given(texts)
def test_embedding_is_stable_under_recreation(text):
    """Different embedder instances agree (no hidden RNG state)."""
    a = HashingEmbedder(dim=64).embed(text)
    b = HashingEmbedder(dim=64).embed(text)
    assert np.allclose(a, b)


@given(texts)
def test_norm_is_zero_or_one(text):
    vec = HashingEmbedder(dim=64).embed(text)
    norm = np.linalg.norm(vec)
    assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0)


#: Texts whose normalized form is empty, one or two symbols long, or not ASCII.
EDGE_TEXTS = ["", "   \t\n", "a", "ab", "Z!", "9 ", "?? --", "the of", "ß", "İ", "東京", "x y"]


#: Word salads long enough that one bin adds many features of a text.
sentences = st.lists(
    st.sampled_from(["supplier", "price", "orders", "total", "the", "of", "GERMANY", "q3"]),
    max_size=40,
).map(" ".join)


@st.composite
def batches(draw):
    """Text lists with repeats, edge texts and arbitrary unicode."""
    texts = draw(st.lists(
        st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=60),
                  st.text(alphabet="abc xy_Z", max_size=30), sentences),
        max_size=8,
    ))
    if texts:
        texts += draw(st.lists(st.sampled_from(texts), max_size=3))
    return draw(st.permutations(texts))


class OddWeights(HashingEmbedder):
    """Weights whose sums round: with the default quarters every partial
    sum is exact, so only these show a row summed out of feature order."""

    WORD_WEIGHT, BIGRAM_WEIGHT, CHAR_WEIGHT = 0.1, 0.3, 0.7


class TestAgainstTheScalarLoop:
    """``HashingEmbedder.embed_batch`` hashes each distinct feature once,
    reads trigram digests from an array and adds with ``np.bincount`` a
    block at a time; the feature-at-a-time loop it replaced
    (``tests/oracles/embedding_scalar.py``) must give the same bytes."""

    @given(st.text(max_size=80), st.sampled_from([8, 64, 192]))
    def test_arbitrary_text_is_byte_identical(self, text, dim):
        embedder = HashingEmbedder(dim=dim)
        vector = embedder.embed(text)
        assert vector.dtype == np.float64 and vector.shape == (dim,)
        assert vector.tobytes() == embed_scalar(embedder, text).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(batches(), st.sampled_from([8, 64, 192]),
           st.one_of(st.integers(1, 40), st.sampled_from([embedding._BLOCK_FEATURES])),
           st.sampled_from([HashingEmbedder, OddWeights]))
    def test_batch_rows_are_byte_identical_at_any_block_cap(self, texts, dim, cap, kind):
        """Caps from one feature up put block boundaries mid-text."""
        embedder = kind(dim=dim)
        with mock.patch.object(embedding, "_BLOCK_FEATURES", cap):
            matrix = embedder.embed_batch(texts)
        assert matrix.dtype == np.float64 and matrix.shape == (len(texts), dim)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == embed_scalar(embedder, text).tobytes()

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 50])
    def test_a_text_longer_than_the_cap_keeps_its_feature_order(self, cap):
        """A text is never split: one longer than the cap is a block of its
        own, summed in feature order (``OddWeights`` rounds otherwise)."""
        embedder = OddWeights(dim=8)
        texts = ["the quick brown fox jumps over the lazy dog " * 3, "price total " * 9, "ab"]
        with mock.patch.object(embedding, "_BLOCK_FEATURES", cap):
            matrix = embedder.embed_batch(texts)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == embed_scalar(embedder, text).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   \t\n",
            "a",
            "ab",
            "the of and",  # stopwords only: trigrams, no word feature
            "İstanbul café 東京 naïve",
            "supplier_id supplierId SUPPLIER ID",
            "x " * 200,
        ],
    )
    def test_edge_texts_are_byte_identical(self, embedder, text):
        vector = embedder.embed(text)
        assert vector.dtype == np.float64
        assert vector.tobytes() == embed_scalar(embedder, text).tobytes()

    @pytest.mark.parametrize("cap", [embedding._BLOCK_FEATURES, 10**9])
    def test_each_feature_is_hashed_once_per_process(self, monkeypatch, cap):
        """No clock: over a catalog's narrations ``blake2b`` runs exactly
        once per distinct word, bigram and trigram new to the process,
        however the texts fall into blocks, and a second call hashes
        nothing — a fraction of the feature count the scalar loop hashed
        one by one.  A cap above the call's feature count makes the whole
        call one block."""
        lake, _ = build_planted_catalog(seed=1, n_tables=600, rows=4)
        texts = [narrate_table(table) for table in lake.tables()]
        embedder = HashingEmbedder(dim=256)
        counts = [len(features(embedder, text)) for text in texts]
        tokens = [tokenize_cached(text) for text in texts]
        words = {w for text_words in tokens for w in text_words}
        pairs = {pair for text_words in tokens for pair in zip(text_words, text_words[1:])}
        plain = sum(2 * len(text_words) - 1 for text_words in tokens if text_words)
        codes = np.unique(_gram_codes([normalize(text) for text in texts]))
        assert codes.size == len({gram for text in texts for gram in char_ngrams(text, 3)})
        unseen = int(np.count_nonzero(embedding._TRIGRAMS._digests[codes] == 0))
        occurrences = sum(len(char_ngrams(text, 3)) for text in texts)
        assert plain + occurrences == sum(counts)
        table = embedding._FeatureTable()  # every word and bigram is new to it
        digests = 0
        blake2b = hashlib.blake2b

        def counting(*args, **kwargs):
            nonlocal digests
            digests += 1
            return blake2b(*args, **kwargs)

        before = trigram_table_stats()
        monkeypatch.setattr(embedding, "_FEATURES", table)
        monkeypatch.setattr(hashlib, "blake2b", counting)
        monkeypatch.setattr(embedding, "_BLOCK_FEATURES", cap)
        embedder.embed_batch(texts)
        first = digests
        again = embedder.embed_batch(texts)
        monkeypatch.undo()
        after = trigram_table_stats()
        assert first == len(words) + len(pairs) + unseen < sum(counts) / 2
        assert digests == first
        for row, text in zip(again[::97], texts[::97]):
            assert row.tobytes() == embed_scalar(embedder, text).tobytes()
        new = len(words) + len(pairs)
        assert table.stats() == {
            "hits": 2 * plain - new, "misses": new, "words": len(words), "bigrams": len(pairs),
        }  # fmt: skip
        assert after["misses"] - before["misses"] == unseen
        assert after["size"] - before["size"] == unseen
        lookups = sum(after[key] - before[key] for key in ("hits", "misses"))
        assert lookups == 2 * occurrences
        assert codes.size <= after["size"] <= 37**3 + 37**2 + 37


class TestFeatureTable:
    """The process-wide word and bigram table under threads, resets and a
    stream of first-sight queries."""

    @staticmethod
    def assert_consistent(table):
        """Ids index the words, keys are sorted and unique, and every digest
        is ``blake2b`` of the feature it stands for."""
        state = table._state
        assert len(set(state.words)) == len(state.words)
        assert state.ids == {word: i for i, word in enumerate(state.words)}
        for word, digest in zip(state.words, state.word_digests.tolist()):
            assert digest.to_bytes(8, "little") == _feature_digest(f"w:{word}")
        merged, digests = state.pairs
        assert merged.dtype == np.int64 and digests.dtype == np.uint64
        assert merged[-1] == embedding._SENTINEL
        assert np.all(merged[1:] > merged[:-1])
        merged, digests = merged[:-1], digests[:-1]
        assert not set(merged.tolist()) & set(state.pending)
        keys = merged.tolist() + list(state.pending)
        values = [d.to_bytes(8, "little") for d in digests.tolist()] + list(state.pending.values())
        for key, digest in zip(keys, values):
            a, b = state.words[key >> 32], state.words[key & 0xFFFFFFFF]
            assert digest == _feature_digest(f"b:{a}_{b}")

    def test_threads_filling_a_fresh_table_agree_with_the_oracle(self, monkeypatch):
        """Eight threads embed overlapping batches into an empty table that
        merges often: every row equals the scalar loop byte for byte."""
        lake, _ = build_planted_catalog(seed=3, n_tables=80, rows=4)
        texts = [narrate_table(table) for table in lake.tables()]
        names = [table.name.replace("_", " ") for table in lake.tables()]
        texts += [f"{name} by {column}" for name in names for column in ("date", "id")]
        table = embedding._FeatureTable()
        monkeypatch.setattr(embedding, "_FEATURES", table)
        monkeypatch.setattr(embedding._FeatureTable, "_MERGE_MIN", 4)
        monkeypatch.setattr(embedding, "_BLOCK_FEATURES", 512)
        embedder = HashingEmbedder(dim=64)
        batches = [texts[i * len(texts) // 12 :][: len(texts) // 4] for i in range(8)]
        results, errors = {}, []

        def work(index):
            try:
                results[index] = embedder.embed_batch(batches[index])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == 8
        for index, batch in enumerate(batches):
            for row, text in zip(results[index], batch):
                assert row.tobytes() == embed_scalar(embedder, text).tobytes()
        self.assert_consistent(table)
        assert table._state.pairs[0].size > 1

    def test_rows_are_byte_identical_across_a_reset(self, monkeypatch):
        """Past its bound the table starts over; what it returns does not
        change."""
        lake, _ = build_planted_catalog(seed=5, n_tables=30, rows=4)
        texts = [narrate_table(table) for table in lake.tables()]
        table = embedding._FeatureTable()
        monkeypatch.setattr(embedding, "_FEATURES", table)
        monkeypatch.setattr(embedding._FeatureTable, "_BOUND", 150)
        embedder = OddWeights(dim=64)
        generations = {id(table._state)}
        for at in range(0, len(texts), 3):
            batch = texts[at : at + 3] + texts[: 1 + at // 10]
            for row, text in zip(embedder.embed_batch(batch), batch):
                assert row.tobytes() == embed_scalar(embedder, text).tobytes()
            generations.add(id(table._state))
            self.assert_consistent(table)
        assert len(generations) > 3
        assert table._state.size() <= 150 + 2 * max(len(tokenize_cached(t)) for t in texts) * 4

    def test_first_sight_queries_merge_logarithmically_often(self, monkeypatch):
        """K one-text embeds, each with one bigram new to the table, fold
        their pending keys into the sorted arrays O(log K) times, not K."""
        vocabulary = [f"k{i:02d}z" for i in range(50)]
        queries = [f"{a} {b}" for a in vocabulary for b in vocabulary if a != b][:2000]
        table = embedding._FeatureTable()
        monkeypatch.setattr(embedding, "_FEATURES", table)
        merges = 0
        merge = embedding._FeatureTable._merge

        def counting(self, state):
            nonlocal merges
            merges += 1
            merge(self, state)

        monkeypatch.setattr(embedding._FeatureTable, "_merge", counting)
        embedder = HashingEmbedder(dim=64)
        embedder.embed_batch(vocabulary)  # every word known: each query adds one bigram
        for query in queries:
            embedder.embed(query)
        assert table.stats()["bigrams"] == len(queries)
        assert 0 < merges <= 2 * math.ceil(math.log2(len(queries)))
        self.assert_consistent(table)
        for query in queries[::150]:
            assert embedder.embed(query).tobytes() == embed_scalar(embedder, query).tobytes()


def test_the_kernel_holds_one_block_at_a_time():
    """Beyond its output the kernel holds one block's arrays, however
    many texts the call has (token memo and feature tables warm, as on a
    second build: those are process-wide, not the kernel's)."""
    lake, _ = build_planted_catalog(seed=1, n_tables=600, rows=4)
    texts = [narrate_table(table) for table in lake.tables()]
    embedder = HashingEmbedder(dim=192)
    embedder.embed_batch(texts)
    extra = []
    for batch in (texts[:150], texts):
        tracemalloc.start()
        try:
            out = embedder.embed_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert max(extra) < 1 << 20
    assert extra[1] < 1.5 * extra[0]


def test_no_gram_hashes_to_the_unseen_mark():
    """The trigram table marks a code not hashed yet with a zero digest;
    the alphabet is small enough to check that no gram really hashes to it."""
    codes = range(37**3 + 37**2 + 37)
    digests = np.frombuffer(b"".join(_feature_digest(f"c:{_gram(c)}") for c in codes), "<u8")
    assert digests.all()
    assert len({_gram(c) for c in codes}) == len(codes)


def test_threads_racing_on_first_sight_grams_count_each_once(monkeypatch):
    """Threads that embed the same unseen text at once may all hash its
    grams, but each gram is one miss: the table's size equals its misses."""
    table = embedding._TrigramTable()
    monkeypatch.setattr(embedding, "_TRIGRAMS", table)
    embedder = HashingEmbedder(dim=64)
    lookups = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            text = " ".join(f"r{round_}w{i}q{i * 7}" for i in range(300))
            barrier = threading.Barrier(4)
            threads = [
                threading.Thread(target=lambda: (barrier.wait(), embedder.embed_batch([text])))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            lookups += 4 * len(char_ngrams(text, 3))
    finally:
        sys.setswitchinterval(interval)
    stats = table.stats()
    assert stats["size"] == stats["misses"] > 0
    assert stats["hits"] + stats["misses"] == lookups
    assert embedder.embed(text).tobytes() == embed_scalar(embedder, text).tobytes()


class TestCachedBatch:
    def test_repeats_are_one_miss_and_rows_are_read_only(self):
        cached = CachedEmbedder(dim=64)
        texts = ["alpha beta", "gamma", "alpha beta", "", "gamma", "alpha beta"]
        matrix = cached.embed_batch(texts)
        assert cached.stats() == {"hits": 3, "misses": 3, "size": 3}
        assert matrix.shape == (6, 64) and not matrix.flags.writeable
        for row, text in zip(matrix, texts):
            assert row.tobytes() == embed_scalar(cached.inner, text).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        again = cached.embed_batch(["gamma", "delta", "delta"])
        assert cached.stats() == {"hits": 5, "misses": 4, "size": 4}
        assert not again.flags.writeable and not cached.embed("delta").flags.writeable
        assert again[1].tobytes() == cached.embed("delta").tobytes()
        fresh = cached.embed_batch(["epsilon", "zeta"])  # all misses: the kernel's matrix
        assert not fresh.flags.writeable
        assert cached.embed("zeta").tobytes() == fresh[1].tobytes()
