"""Unit and property tests for deterministic hashed embeddings."""

import hashlib
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
    def test_trigrams_are_hashed_once_per_distinct_string(self, monkeypatch, cap):
        """No clock: over a catalog's narrations ``blake2b`` runs exactly
        once per distinct word and bigram feature of each block, and once
        per trigram the process had not seen before — a fraction of the
        feature count the scalar loop hashed one by one.  Blocks hold whole
        texts of at most ``_BLOCK_FEATURES`` features, so a cap above the
        call's feature count makes the whole call one block."""
        lake, _ = build_planted_catalog(seed=1, n_tables=600, rows=4)
        texts = [narrate_table(table) for table in lake.tables()]
        embedder = HashingEmbedder(dim=256)
        counts = [len(features(embedder, text)) for text in texts]
        blocks: list = []
        size = cap + 1
        for text, count in zip(texts, counts):
            if size + count > cap:
                blocks.append([])
                size = 0
            blocks[-1].append(tokenize_cached(text))
            size += count
        plain = 0
        for block in blocks:
            plain += len({w for words in block for w in words})
            plain += len({pair for words in block for pair in zip(words, words[1:])})
        if cap > sum(counts):
            assert len(blocks) == 1
        codes = np.unique(_gram_codes([normalize(text) for text in texts]))
        assert codes.size == len({gram for text in texts for gram in char_ngrams(text, 3)})
        unseen = int(np.count_nonzero(embedding._TRIGRAMS._digests[codes] == 0))
        occurrences = sum(len(char_ngrams(text, 3)) for text in texts)
        digests = 0
        blake2b = hashlib.blake2b

        def counting(*args, **kwargs):
            nonlocal digests
            digests += 1
            return blake2b(*args, **kwargs)

        before = trigram_table_stats()
        monkeypatch.setattr(hashlib, "blake2b", counting)
        monkeypatch.setattr(embedding, "_BLOCK_FEATURES", cap)
        embedder.embed_batch(texts)
        first = digests
        embedder.embed_batch(texts)  # every trigram known now: words and bigrams only
        monkeypatch.undo()
        after = trigram_table_stats()
        assert first == plain + unseen < sum(counts) / 2
        assert digests - first == plain
        assert after["misses"] - before["misses"] == unseen
        assert after["size"] - before["size"] == unseen
        lookups = sum(after[key] - before[key] for key in ("hits", "misses"))
        assert lookups == 2 * occurrences
        assert codes.size <= after["size"] <= 37**3 + 37**2 + 37


def test_the_kernel_holds_one_block_at_a_time():
    """Beyond its output the kernel holds one block's arrays and digest
    dicts, however many texts the call has (token memo warm, as on a
    second build: the memo itself is not the kernel's)."""
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
