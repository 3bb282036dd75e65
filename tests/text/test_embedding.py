"""Unit and property tests for deterministic hashed embeddings."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets.generator import build_planted_catalog
from repro.retriever.summarizer import narrate_table
from repro.text import HashingEmbedder, cosine_similarity
from repro.text.embedding import trigram_table_stats
from repro.text.tokenize import char_ngrams
from tests.oracles.embedding_scalar import embed_scalar, features


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


class TestAgainstTheScalarLoop:
    """``HashingEmbedder.embed`` hashes each distinct trigram once and adds
    with ``np.bincount``; the feature-at-a-time loop it replaced
    (``tests/oracles/embedding_scalar.py``) must give the same bytes."""

    @given(st.text(max_size=80), st.sampled_from([8, 64, 192]))
    def test_arbitrary_text_is_byte_identical(self, text, dim):
        embedder = HashingEmbedder(dim=dim)
        vector = embedder.embed(text)
        assert vector.dtype == np.float64 and vector.shape == (dim,)
        assert vector.tobytes() == embed_scalar(embedder, text).tobytes()

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

    def test_trigrams_are_hashed_once_per_distinct_string(self, monkeypatch):
        """No clock: ``blake2b`` runs once per word and bigram occurrence and
        at most once per *distinct* trigram, however often it repeats — over
        a catalog's narrations that is a fraction of the feature count the
        scalar loop hashed one by one."""
        lake, _ = build_planted_catalog(seed=1, n_tables=600, rows=4)
        texts = [narrate_table(table) for table in lake.tables()]
        embedder = HashingEmbedder(dim=256)
        trigrams = {gram for text in texts for gram in char_ngrams(text, 3)}
        total = sum(len(features(embedder, text)) for text in texts)
        plain = total - sum(len(char_ngrams(text, 3)) for text in texts)  # words + bigrams
        digests = 0
        blake2b = hashlib.blake2b

        def counting(*args, **kwargs):
            nonlocal digests
            digests += 1
            return blake2b(*args, **kwargs)

        before = trigram_table_stats()
        monkeypatch.setattr(hashlib, "blake2b", counting)
        embedder.embed_batch(texts)
        monkeypatch.undo()
        after = trigram_table_stats()
        assert plain <= digests <= plain + len(trigrams) < total / 2
        assert digests - plain == after["misses"] - before["misses"]
        lookups = sum(after[key] - before[key] for key in ("hits", "misses"))
        assert lookups == total - plain
        assert len(trigrams) <= after["size"] <= 37**3 + 37**2 + 37
