"""The stem vocabulary is a lookup in front of the rules, never a change to them."""

import importlib
import statistics
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import STOPWORDS, stem, stem_vocabulary_stats, tokenize, tokenize_cached
from tests.oracles.text_scoring import reference_stem

# ``repro.text.tokenize`` the attribute is the function; this is the module.
tokenize_module = importlib.import_module("repro.text.tokenize")
_StemVocabulary = tokenize_module._StemVocabulary

words = st.text(alphabet="abcdeilnorstuy0123456789", min_size=0, max_size=14)
texts = st.lists(
    st.one_of(words, st.sampled_from(["the", "Readings", "siteName", "pm25_level", "--", "É"])),
    max_size=12,
).map(" ".join)


def plain_tokenize(text):
    """``tokenize`` with the rules applied token by token, no table."""
    return [reference_stem(t) for t in tokenize(text, do_stem=False)]


@given(words)
def test_stem_equals_the_rules(word):
    assert stem(word) == reference_stem(word)
    assert stem(word) == reference_stem(word)  # now answered from the table


@given(texts)
def test_tokenize_equals_plain_tokenize(text):
    assert tokenize(text) == plain_tokenize(text)
    assert tokenize_cached(text) == tuple(plain_tokenize(text))
    assert tokenize(text, stop=False) == [
        reference_stem(t) for t in tokenize(text, stop=False, do_stem=False)
    ]
    assert not set(tokenize(text, do_stem=False)) & STOPWORDS


@pytest.fixture
def tiny_vocabulary(monkeypatch):
    """The process-wide table swapped for an empty one that holds 4 stems."""
    vocabulary = _StemVocabulary()
    monkeypatch.setattr(vocabulary, "_BOUND", 4)
    monkeypatch.setattr(tokenize_module, "_STEMS", vocabulary)
    return vocabulary


@settings(max_examples=50)
@given(st.lists(texts, min_size=1, max_size=6))
def test_results_survive_eviction(several_texts):
    vocabulary = _StemVocabulary()
    vocabulary._BOUND = 4
    for text in several_texts * 2:
        raw = tokenize(text, do_stem=False)
        assert vocabulary.stem_all(raw) == [reference_stem(t) for t in raw]
        assert vocabulary.stats()["size"] <= 4


def test_bound_evicts_oldest_first_and_counts(tiny_vocabulary):
    tokens = ["readings", "samples", "planning", "recorded", "studies", "readings"]
    assert tokenize(" ".join(tokens)) == [reference_stem(t) for t in tokens]
    stats = tiny_vocabulary.stats()
    # "readings" was evicted by the fifth distinct token and learnt again.
    assert stats == {"hits": 0, "misses": 6, "size": 4}
    assert stem("readings") == "read"
    assert tiny_vocabulary.stats() == {"hits": 1, "misses": 6, "size": 4}
    assert set(stem_vocabulary_stats()) == {"hits", "misses", "size"}


def test_learning_past_the_bound_costs_what_learning_below_it_does():
    """Each eviction is O(1): past the bound a new token costs about what
    it did while the table filled, however many evictions came before."""
    vocabulary = _StemVocabulary()
    vocabulary._BOUND = bound = 8192
    chunk = 512
    tokens = [f"tok{i}x" for i in range(8 * bound)]
    seconds = []
    for start in range(0, len(tokens), chunk):
        began = time.perf_counter()
        vocabulary.stem_all(tokens[start : start + chunk])
        seconds.append(time.perf_counter() - began)
    filling = statistics.median(seconds[: bound // chunk])
    evicting = statistics.median(seconds[2 * bound // chunk :])
    assert vocabulary.stats() == {"hits": 0, "misses": len(tokens), "size": bound}
    assert evicting < 2 * filling, (filling, evicting)


def test_a_repeated_unseen_token_is_one_miss(tiny_vocabulary):
    assert tokenize("sensors sensors sensors") == ["sensor"] * 3
    assert tiny_vocabulary.stats() == {"hits": 2, "misses": 1, "size": 1}


def test_stems_are_shared_objects():
    first, second = tokenize("calibrated readings"), tokenize("readings calibrated")
    assert first[0] is second[1] and first[1] is second[0]


def test_concurrent_tokenize_agrees_with_the_rules(tiny_vocabulary):
    corpus = [f"reading{i}s planned{i % 7} sites studies pm{i}" for i in range(200)]
    expected = [plain_tokenize(text) for text in corpus]
    failures = []

    def worker():
        for _ in range(5):
            for text, want in zip(corpus, expected):
                if tokenize(text) != want:
                    failures.append(text)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    stats = tiny_vocabulary.stats()
    assert stats["size"] <= 4
    # Every lookup was counted once: 4 threads x 5 passes over the corpus.
    assert stats["hits"] + stats["misses"] == 20 * sum(len(want) for want in expected)
