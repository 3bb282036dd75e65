"""The one-pass BM25 compile: every term's postings built as one CSR
structure, which ``export_compiled`` returns and ``hydrate_compiled``
reads back.

Held to two oracles: the term-at-a-time compile it replaced
(``tests/oracles/bm25_termwise.py``, byte for byte) and the closed-form
scorer (``tests/oracles/bm25_legacy.py``, every ranking bit for bit).
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import BM25Index
from tests.oracles.bm25_legacy import ClosedFormBM25
from tests.oracles.bm25_termwise import export_termwise

WORDS = ("alpha", "beta", "gamma", "delta", "omega", "zeta", "kappa", "sigma")
ARRAYS = ("doc_lengths", "norm", "idf", "offsets", "slots", "tfs", "contrib")


@st.composite
def corpora(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 60))
    vocab = WORDS[: draw(st.integers(1, len(WORDS)))]
    names = [f"doc{i}" for i in range(n)]
    rng.shuffle(names)
    docs = [(name, " ".join(rng.choices(vocab, k=rng.randint(0, 9)))) for name in names]
    queries = [" ".join(rng.sample(vocab, rng.randint(1, len(vocab)))) for _ in range(3)]
    return docs, queries + ["", "unseenword"]


def same_export(mine, theirs):
    assert mine["meta"] == theirs["meta"]
    assert mine["doc_ids"] == theirs["doc_ids"]
    assert mine["terms"] == theirs["terms"]
    for name in ARRAYS:
        assert mine[name].dtype == theirs[name].dtype, name
        assert mine[name].tobytes() == theirs[name].tobytes(), name


def rows(hits):
    return [(h.doc_id, h.score.hex()) for h in hits]


@settings(max_examples=80, deadline=None)
@given(corpora())
def test_compiled_postings_equal_the_termwise_build_and_rank_like_the_oracle(corpus):
    docs, queries = corpus
    index, oracle = BM25Index(), ClosedFormBM25()
    for doc_id, text in docs:
        index.add(doc_id, text)
    oracle.add_batch(docs)
    export = index.compile().export_compiled()
    same_export(export, export_termwise(index))
    offsets, slots = export["offsets"], export["slots"]
    assert offsets[0] == 0 and offsets[-1] == slots.size
    assert export["terms"] == sorted(set(export["terms"]))
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        assert hi > lo and np.all(np.diff(slots[lo:hi]) > 0)
    for query in queries:
        assert rows(index.search(query, k=8)) == rows(oracle.search(query, k=8))


def test_an_add_after_compile_invalidates_the_postings():
    index = BM25Index()
    index.add("a", "alpha beta")
    index.add("b", "alpha gamma")
    before = index.compile().export_compiled()
    kept = {name: before[name].copy() for name in ARRAYS}
    index.add("c", "gamma gamma delta")
    after = index.export_compiled()
    fresh = BM25Index()
    fresh.add("a", "alpha beta")
    fresh.add("b", "alpha gamma")
    fresh.add("c", "gamma gamma delta")
    same_export(after, fresh.export_compiled())
    assert "delta" in after["terms"] and "delta" not in before["terms"]
    for name in ARRAYS:  # the earlier export is a structure of its own
        assert before[name].tobytes() == kept[name].tobytes()
    assert [h.doc_id for h in index.search("gamma delta", k=3)] == ["c", "b"]


def test_export_hydrate_export_is_bit_identical():
    docs = [(f"d{i}", " ".join(WORDS[j % 8] for j in range(i % 11 + 1))) for i in range(40)]
    index = BM25Index(k1=1.2, b=0.6)
    for doc_id, text in docs:
        index.add(doc_id, text)
    export = index.export_compiled()
    hydrated = BM25Index.hydrate_compiled(**export)
    same_export(hydrated.export_compiled(), export)
    for query in ("alpha", "beta omega", "sigma kappa alpha"):
        assert rows(hydrated.search(query, k=40)) == rows(index.search(query, k=40))


def test_empty_index_exports_empty_postings():
    index = BM25Index()
    export = index.export_compiled()
    same_export(export, export_termwise(index))
    assert export["offsets"].tolist() == [0] and export["terms"] == []
    same_export(BM25Index.hydrate_compiled(**export).export_compiled(), export)
