"""Generated-input differential: :class:`BM25Index` against the closed-form
oracle (``tests/oracles/bm25_legacy.py``).

``search``, ``search_slots`` and an index hydrated from
``export_compiled`` must each return the oracle's ``(doc_id, score)``
list exactly, scores bit for bit — over tiny vocabularies and documents
of one common length (so dozens of documents tie at the k-th score and
the doc_id tie-break decides the cut), doc_ids in an order unrelated to
insertion, ``k`` of 0, 1, 18 and at least ``n``, on compiled and
uncompiled indexes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import BM25Index
from tests.oracles.bm25_legacy import ClosedFormBM25

#: Stem-stable, non-stopword tokens.
WORDS = ("alpha", "beta", "gamma", "delta", "omega", "zeta", "kappa", "sigma")


@st.composite
def cases(draw):
    n = draw(st.one_of(st.integers(0, 12), st.integers(0, 120)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = WORDS[: draw(st.integers(1, len(WORDS)))]
    equal_length = draw(st.booleans())
    lengths = [3] * n if equal_length else [rng.randint(1, 8) for _ in range(n)]
    names = [f"doc{i}" for i in range(n)]
    rng.shuffle(names)  # insertion order is not doc_id order
    docs = [(name, " ".join(rng.choices(vocab, k=size))) for name, size in zip(names, lengths)]
    queries = [" ".join(rng.sample(vocab, rng.randint(1, len(vocab)))) for _ in range(4)]
    queries += ["", "unseenword", " ".join(vocab)]
    k = draw(st.sampled_from([0, 1, 18, n, n + draw(st.integers(1, 5))]))
    return docs, queries, k, draw(st.booleans())


def rows(hits):
    return [(h.doc_id, h.score.hex()) for h in hits]


@settings(max_examples=80, deadline=None)
@given(cases())
def test_every_search_path_equals_the_oracle(case):
    docs, queries, k, compiled = case
    index, oracle = BM25Index(), ClosedFormBM25()
    for doc_id, text in docs:
        index.add(doc_id, text)
    oracle.add_batch(docs)
    if compiled:
        index.compile()
    doc_of = {slot: doc_id for doc_id, slot in index.slot_items()}
    expected = [rows(oracle.search(query, k=k)) for query in queries]

    assert [rows(index.search(query, k=k)) for query in queries] == expected
    assert [rows(hits) for hits in index.search_batch(queries, k=k)] == expected
    for slots, want in zip(index.search_slots(queries, k=k), expected):
        assert slots.dtype.kind == "i"
        assert [doc_of[slot] for slot in slots.tolist()] == [doc_id for doc_id, _ in want]
    hydrated = BM25Index.hydrate_compiled(**index.export_compiled())
    assert [rows(hydrated.search(query, k=k)) for query in queries] == expected
