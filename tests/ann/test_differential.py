"""Generated-input differential: :class:`ExactIndex` against the scalar
brute-force oracle (``tests/oracles/brute.py``).

Every search method must return the oracle's keys, in the oracle's
order, with bit-equal distances — on gaussian vectors, on hashing
embeddings of a tiny vocabulary (whose distances tie exactly, so the
order of a tie is the insertion order or the test fails), with zero
vectors mixed in, for ``k`` of 0, 1, 18 and at least ``n``, on compiled
and uncompiled indexes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import ExactIndex
from repro.text import HashingEmbedder
from tests.oracles.brute import BruteForceIndex

WORDS = ("alpha", "beta", "gamma", "delta", "id", "score", "tag", "date")


@st.composite
def cases(draw):
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = 4  # query vectors that are not stored
    if draw(st.sampled_from(["gaussian", "hashing"])) == "gaussian":
        # one dimension: every vector points one of two ways, all tie
        dim = draw(st.sampled_from([1, 2, 16, 48]))
        vectors = rng.normal(size=(n + extra, dim))
    else:
        dim = draw(st.sampled_from([8, 16, 48]))
        texts = [" ".join(rng.choice(WORDS, size=rng.integers(1, 4))) for _ in range(n + extra)]
        vectors = HashingEmbedder(dim=dim).embed_batch(texts)
    vectors[rng.random(n + extra) < draw(st.sampled_from([0.0, 0.05]))] = 0.0
    stored, fresh = vectors[:n], vectors[n:]
    picked = stored[rng.integers(0, n, size=min(n, 3))] if n else stored
    queries = np.concatenate([picked, fresh, np.zeros((1, dim))])
    k = draw(st.sampled_from([0, 1, 18, n, n + draw(st.integers(1, 5))]))
    return stored, queries, k, draw(st.booleans())


def rows(hits):
    return [(h.key, h.distance.hex()) for h in hits]


@settings(max_examples=60, deadline=None)
@given(cases())
def test_every_search_equals_the_oracle(case):
    stored, queries, k, compiled = case
    dim = stored.shape[1]
    index, oracle = ExactIndex(dim), BruteForceIndex(dim)
    keys = [f"v{i}" for i in range(len(stored))]
    for key, vector in zip(keys, stored):
        index.add(key, vector)
        oracle.add(key, vector)
    if compiled:
        index.compile()

    batched = index.search_batch(queries, k=k)
    ids = index.search_batch_ids(queries, k=k)
    assert len(batched) == len(ids) == len(queries)
    for query, hits, nodes in zip(queries, batched, ids):
        expected = rows(oracle.search(query, k=k))
        assert rows(hits) == expected
        assert rows(index.search(query, k=k)) == expected
        assert nodes.dtype == np.int64
        assert [keys[node] for node in nodes.tolist()] == [key for key, _ in expected]


@settings(max_examples=30, deadline=None)
@given(cases())
def test_a_hydrated_index_equals_the_one_it_was_exported_from(case):
    """The segment round trip without the file: ``hydrate_compiled`` over
    ``export_compiled`` ranks bit-identically."""
    stored, queries, k, _ = case
    index = ExactIndex(stored.shape[1])
    for i, vector in enumerate(stored):
        index.add(f"v{i}", vector)
    export = index.export_compiled()
    hydrated = ExactIndex.hydrate_compiled(export["meta"], export["matrix"], export["keys"])
    assert [rows(hits) for hits in hydrated.search_batch(queries, k=k)] == [
        rows(hits) for hits in index.search_batch(queries, k=k)
    ]
