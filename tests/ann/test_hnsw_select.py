"""One distance product per neighbour selection, against the per-candidate
walk it replaced (``tests/oracles/hnsw_select.py``): same links on every
level, same entry point, same search results — on vectors whose distances
tie exactly, where an ulp decides nothing only because of the grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import HNSWIndex
from repro.text import HashingEmbedder
from tests.oracles.hnsw_select import PerCandidateHNSWIndex

WORDS = ("alpha", "beta", "gamma", "delta", "id", "score", "tag", "date")
#: Few words, short texts, 16 dimensions: many equal and mirrored vectors.
texts = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    min_size=2,
    max_size=70,
)


def build(cls, vectors, metric, **params):
    index = cls(dim=vectors.shape[1], metric=metric, seed=11, **params)
    for position, vector in enumerate(vectors):
        index.add(f"v{position}", vector)
    return index


def graph(index):
    return index._links, index._entry_point, index._node_levels


@pytest.mark.parametrize("metric", ["cosine", "ip", "l2"])
class TestGraphIdentity:
    @given(texts)
    @settings(max_examples=40, deadline=None)
    def test_discrete_embeddings_with_exact_ties(self, metric, documents):
        vectors = HashingEmbedder(dim=16).embed_batch(documents)
        params = dict(m=3, ef_construction=6)  # small degree: every insert shrinks a neighbour
        expected = build(PerCandidateHNSWIndex, vectors, metric, **params)
        index = build(HNSWIndex, vectors, metric, **params)
        assert graph(index) == graph(expected)
        queries = vectors[:: max(1, len(vectors) // 5)]
        found = index.search_batch(queries, k=5)
        wanted = expected.search_batch(queries, k=5)
        assert [[(h.key, h.distance) for h in hits] for hits in found] == [
            [(h.key, h.distance) for h in hits] for hits in wanted
        ]

    def test_default_parameters_on_continuous_vectors(self, metric):
        vectors = np.random.default_rng(5).normal(size=(250, 24))
        assert graph(build(HNSWIndex, vectors, metric)) == graph(
            build(PerCandidateHNSWIndex, vectors, metric)
        )


def test_distance_blocks_per_insert_are_bounded(monkeypatch):
    """No clock: a block of distances (``_dist_rows``) is taken for each of
    the beam search's expansions, once per shrink, and at most ``m`` times
    per selection — never once per candidate of every selection.  That is a
    constant per ``add``, whatever the size of the index."""
    vectors = np.random.default_rng(2).normal(size=(300, 32))
    calls = []
    dist_rows = HNSWIndex._dist_rows

    def counting(self, rows, query):
        calls[-1] += 1
        return dist_rows(self, rows, query)

    monkeypatch.setattr(HNSWIndex, "_dist_rows", counting)
    index = HNSWIndex(dim=32, seed=3)
    for position, vector in enumerate(vectors):
        calls.append(0)
        index.add(f"v{position}", vector)
    monkeypatch.undo()
    levels = max(index._node_levels) + 1
    # the beam's expansions, plus on each level one block per selected
    # neighbour and one per neighbour shrunk
    per_add = index.ef_construction + 2 * index.m * levels
    assert max(calls) <= per_add // 2  # the per-candidate walk: up to 632 here
    assert sum(calls) <= per_add * len(vectors) // 4  # ... and 84,420 in all; now 12,464
