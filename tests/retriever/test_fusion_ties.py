"""Fusion under ties: a frozen index (int keys in doc_id rank order), the
same documents unfrozen (doc_id keys) and a frozen index round-tripped
through ``export_fusion`` / ``hydrate_fusion`` return the same hits, bit
for bit, in every mode and for every ``k``.

Duplicated and near-duplicated texts make fused scores tie exactly (two
documents at mirrored ranks in the two halves, or one only in each half
at the same rank), and document ids are inserted in shuffled order, so a
tie broken by insertion position instead of by doc_id shows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import ExactIndex
from repro.retriever import HybridIndex
from repro.text import BM25Index

VOCAB = [f"t{i}x" for i in range(8)]
DIM = 24


@st.composite
def tied_corpora(draw):
    """``(doc_id, text)`` pairs in insertion order: a few base texts, each
    document a copy of one, or one with a word added or dropped."""
    bases = draw(
        st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5), min_size=1, max_size=4)
    )
    n_docs = draw(st.integers(1, 16))
    texts = []
    for _ in range(n_docs):
        words = list(draw(st.sampled_from(bases)))
        edit = draw(st.sampled_from(["copy", "add", "drop"]))
        if edit == "add":
            words.append(draw(st.sampled_from(VOCAB)))
        elif edit == "drop" and len(words) > 1:
            words.pop()
        texts.append(" ".join(words))
    doc_ids = draw(st.permutations([f"d{i}" for i in range(n_docs)]))
    return list(zip(doc_ids, texts))


def hits_of(batches):
    return [
        [(h.doc_id, h.score.hex(), h.bm25_rank, h.vector_rank) for h in hits] for hits in batches
    ]


def round_tripped(frozen: HybridIndex) -> HybridIndex:
    return HybridIndex.hydrate_fusion(
        bm25=BM25Index.hydrate_compiled(**frozen.bm25.export_compiled()),
        vectors=ExactIndex.hydrate_compiled(**frozen.vectors.export_compiled()),
        **frozen.export_fusion(),
    )


@settings(max_examples=120, deadline=None)
@given(
    docs=tied_corpora(),
    queries=st.lists(
        st.lists(st.sampled_from(VOCAB), max_size=3).map(" ".join), min_size=1, max_size=4
    ),
    k=st.integers(0, 20),
)
def test_frozen_unfrozen_and_hydrated_fusion_agree(docs, queries, k):
    unfrozen = HybridIndex(dim=DIM)
    unfrozen.add_batch(docs)
    frozen = HybridIndex(dim=DIM)
    frozen.add_batch(docs)
    frozen.freeze()
    hydrated = round_tripped(frozen)
    assert hydrated.kernel_stats()["compiled"] and not unfrozen.kernel_stats()["compiled"]
    for mode in ("hybrid", "bm25", "vector"):
        expected = hits_of(unfrozen.search_batch(queries, k=k, mode=mode))
        assert hits_of(frozen.search_batch(queries, k=k, mode=mode)) == expected, mode
        assert hits_of(hydrated.search_batch(queries, k=k, mode=mode)) == expected, mode


def test_a_fused_tie_goes_to_the_smaller_doc_id():
    """Two copies of one text, inserted larger id first: the vector half
    ranks them by insertion, BM25 by doc_id, so their fused scores are
    one sum in two orders — equal — and the smaller doc_id leads."""
    docs = [("d1", "t1x t2x"), ("d0", "t1x t2x"), ("d2", "t3x")]
    for freeze in (False, True):
        index = HybridIndex(dim=DIM)
        index.add_batch(docs)
        if freeze:
            index.freeze()
        first, second = index.search("t1x t2x", k=2)
        assert (first.bm25_rank, first.vector_rank) == (0, 1)
        assert (second.bm25_rank, second.vector_rank) == (1, 0)
        assert first.score == second.score
        assert [first.doc_id, second.doc_id] == ["d0", "d1"], freeze
