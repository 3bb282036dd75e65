"""The delta overlay: transparent when empty, correct when not."""

import pytest

from repro.retriever.index import FrozenIndexError, HybridIndex
from repro.storage import DeltaHybridIndex

DOCS = [
    (f"doc{i}", f"table about {'finance tariffs' if i % 3 else 'supplier orders'} row {i}")
    for i in range(40)
]
QUERIES = ["tariff finance", "supplier orders", "row 17"]


def frozen_base():
    index = HybridIndex(dim=48, seed=9)
    index.add_batch(DOCS)
    return index.freeze()


class TestTransparency:
    def test_empty_overlay_is_bit_transparent(self):
        base = frozen_base()
        delta = DeltaHybridIndex(base)
        for mode in ("hybrid", "bm25", "vector"):
            for mine, theirs in zip(
                base.search_batch(QUERIES, k=6, mode=mode),
                delta.search_batch(QUERIES, k=6, mode=mode),
            ):
                assert [(h.doc_id, h.score, h.bm25_rank, h.vector_rank) for h in mine] == [
                    (h.doc_id, h.score, h.bm25_rank, h.vector_rank) for h in theirs
                ]

    def test_requires_frozen_base(self):
        index = HybridIndex(dim=48)
        with pytest.raises(ValueError):
            DeltaHybridIndex(index)


class TestOverlay:
    def test_added_docs_are_searchable(self):
        delta = DeltaHybridIndex(frozen_base())
        delta.add("zebra", "zebra stripes savannah wildlife table")
        hits = delta.search("zebra savannah stripes", k=3)
        assert hits[0].doc_id == "zebra"
        assert "zebra" in delta and delta.text_of("zebra").startswith("zebra")
        assert len(delta) == len(DOCS) + 1

    def test_readd_supersedes_base_copy(self):
        delta = DeltaHybridIndex(frozen_base())
        delta.add("doc3", "completely different zebra content now")
        assert delta.text_of("doc3") == "completely different zebra content now"
        hits = delta.search("zebra content", k=3)
        assert hits[0].doc_id == "doc3"
        # Count stays constant: the base copy is masked, not duplicated.
        assert len(delta) == len(DOCS)

    def test_mask_tombstones_base_doc(self):
        delta = DeltaHybridIndex(frozen_base())
        target = delta.search(QUERIES[0], k=1)[0].doc_id
        delta.mask(target)
        assert target not in delta
        assert len(delta) == len(DOCS) - 1
        with pytest.raises(KeyError):
            delta.text_of(target)
        survivors = [h.doc_id for h in delta.search(QUERIES[0], k=len(DOCS))]
        assert target not in survivors

    def test_negative_k_rejected_with_and_without_overlay(self):
        delta = DeltaHybridIndex(frozen_base())
        with pytest.raises(ValueError, match="k must be >= 0"):
            delta.search(QUERIES[0], k=-1)
        delta.mask("doc1")  # base is now asked for k + 1 = 0
        with pytest.raises(ValueError, match="k must be >= 0"):
            delta.search(QUERIES[0], k=-1)

    def test_freeze_seals_overlay(self):
        delta = DeltaHybridIndex(frozen_base())
        delta.add("x", "extra doc")
        delta.freeze()
        assert delta.frozen
        with pytest.raises(FrozenIndexError):
            delta.add("y", "more")
        with pytest.raises(FrozenIndexError):
            delta.mask("doc1")

    def test_kernel_stats(self):
        delta = DeltaHybridIndex(frozen_base())
        delta.add("x", "extra doc")
        delta.mask("doc1")
        stats = delta.kernel_stats()
        assert stats["kernel"] == "array+delta"
        assert stats["delta_docs"] == 1 and stats["masked_docs"] == 1
        assert stats["docs"] == len(DOCS)  # -1 masked, +1 added


class TestCompaction:
    def test_compact_matches_cold_build(self):
        delta = DeltaHybridIndex(frozen_base())
        delta.add("zebra", "zebra stripes savannah wildlife table")
        delta.add("doc3", "completely different zebra content now")
        delta.mask("doc6")
        compacted = delta.compact()

        cold = HybridIndex(dim=48, seed=9, embedder=delta.embedder)
        items = [(d, t) for d, t in DOCS if d not in ("doc3", "doc6")]
        items += [
            ("zebra", "zebra stripes savannah wildlife table"),
            ("doc3", "completely different zebra content now"),
        ]
        cold.add_batch(items)
        cold.freeze()
        for mine, theirs in zip(
            compacted.search_batch(QUERIES + ["zebra"], k=8),
            cold.search_batch(QUERIES + ["zebra"], k=8),
        ):
            assert [(h.doc_id, h.score) for h in mine] == [(h.doc_id, h.score) for h in theirs]
