"""Pneuma-Retriever's hit resolution one hit at a time: the oracle of
``PneumaRetriever.search_batch``'s resolution through kept entries.

Each hit looks its table up in the catalog (a dropped table is skipped),
takes the payload from a :class:`TableCache` of its own (one ``get`` per
hit, fingerprint compare and all) and the narration from the index, and
becomes a Document.  The ranking is the retriever's own
(``_search_index``, breaker and all), so the two must return equal
Documents: doc ids, titles, texts, payloads, scores and degraded flags.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.documents.document import Document
from repro.relational.table import TableCache
from repro.retriever.summarizer import table_payload


class PerHitResolver:
    """Resolves a retriever's ranked hits the way it did before it kept
    per-document entries."""

    def __init__(self, retriever) -> None:
        self.retriever = retriever
        self.payloads = TableCache(lambda tables: [table_payload(t) for t in tables])

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[Document]]:
        retriever = self.retriever
        batches, degraded = retriever._search_index(list(queries), k, mode)
        results = []
        for hits in batches:
            documents = []
            for hit in hits:
                table = retriever.database.find_table(hit.doc_id)
                if table is None:
                    continue
                documents.append(
                    Document(
                        f"table:{table.name}",
                        "table",
                        table.name,
                        retriever.index.text_of(hit.doc_id),
                        self.payloads.get(table),
                        hit.score,
                        "pneuma-retriever",
                        degraded,
                    )
                )
            results.append(documents)
        return results
