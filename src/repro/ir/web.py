"""Offline Web Search: a corpus of synthetic "web pages" behind the same
retrieval interface the paper's thin web-search wrapper exposes.

Pages carry both prose (for retrieval/interpretation) and structured
``records`` (so the Materializer can integrate them, e.g. tariff schedules
becoming a column of a procurement table).  The evaluation harness disables
this retriever, exactly as the paper does for KramaBench runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..documents.document import Document
from ..retriever.index import HybridIndex


@dataclass
class WebPage:
    url: str
    title: str
    text: str
    records: List[Dict[str, Any]] = field(default_factory=list)


class WebSearch:
    """A thin interface to an (offline) search engine."""

    def __init__(self, pages: Optional[List[WebPage]] = None):
        self.index = HybridIndex(dim=192)
        self._pages: Dict[str, WebPage] = {}
        for page in pages or []:
            self.add_page(page)

    def add_page(self, page: WebPage) -> None:
        self._pages[page.url] = page
        self.index.add(page.url, f"{page.title}. {page.text}")

    def __len__(self) -> int:
        return len(self._pages)

    def search_batch(self, queries: Sequence[str], k: int = 3) -> List[List[Document]]:
        """The top-``k`` pages of each query, as Documents."""
        results = []
        for hits in self.index.search_batch(queries, k=k):
            documents = []
            for hit in hits:
                page = self._pages[hit.doc_id]
                documents.append(
                    Document(
                        doc_id=f"web:{page.url}",
                        kind="web",
                        title=page.title,
                        text=page.text,
                        payload={"url": page.url, "records": page.records},
                        score=hit.score,
                        source="web-search",
                    )
                )
            results.append(documents)
        return results
