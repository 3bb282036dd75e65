"""The uniform document object the IR System hands to other components.

The paper: "It abstracts heterogeneous retrieval format, such as tables and
text, into document objects."  A :class:`Document` carries a kind tag, a
human/LLM-readable text rendering, and a structured JSON payload that
policies can parse (schema + samples for tables, records for web pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class Document:
    """One retrievable unit: a table summary, a web page, or knowledge."""

    doc_id: str
    kind: str  # 'table' | 'web' | 'knowledge'
    title: str
    text: str
    #: Read-only: a table Document's payload is the one its retriever
    #: renders per table and shares across every hit on that table.
    payload: Dict[str, Any] = field(default_factory=dict)
    score: float = 0.0
    source: str = ""  # which retriever produced it
    #: True when served by a degraded path (e.g. BM25-only because the
    #: dense half's circuit is open); ranking may differ from healthy.
    degraded: bool = False

    def to_json(self) -> Dict[str, Any]:
        data = {
            "doc_id": self.doc_id,
            "kind": self.kind,
            "title": self.title,
            "text": self.text,
            "payload": self.payload,
            "score": self.score,
            "source": self.source,
        }
        # Only serialized when set, so healthy-path JSON (and the prompts
        # rendered from it) stays bit-identical to the pre-resilience code.
        if self.degraded:
            data["degraded"] = True
        return data
