"""The Document Database: captured domain knowledge as a retrievable store.

The paper: Pneuma-Seeker "automatically captures knowledge from user
interactions and save[s] it to Document Database", enabling cross-user
knowledge transfer — one user's clarification (e.g. "tariff impact must
account for direct and indirect tariffs") accelerates later sessions.
It reuses Pneuma-Retriever's indexer (here: the same hybrid index).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..documents.document import Document
from ..retriever.index import HybridIndex
from ..storage.atomic import atomic_write_json


@dataclass
class KnowledgeEntry:
    entry_id: str
    text: str
    topic: str = ""
    author: str = ""


class DocumentDatabase:
    """Append-only store of domain-knowledge snippets with hybrid search."""

    def __init__(self) -> None:
        self.index = HybridIndex(dim=192)
        self._entries: Dict[str, KnowledgeEntry] = {}
        self._counter = 0
        # The serving layer shares one store across all sessions, so
        # captures from concurrent turns must not race on the counter.
        self._lock = threading.Lock()
        #: When set (by the storage layer), every captured entry is written
        #: durably before :meth:`add` returns — the hook that makes
        #: knowledge captured between saves survive a crash.
        self.recorder: Optional[Callable[[dict], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, text: str, topic: str = "", author: str = "") -> KnowledgeEntry:
        """Capture one knowledge snippet; returns the stored entry."""
        if not text.strip():
            raise ValueError("knowledge text must be non-empty")
        with self._lock:
            self._counter += 1
            entry = KnowledgeEntry(f"k{self._counter}", text.strip(), topic, author)
            self._entries[entry.entry_id] = entry
            self.index.add(entry.entry_id, f"{topic}. {text}" if topic else text)
            if self.recorder is not None:
                self.recorder(
                    {
                        "id": entry.entry_id,
                        "text": entry.text,
                        "topic": entry.topic,
                        "author": entry.author,
                    }
                )
        return entry

    def entries(self) -> List[KnowledgeEntry]:
        with self._lock:
            return list(self._entries.values())

    def search_batch(self, queries: Sequence[str], k: int = 3) -> List[List[Document]]:
        """The top ``k`` captured entries for each query, under one hold of
        the lock; a single query is a batch of one."""
        if not self._entries:  # nothing captured yet: nothing to rank
            return [[] for _ in queries]
        # Serialized against add(): unlike the frozen table index, this
        # store keeps growing while other sessions search it.
        with self._lock:
            batches = self.index.search_batch(queries, k=k)
        results = []
        for hits in batches:
            documents = []
            for hit in hits:
                entry = self._entries[hit.doc_id]
                documents.append(
                    Document(
                        doc_id=f"knowledge:{entry.entry_id}",
                        kind="knowledge",
                        title=entry.topic or "captured knowledge",
                        text=entry.text,
                        payload={"author": entry.author, "topic": entry.topic},
                        score=hit.score,
                        source="document-db",
                    )
                )
            results.append(documents)
        return results

    # ------------------------------------------------------------------
    # Persistence (emergent documentation should survive the session)
    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        with self._lock:
            records = [
                {"id": e.entry_id, "text": e.text, "topic": e.topic, "author": e.author}
                for e in self._entries.values()
            ]
        # Published atomically (write-temp → fsync → rename → fsync-dir):
        # a crash mid-save leaves the previous file, never a torn one.
        atomic_write_json(path, records)

    @classmethod
    def load(cls, path: Path) -> "DocumentDatabase":
        db = cls()
        for record in json.loads(Path(path).read_text()):
            db.add(record["text"], record.get("topic", ""), record.get("author", ""))
        return db
