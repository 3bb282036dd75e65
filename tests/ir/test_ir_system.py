"""Unit tests for the IR System: dispatch, web search, knowledge DB."""

import pytest

from repro.ir import DocumentDatabase, IRSystem, WebPage, WebSearch
from repro.obs import Tracer
from repro.relational import Database, Table
from repro.retriever import PneumaRetriever


@pytest.fixture
def lake():
    db = Database("lake")
    db.register(
        Table.from_columns(
            "purchase_orders",
            {"country": ["Germany", "Japan"], "price": [100.0, 200.0]},
        )
    )
    return db


@pytest.fixture
def web():
    return WebSearch(
        [
            WebPage(
                url="https://x/tariffs",
                title="Tariff Schedule",
                text="new import tariffs by country",
                records=[{"country": "Germany", "new_tariff": 0.15}],
            )
        ]
    )


class TestWebSearch:
    def test_search_returns_documents(self, web):
        (docs,) = web.search_batch(["import tariffs"], k=1)
        assert docs[0].kind == "web"
        assert docs[0].payload["records"][0]["country"] == "Germany"

    def test_add_page(self, web):
        web.add_page(WebPage("https://x/other", "Rainfall", "daily rainfall data"))
        assert len(web) == 2
        (docs,) = web.search_batch(["rainfall"], k=1)
        assert docs[0].title == "Rainfall"


class TestDocumentDatabase:
    def test_capture_and_search(self):
        db = DocumentDatabase()
        db.add("tariff impact must include direct and indirect tariffs", topic="tariffs")
        (docs,) = db.search_batch(["how do I analyze tariffs"], k=1)
        assert docs[0].kind == "knowledge"
        assert "indirect" in docs[0].text

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            DocumentDatabase().add("   ")

    def test_persistence_round_trip(self, tmp_path):
        db = DocumentDatabase()
        db.add("knowledge one", topic="a", author="u1")
        db.add("knowledge two", topic="b")
        path = tmp_path / "knowledge.json"
        db.save(path)
        loaded = DocumentDatabase.load(path)
        assert len(loaded) == 2
        (docs,) = loaded.search_batch(["knowledge one"], k=1)
        assert docs[0].payload["author"] == "u1"

    def test_save_is_atomic_under_crash(self, tmp_path, monkeypatch):
        """A crash mid-save leaves the previous file intact, never a torn one."""
        import repro.ir.docdb as docdb_module
        from repro.storage import CrashInjector, CrashSpec, SimulatedCrash
        from repro.storage.atomic import atomic_write_json

        db = DocumentDatabase()
        db.add("the durable entry", topic="a")
        path = tmp_path / "knowledge.json"
        db.save(path)

        injector = CrashInjector(CrashSpec.nth("atomic.before_rename"))
        monkeypatch.setattr(
            docdb_module,
            "atomic_write_json",
            lambda p, obj: atomic_write_json(p, obj, crash=injector),
        )
        db.add("the lost entry", topic="b")
        with pytest.raises(SimulatedCrash):
            db.save(path)
        survivors = DocumentDatabase.load(path)
        assert [e.text for e in survivors.entries()] == ["the durable entry"]

    def test_recorder_hook_observes_every_capture(self):
        db = DocumentDatabase()
        seen = []
        db.recorder = seen.append
        db.add("first", topic="t", author="u")
        db.add("second")
        assert [r["text"] for r in seen] == ["first", "second"]
        assert seen[0] == {"id": "k1", "text": "first", "topic": "t", "author": "u"}


class TestIRSystem:
    def test_merges_sources(self, lake, web):
        knowledge = DocumentDatabase()
        knowledge.add("always compare against the previous tariff", topic="tariffs")
        ir = IRSystem(retriever=PneumaRetriever(lake), web=web, knowledge=knowledge)
        result = ir.retrieve("tariff impact on purchases by country")
        assert {d.kind for d in result.documents} == {"table", "web", "knowledge"}
        assert set(result.per_source) == {"tables", "web", "knowledge"}

    def test_no_web_source_without_web(self, lake):
        ir = IRSystem(retriever=PneumaRetriever(lake), knowledge=DocumentDatabase())
        result = ir.retrieve("tariffs")
        assert all(d.kind != "web" for d in result.documents)
        assert "web" not in result.per_source

    def test_column_values(self, lake):
        ir = IRSystem(retriever=PneumaRetriever(lake), knowledge=DocumentDatabase())
        assert ir.column_values("purchase_orders", "country") == ["Germany", "Japan"]

    def test_capture_knowledge_roundtrip(self, lake):
        knowledge = DocumentDatabase()
        ir = IRSystem(retriever=PneumaRetriever(lake), knowledge=knowledge)
        ir.capture_knowledge("impact should be relative to previous tariffs", topic="tariffs")
        assert len(knowledge) == 1

    def test_sources_merge_knowledge_then_tables_then_web(self, lake, web):
        knowledge = DocumentDatabase()
        knowledge.add("always compare against the previous tariff", topic="tariffs")
        ir = IRSystem(retriever=PneumaRetriever(lake), web=web, knowledge=knowledge)
        query = "tariff impact on purchases by country"
        tracer = Tracer()
        with tracer.start_trace("probe") as root:
            result = ir.retrieve(query)
        (batched,) = ir.retrieve_batch([query])
        assert result == batched
        kinds = [d.kind for d in result.documents]
        assert kinds == sorted(kinds, key=["knowledge", "table", "web"].index)
        assert set(kinds) == {"knowledge", "table", "web"}
        assert list(result.per_source) == ["knowledge", "tables", "web"]
        spans = {span.name: span.attrs for span in root.children}
        assert list(spans) == ["ir.source.knowledge", "ir.source.tables", "ir.source.web"]
        for name, attrs in spans.items():
            source = name.rsplit(".", 1)[1]
            assert attrs["queries"] == 1
            assert attrs["documents"] == result.per_source[source]

    def test_per_source_names_only_present_sources(self, lake, web):
        ir = IRSystem(retriever=PneumaRetriever(lake), knowledge=DocumentDatabase())
        assert list(ir.retrieve("tariffs").per_source) == ["knowledge", "tables"]
        ir.web = web
        assert list(ir.retrieve("tariffs").per_source) == ["knowledge", "tables", "web"]
        assert ir.retrieve_batch([]) == []
