"""Snapshot-swap reindexing: the gate (the handle sessions hold) and the service call."""

import threading
from contextlib import contextmanager

import pytest

from repro.datasets import build_procurement_lake
from repro.obs import Tracer
from repro.relational.table import Table
from repro.service import IndexGate, PneumaService, ServiceError, build_shared_retriever

QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


@pytest.fixture
def lake():
    return build_procurement_lake()


def add_shipments_table(lake):
    """Register a new, distinctive table the seed lake does not have."""
    lake.register(
        Table.from_columns(
            "ocean_freight_shipments",
            {
                "shipment_id": [1, 2, 3],
                "vessel_name": ["Ever Given", "Maersk Alabama", "MSC Oscar"],
                "container_count": [120, 45, 300],
                "port_of_origin": ["Shanghai", "Mombasa", "Rotterdam"],
            },
        ),
        replace=True,
    )


class TestIndexGate:
    def test_readers_pin_their_generation_across_a_swap(self, lake):
        old_bundle = build_shared_retriever(lake)
        gate = IndexGate(old_bundle)
        new_bundle = build_shared_retriever(lake)
        with gate.reading() as pinned:
            # Swap mid-read without draining: the reader keeps the bundle
            # it entered with while new readers see the new one.
            gate.swap(new_bundle, drain=False)
            assert pinned.bundle is old_bundle and pinned.number == 0
            with gate.reading() as fresh:
                assert fresh.bundle is new_bundle and fresh.number == 1
        assert gate.current is new_bundle
        assert gate.stats() == {"generation": 1, "swaps": 1, "active_readers": 0}

    def test_drain_waits_for_old_readers(self, lake):
        gate = IndexGate(build_shared_retriever(lake))
        new_bundle = build_shared_retriever(lake)
        reader_entered = threading.Event()
        release_reader = threading.Event()
        swap_returned = threading.Event()

        def slow_reader():
            with gate.reading():
                reader_entered.set()
                release_reader.wait(timeout=10)

        reader = threading.Thread(target=slow_reader)
        reader.start()
        assert reader_entered.wait(timeout=10)

        def swapper():
            gate.swap(new_bundle, drain=True)
            swap_returned.set()

        swap = threading.Thread(target=swapper)
        swap.start()
        # New traffic is not blocked while the drain waits.
        assert gate.current is new_bundle
        assert not swap_returned.wait(timeout=0.2)
        release_reader.set()
        assert swap_returned.wait(timeout=10)
        reader.join(timeout=10)
        swap.join(timeout=10)

    def test_gate_searches_follow_the_swap(self, lake):
        gate = IndexGate(build_shared_retriever(lake))
        assert gate.current.retriever.frozen
        before = [d.doc_id for d in gate.search("supplier ratings", k=3)]
        assert before
        assert gate.column_values("suppliers", "supplier_id")

        add_shipments_table(lake)
        gate.swap(build_shared_retriever(lake), drain=True)
        hits = gate.search("ocean freight shipments by vessel", k=3)
        assert any(d.doc_id == "table:ocean_freight_shipments" for d in hits)
        batch = gate.search_batch(["ocean freight shipments by vessel"], k=3)
        assert [d.doc_id for d in batch[0]] == [d.doc_id for d in hits]
        assert gate.column_values("ocean_freight_shipments", "vessel_name")

    def test_span_names_the_generation_the_search_ran_on(self, lake):
        new_bundle = build_shared_retriever(lake)

        class SwapRightAfterPinning(IndexGate):
            """A reindex lands between a search's pin and its span stamp."""

            @contextmanager
            def reading(self):
                with super().reading() as pinned:
                    if self.generation == 0:
                        self.swap(new_bundle, drain=False)
                    yield pinned

        gate = SwapRightAfterPinning(build_shared_retriever(lake))
        tracer = Tracer()
        with tracer.start_trace("probe") as root:
            gate.search("supplier ratings", k=3)
            gate.search_batch(["supplier ratings"], k=3)
        first, second = root.children
        # The first search was served by generation 0 although generation 1
        # was already current when its span was stamped.
        assert first.name == "retrieval.search" and first.attrs["generation"] == 0
        assert second.name == "retrieval.search_batch" and second.attrs["generation"] == 1
        assert gate.generation == 1


class TestServiceReindex:
    def test_reindex_without_changes_is_a_warm_noop(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            report = service.reindex()
            # Every table was recognized by fingerprint in the warm caches.
            assert report["build_report"] == {"indexed": len(lake.tables()), "skipped": 0}
            # The narration pass was entirely cache hits — no table changed.
            assert service.shared.narrations.stats()["hits"] >= len(lake.tables())
            assert report["generation"] == 1
            assert report["drained"] is True
            assert service.stats()["reindex_swaps"] == 1

    def test_new_table_becomes_retrievable_after_reindex(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            size_before = len(service.shared.retriever.index)
            sid = service.open_session()
            add_shipments_table(lake)
            report = service.reindex()
            assert report["index_size"] == size_before + 1
            # A session opened before the swap sees the new index: its
            # retriever handle follows the gate.
            response = service.post_turn(
                sid, "How many containers are on the ocean freight shipments by vessel?"
            )
            assert "ocean_freight_shipments" in response.state_view

    def test_reindex_during_traffic_fails_no_turns(self, lake):
        with PneumaService(lake, max_workers=4) as service:
            sids = [service.open_session() for _ in range(4)]
            stop = threading.Event()
            errors = []

            def chatter(sid):
                while not stop.is_set():
                    try:
                        service.post_turn(sid, QUESTION)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=chatter, args=(sid,)) for sid in sids]
            for thread in threads:
                thread.start()
            try:
                for _ in range(3):
                    service.reindex()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert errors == []
            stats = service.stats()
            assert stats["reindex_swaps"] == 3
            assert stats["turns_failed"] == 0
            assert stats["index_gate"]["generation"] == 3
            assert stats["index_gate"]["active_readers"] == 0

    def test_reindex_after_shutdown_raises(self, lake):
        service = PneumaService(lake, max_workers=1)
        service.shutdown()
        with pytest.raises(ServiceError):
            service.reindex()

    def test_batch_retrieve_follows_the_swap(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            add_shipments_table(lake)
            service.reindex()
            results = service.batch_retrieve(["ocean freight shipments by vessel"])
            assert any(
                d.doc_id == "table:ocean_freight_shipments" for d in results[0].documents
            )
