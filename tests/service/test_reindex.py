"""Snapshot-swap reindexing: the gate (the handle sessions hold) and the service call."""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.session import build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.obs import ObservabilityConfig, Tracer
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
        old_retriever = build_shared_retriever(lake)
        gate = IndexGate(old_retriever, None)
        new_retriever = build_shared_retriever(lake)
        with gate.reading() as pinned:
            # Swap mid-read without draining: the reader keeps the retriever
            # it entered with while new readers see the new one.
            gate.swap(new_retriever, None, drain=False)
            assert pinned.retriever is old_retriever and pinned.number == 0
            with gate.reading() as fresh:
                assert fresh.retriever is new_retriever and fresh.number == 1
        assert gate.current.retriever is new_retriever and gate.current.number == 1
        assert gate.stats() == {"active_readers": 0}

    def test_drain_waits_for_old_readers(self, lake):
        gate = IndexGate(build_shared_retriever(lake), None)
        new_retriever = build_shared_retriever(lake)
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
            gate.swap(new_retriever, None, drain=True)
            swap_returned.set()

        swap = threading.Thread(target=swapper)
        swap.start()
        # New traffic is not blocked while the drain waits.
        assert gate.current.retriever is new_retriever
        assert not swap_returned.wait(timeout=0.2)
        release_reader.set()
        assert swap_returned.wait(timeout=10)
        reader.join(timeout=10)
        swap.join(timeout=10)

    def test_gate_searches_follow_the_swap(self, lake):
        gate = IndexGate(build_shared_retriever(lake), None)
        assert gate.current.retriever.index.kernel_stats()["frozen"]
        (before,) = gate.search_batch(["supplier ratings"], k=3)
        assert before
        assert gate.current.column_values("suppliers", "supplier_id")

        add_shipments_table(lake)
        gate.swap(build_shared_retriever(lake), None, drain=True)
        (hits,) = gate.search_batch(["ocean freight shipments by vessel"], k=3)
        assert any(d.doc_id == "table:ocean_freight_shipments" for d in hits)
        assert gate.current.column_values("ocean_freight_shipments", "vessel_name")

    def test_span_names_the_generation_the_search_ran_on(self, lake):
        new_retriever = build_shared_retriever(lake)

        class SwapRightAfterPinning(IndexGate):
            """A reindex lands between a search's pin and its span stamp."""

            @contextmanager
            def reading(self):
                with super().reading() as pinned:
                    if self.current.number == 0:
                        self.swap(new_retriever, None, drain=False)
                    yield pinned

        gate = SwapRightAfterPinning(build_shared_retriever(lake), None)
        tracer = Tracer()
        with tracer.start_trace("probe") as root:
            gate.search_batch(["supplier ratings"], k=3)
            gate.search_batch(["supplier ratings", "ocean freight"], k=3)
        first, second = root.children
        # The first search was served by generation 0 although generation 1
        # was already current when its span was stamped.
        assert first.name == second.name == "retrieval.search"
        assert first.attrs == {"queries": 1, "k": 3, "mode": "hybrid", "generation": 0}
        assert second.attrs["generation"] == 1 and second.attrs["queries"] == 2
        assert gate.current.number == 1


class TestServiceReindex:
    def test_reindex_without_changes_is_a_warm_noop(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            report = service.reindex()
            # Every table was recognized by fingerprint in the warm caches.
            assert report["build_report"] == {"indexed": len(lake.tables()), "skipped": 0}
            # The narration pass was entirely cache hits — no table changed.
            assert service.stats()["caches"]["narration"]["hits"] >= len(lake.tables())
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
        tracing = ObservabilityConfig(max_traces=100_000)
        with PneumaService(lake, max_workers=4, observability=tracing) as service:
            stop = threading.Event()
            errors = []

            def chatter():
                # A fresh session every turn: a session that has grounded its
                # question answers a repeat without searching, and every turn
                # here must search.
                while not stop.is_set():
                    try:
                        sid = service.open_session()
                        service.post_turn(sid, QUESTION)
                        service.close_session(sid)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)
                        return

            def searched_on(generation):
                return any(
                    span.attrs["generation"] == generation
                    for root in service.tracer.traces("turn")
                    for span in root.iter_spans()
                    if span.name.startswith("retrieval.search")
                )

            threads = [threading.Thread(target=chatter) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for generation in range(3):
                    # Each swap waits until a turn has searched the generation
                    # it retires, so the traffic straddles every swap.
                    deadline = time.monotonic() + 60
                    while not searched_on(generation) and not errors:
                        assert time.monotonic() < deadline, f"no search on {generation}"
                        time.sleep(0.01)
                    service.reindex()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            stats = service.stats()
            assert stats["reindex_swaps"] == 3
            assert stats["turns_failed"] == 0
            assert stats["index_gate"]["active_readers"] == 0
            # A turn pins one generation for its whole Conductor loop: every
            # search it makes names the same one, whatever swapped meanwhile.
            turns = service.tracer.traces("turn")
            assert len(turns) == stats["obs"]["tracer"]["traces_started"] - 3  # all retained
            seen = set()
            for root in turns:
                generations = {
                    span.attrs["generation"]
                    for span in root.iter_spans()
                    if span.name.startswith("retrieval.search")
                }
                assert len(generations) <= 1, generations
                seen |= generations
            assert len(seen) > 1  # the traffic did straddle the swaps

    def test_drain_waits_for_the_turn_in_flight_not_the_queued_one(self, lake):
        """A turn pins when its session's drain starts it, so a reindex drains
        the turn in flight; the turn queued behind it pins the new generation."""
        first, second = QUESTION, "Now restrict it to orders from ACME."
        entered = {first: threading.Event(), second: threading.Event()}
        release = {first: threading.Event(), second: threading.Event()}

        def factory():
            llm = build_seeker_llm()
            complete = llm.complete

            def parked(prompt, component=""):
                message = second if second in prompt else first
                entered[message].set()
                assert release[message].wait(timeout=60)
                return complete(prompt, component)

            llm.complete = parked
            return llm

        with PneumaService(lake, max_workers=2, llm_factory=factory) as service:
            sid = service.open_session()
            in_flight = service.post_turn(sid, first, wait=False)
            assert entered[first].wait(timeout=60)
            queued = service.post_turn(sid, second, wait=False)
            drained = threading.Event()
            reindexer = threading.Thread(target=lambda: (service.reindex(), drained.set()))
            reindexer.start()
            assert not drained.wait(timeout=0.3)  # generation 0 is pinned by the first turn
            release[first].set()
            in_flight.result(timeout=60)
            assert entered[second].wait(timeout=60)
            assert drained.wait(timeout=60)  # while the second turn is still running
            assert not queued.done()
            release[second].set()
            assert queued.result(timeout=60).message
            reindexer.join(timeout=60)

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
