"""One catalog generation: ``service.lake`` is the staging catalog, and a
turn reads one picture of the lake — the generation it pinned — for its
whole Conductor loop."""

import pytest

from repro.core.interpreter import InterpreterError, PipelineInterpreter
from repro.core.session import build_seeker_llm
from repro.core.state import TargetColumn, TargetTable
from repro.datasets import build_procurement_lake
from repro.prep import AlignmentError
from repro.relational import Table
from repro.retriever import table_payload
from repro.service import PneumaService

#: Seeded: a plain column-selection spec the alignment compiler serves.
SEEDED = "total price of purchase orders by supplier?"
#: Generate/repair loop: a filter runs the interpreter, which loads the table.
INTERPRETED = "What is the average price of orders from Germany?"

ZEBRA_SPEC = TargetTable(
    name="zebras",
    columns=[TargetColumn("stripes", "INTEGER", "zebra_census.stripes")],
)
LOAD_ZEBRAS = [
    {"op": "load", "table": "zebra_census", "as": "z"},
    {"op": "result", "frame": "z", "name": "zebras"},
]


def zebra_census():
    """A new table that joins to ``suppliers`` on ``supplier_id``."""
    return Table.from_columns(
        "zebra_census",
        {"supplier_id": list(range(1, 61)), "stripes": [30 + i % 17 for i in range(60)]},
    )


def named_tables(candidates):
    return {name for c in candidates for name in (c.left_table, c.right_table)}


class TestStagedRegistration:
    def test_register_without_reindex_is_staged_not_visible(self):
        lake = build_procurement_lake()
        with PneumaService(lake, max_workers=1) as service:
            service.lake.register(zebra_census())
            assert "zebra_census" not in named_tables(service.prep.join_candidates())
            with pytest.raises(AlignmentError):
                service.prep.compile(ZEBRA_SPEC)
            assert "zebra_census" not in service.shared.retriever.index
            sid = service.open_session()
            service.post_turn(sid, SEEDED)
            session = service._sessions[sid].session
            with pytest.raises(InterpreterError, match="zebra_census"):
                PipelineInterpreter(session.materializer.source).run(LOAD_ZEBRAS)

            service.reindex()
            assert "zebra_census" in named_tables(service.prep.join_candidates())
            assert service.prep.compile(ZEBRA_SPEC).tables == ["zebra_census"]
            assert "zebra_census" in service.shared.retriever.index
            service.post_turn(sid, SEEDED)
            loaded = PipelineInterpreter(session.materializer.source).run(LOAD_ZEBRAS)
            assert loaded.tables["zebras"].num_rows == 60


def repriced(table):
    """``table`` with every price a thousand times higher."""
    columns = table.to_columns()
    columns["price"] = [price * 1000 for price in columns["price"]]
    return Table.from_columns(table.name, columns)


class TestRegisterBetweenActions:
    @pytest.mark.parametrize("question", [SEEDED, INTERPRETED])
    def test_a_turn_reads_the_generation_it_pinned(self, question):
        control = PneumaService(build_procurement_lake(), max_workers=1)
        expected = control.post_turn(control.open_session(), question).render()
        control.shutdown()

        lake = build_procurement_lake()
        original = lake.resolve_table("purchase_orders")
        changed = repriced(original)
        registered = []

        def factory():
            """The Conductor's first call replaces a table the turn loads."""
            llm = build_seeker_llm()
            complete = llm.complete

            def complete_after_a_register(prompt, component=""):
                if component == "conductor" and not registered:
                    lake.register(changed, replace=True)
                    registered.append(True)
                return complete(prompt, component)

            llm.complete = complete_after_a_register
            return llm

        with PneumaService(lake, max_workers=1, llm_factory=factory) as service:
            sid = service.open_session()
            session = service._sessions[sid].session
            discoveries = service.stats()["prep"]["discoveries"]
            response = service.post_turn(sid, question)
            assert registered and lake.resolve_table("purchase_orders") is changed
            # Payloads, seeded SQL and interpreter loads all read generation 0.
            assert response.render() == expected
            payload = session.conductor.docs["table:purchase_orders"]["payload"]
            assert payload == table_payload(original)
            assert session.materializer.source.resolve_table("purchase_orders") is original
            assert service.stats()["prep"]["discoveries"] == discoveries

            service.reindex()
            assert service.stats()["prep"]["discoveries"] == discoveries + 1
            sid = service.open_session()
            service.post_turn(sid, question)
            session = service._sessions[sid].session
            payload = session.conductor.docs["table:purchase_orders"]["payload"]
            assert payload == table_payload(changed)
            assert session.materializer.source.resolve_table("purchase_orders") is changed
