"""The Conductor renders ``RETRIEVED`` once per retrieval: every prompt it
sends equals one rendered from scratch with the documents it holds."""

import json

from repro.core.session import build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm.prompts import parse_prompt
from repro.relational.table import Table
from repro.service import PneumaService

QUESTION = "total price of purchase orders by supplier?"


def repriced(table):
    columns = table.to_columns()
    columns["price"] = [price * 1000 for price in columns["price"]]
    return Table.from_columns(table.name, columns)


def from_scratch(conductor):
    return json.dumps(list(conductor.docs.values()), sort_keys=True, default=str)


def test_every_conductor_prompt_carries_the_documents_it_holds():
    checked = []
    conductors = []

    def factory():
        llm = build_seeker_llm()
        complete = llm.complete

        def checked_complete(prompt, component=""):
            if component == "conductor":
                (conductor,) = conductors
                _, sections = parse_prompt(prompt)
                assert sections["RETRIEVED"] == from_scratch(conductor)
                checked.append(sorted(conductor.docs))
            return complete(prompt, component)

        llm.complete = checked_complete
        return llm

    lake = build_procurement_lake()
    with PneumaService(lake, max_workers=1, llm_factory=factory) as service:
        sid = service.open_session()
        conductor = service._sessions[sid].session.conductor
        conductors.append(conductor)

        service.post_turn(sid, QUESTION)  # the first retrieval adds documents
        held = dict(conductor.docs)
        assert held
        # An unknown word sends a retrieval that returns held doc_ids only
        # (rescored for the new query).
        response = service.post_turn(sid, "total price of zeppelin purchase orders?")
        assert "retrieve" in [action["kind"] for action in response.turn_log.actions]
        assert conductor.docs.keys() == held.keys()

        # Between turns: one table's content changes and a new table
        # appears, so a retrieval rewrites a held doc_id and adds another.
        lake.register(repriced(lake.resolve_table("purchase_orders")), replace=True)
        lake.register(
            Table.from_columns("invoices", {"invoice_id": [1, 2], "total_price": [9.5, 7.0]})
        )
        service.reindex()
        response = service.post_turn(sid, "total price of invoices?")
        assert "retrieve" in [action["kind"] for action in response.turn_log.actions]
        service.post_turn(sid, QUESTION)
        assert "table:invoices" in conductor.docs
        payload = conductor.docs["table:purchase_orders"]["payload"]
        assert payload != held["table:purchase_orders"]["payload"]

        # The memo after the last action too.
        _, sections = parse_prompt(conductor._render(QUESTION, [], force=False))
        assert sections["RETRIEVED"] == from_scratch(conductor)
    assert len(checked) >= 8
