"""A column the engine types TEXT while it holds a ``date`` beside a
string (a ``CASE`` over a DATE branch and a string branch) is a mixed
column: profiling keys it by ``repr`` instead of raising on the string,
so neither a service build nor a reindex over it fails."""

import datetime

import pytest

from repro.datasets import build_procurement_lake
from repro.service import PneumaService


def _mixed_date_lake():
    """A column the engine types TEXT while it holds a ``date``: the
    ``CASE`` of a DATE branch and a string branch."""
    lake = build_procurement_lake()
    lake.execute("CREATE TABLE deliveries (d DATE, x INTEGER)")
    lake.execute("INSERT INTO deliveries VALUES (CAST('2024-03-01' AS DATE), 1)")
    lake.execute("INSERT INTO deliveries VALUES (CAST('2024-03-02' AS DATE), 2)")
    lake.execute(
        "CREATE TABLE delivery_notes AS "
        "SELECT CASE WHEN x = 1 THEN d ELSE 'n/a' END AS note FROM deliveries"
    )
    return lake


class TestMixedDateColumn:
    def test_a_service_builds_over_it(self):
        lake = _mixed_date_lake()
        assert lake.resolve_table("delivery_notes").rows == [
            (datetime.date(2024, 3, 1),),
            ("n/a",),
        ]
        service = PneumaService(lake)
        try:
            note = service.prep.profiles()["delivery_notes"].columns["note"]
            assert not note.fractional
            assert note.distinct_estimate == pytest.approx(2.0, rel=0.01)
        finally:
            service.shutdown()

    def test_a_reindex_after_register_picks_it_up(self):
        service = PneumaService(build_procurement_lake())
        try:
            service.lake.register(_mixed_date_lake().resolve_table("delivery_notes"))
            service.reindex()
            assert "delivery_notes" in service.prep.profiles()
        finally:
            service.shutdown()
