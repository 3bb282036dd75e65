"""Unit tests for CSV export."""

from repro.relational import Table, to_csv_text


def test_to_csv_text():
    table = Table.from_columns("t", {"a": [1, None], "b": ["x,y", "z"]})
    assert to_csv_text(table).splitlines() == ["a,b", '1,"x,y"', ",z"]
