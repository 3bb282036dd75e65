"""Unit tests for the pipeline interpreter (the Python-interpreter tool)."""

import datetime

import pytest

from repro.core import InterpreterError, PipelineInterpreter
from repro.obs import Tracer
from repro.relational import Database, Table


@pytest.fixture
def source():
    db = Database("lake")
    db.register(
        Table.from_columns(
            "samples",
            {
                "site_id": [1, 2, 1, 3],
                "region": ["Malta", "Gozo", "Malta", "Gozo"],
                "day": [
                    datetime.date(2020, 1, 1),
                    datetime.date(2020, 1, 2),
                    datetime.date(2020, 1, 3),
                    datetime.date(2020, 1, 4),
                ],
                "value": [1.0, 2.0, None, 4.0],
            },
        )
    )
    db.register(
        Table.from_columns("sites", {"site_id": [1, 2], "name": ["north", "south"]})
    )
    return db


def run(source, program):
    return PipelineInterpreter(source).run(program)


class TestBasicOps:
    def test_load_result(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].num_rows == 4
        assert len(result.trace) == 2

    def test_select(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "select", "frame": "main", "columns": ["region", "value"]},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].column_names() == ["region", "value"]

    def test_filter_equals_case_insensitive(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "filter_equals", "frame": "main", "column": "region", "value": "malta"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].num_rows == 2

    def test_join(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "load", "table": "sites", "as": "dim"},
            {"op": "join", "left": "main", "right": "dim",
             "left_on": "site_id", "right_on": "site_id", "as": "main"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        out = result.tables["out"]
        assert out.num_rows == 3  # site 3 has no match
        assert "name" in out.column_names()

    def test_interpolate_sorts_and_fills(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "interpolate", "frame": "main", "column": "value", "order_by": "day"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        values = result.tables["out"].column_values("value")
        assert values == [1.0, 2.0, 3.0, 4.0]

    def test_derive_multiply(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "derive", "frame": "main", "new_column": "double",
             "operator": "*", "left": {"col": "value"}, "right": {"lit": 2}},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].column_values("double") == [2.0, 4.0, None, 8.0]

    def test_derive_column_minus_column(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "derive", "frame": "main", "new_column": "zero",
             "operator": "-", "left": {"col": "value"}, "right": {"col": "value"}},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].column_values("zero") == [0.0, 0.0, None, 0.0]

    def test_derive_missing_operator_field(self, source):
        with pytest.raises(InterpreterError) as err:
            run(source, [
                {"op": "load", "table": "samples", "as": "main"},
                {"op": "derive", "frame": "main", "new_column": "d",
                 "left": {"col": "value"}, "right": {"lit": 2}},
                {"op": "result", "frame": "main", "name": "out"},
            ])
        assert "missing fields" in str(err.value)

    def test_derive_bad_operand(self, source):
        with pytest.raises(InterpreterError):
            run(source, [
                {"op": "load", "table": "samples", "as": "main"},
                {"op": "derive", "frame": "main", "new_column": "d",
                 "operator": "*", "left": "value", "right": {"lit": 2}},
                {"op": "result", "frame": "main", "name": "out"},
            ])

    def test_add_from_records(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {
                "op": "add_from_records", "frame": "main",
                "records": [{"country": "Malta", "tariff": 0.15}],
                "key": "region", "record_key": "country",
                "value_field": "tariff", "new_column": "tariff",
            },
            {"op": "result", "frame": "main", "name": "out"},
        ])
        tariffs = result.tables["out"].column_values("tariff")
        assert tariffs == [0.15, None, 0.15, None]

    def test_parse_dates(self):
        db = Database()
        db.register(Table.from_columns("t", {"when": ["March 4, 2021", "2020-01-01"]}))
        result = run(db, [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "parse_dates", "frame": "main", "column": "when"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].column_values("when") == [
            datetime.date(2021, 3, 4),
            datetime.date(2020, 1, 1),
        ]

    def test_sort_rename_limit_filter_not_null(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "filter_not_null", "frame": "main", "columns": ["value"]},
            {"op": "sort", "frame": "main", "by": ["value"], "ascending": False},
            {"op": "rename", "frame": "main", "mapping": {"value": "reading"}},
            {"op": "limit", "frame": "main", "n": 2},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        out = result.tables["out"]
        assert out.column_values("reading") == [4.0, 2.0]


class TestErrors:
    def test_empty_program(self, source):
        with pytest.raises(InterpreterError):
            run(source, [])

    def test_unknown_op(self, source):
        with pytest.raises(InterpreterError) as err:
            run(source, [{"op": "quantum_join"}])
        assert "unknown op" in str(err.value)

    def test_missing_fields(self, source):
        with pytest.raises(InterpreterError) as err:
            run(source, [{"op": "load"}])
        assert "missing fields" in str(err.value)

    def test_error_carries_step_and_op(self, source):
        program = [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "select", "frame": "main", "columns": ["ghost"]},
            {"op": "result", "frame": "main", "name": "out"},
        ]
        with pytest.raises(InterpreterError) as err:
            run(source, program)
        assert err.value.step == 1
        assert err.value.op == "select"
        assert "ghost" in str(err.value)

    def test_undefined_frame(self, source):
        with pytest.raises(InterpreterError):
            run(source, [{"op": "result", "frame": "nope", "name": "out"}])

    def test_no_result_op(self, source):
        with pytest.raises(InterpreterError) as err:
            run(source, [{"op": "load", "table": "samples", "as": "main"}])
        assert "no result table" in str(err.value)

    def test_unknown_table(self, source):
        with pytest.raises(InterpreterError):
            run(source, [
                {"op": "load", "table": "ghost_table", "as": "main"},
                {"op": "result", "frame": "main", "name": "out"},
            ])


class TestSpans:
    """Under an active trace a program is one ``interpreter.run`` span with a
    child per step; with none, ``obs.span`` hands back the no-op singleton."""

    JOIN_PROGRAM = [
        {"op": "load", "table": "samples", "as": "main"},
        {"op": "load", "table": "sites", "as": "dim"},
        {"op": "join", "left": "main", "right": "dim",
         "left_on": "site_id", "right_on": "site_id", "how": "left", "as": "main"},
        {"op": "derive", "frame": "main", "new_column": "double",
         "operator": "*", "left": {"col": "value"}, "right": {"lit": 2}},
        {"op": "select", "frame": "main", "columns": ["name", "double"]},
        {"op": "result", "frame": "main", "name": "out"},
    ]

    def test_one_child_per_step_with_rows_and_columns(self, source):
        tracer = Tracer()
        with tracer.start_trace("turn") as root:
            traced = run(source, self.JOIN_PROGRAM)
        (program,) = root.children
        assert (program.name, program.attrs) == ("interpreter.run", {"steps": 6})
        sizes = [
            (s.name, s.attrs["rows_in"], s.attrs["rows_out"], s.attrs["columns"])
            for s in program.children
        ]
        assert sizes == [
            ("interpreter.load", 0, 4, 4),
            ("interpreter.load", 0, 2, 2),
            ("interpreter.join", 6, 4, 6),
            ("interpreter.derive", 4, 4, 7),
            ("interpreter.select", 4, 4, 2),
            ("interpreter.result", 4, 4, 2),
        ]
        assert [s.attrs["step"] for s in program.children] == list(range(6))
        join = program.children[2].attrs
        assert (join["how"], join["left_on"], join["right_on"]) == ("left", "site_id", "site_id")
        assert traced.tables["out"].rows == run(source, self.JOIN_PROGRAM).tables["out"].rows

    def test_failing_step_closes_its_span_as_an_error(self, source):
        tracer = Tracer()
        with tracer.start_trace("turn") as root:
            with pytest.raises(InterpreterError, match=r"^step 1 \(select\): columns not found"):
                run(source, [
                    {"op": "load", "table": "samples", "as": "main"},
                    {"op": "select", "frame": "main", "columns": ["ghost"]},
                ])
        (program,) = root.children
        assert [(s.name, s.status) for s in program.iter_spans()] == [
            ("interpreter.run", "error"),
            ("interpreter.load", "ok"),
            ("interpreter.select", "error"),
        ]
        assert "rows_out" not in program.children[1].attrs
