"""Unit tests for the pipeline interpreter (the Python-interpreter tool)."""

import datetime
import re

import pytest

from repro.core import InterpreterError, PipelineInterpreter
from repro.obs import Tracer
from repro.relational import Column, DataType, Database, Schema, Table


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

    def test_filter_equals_numeric(self, source):
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "filter_equals", "frame": "main", "column": "site_id", "value": 1},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].column_values("region") == ["Malta", "Malta"]


ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class TestDeriveOperands:
    """Every operator with every operand shape a model may write; a
    ``{'lit': ...}`` operand is the literal once per row, on either side.
    Expected values are computed row by row, NULL in, NULL out."""

    OPERANDS = {
        "col": ({"col": "value"}, [1.0, 2.0, None, 4.0]),
        "site": ({"col": "site_id"}, [1, 2, 1, 3]),
        "lit": ({"lit": 2}, [2, 2, 2, 2]),
    }

    @pytest.mark.parametrize("operator", sorted(ARITHMETIC))
    @pytest.mark.parametrize(
        "left,right", [("col", "lit"), ("lit", "col"), ("col", "site")]
    )
    def test_derive(self, source, operator, left, right):
        (left_spec, lefts), (right_spec, rights) = self.OPERANDS[left], self.OPERANDS[right]
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "derive", "frame": "main", "new_column": "d",
             "operator": operator, "left": left_spec, "right": right_spec},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        expected = [
            None if a is None or b is None else ARITHMETIC[operator](a, b)
            for a, b in zip(lefts, rights)
        ]
        assert result.tables["out"].column_values("d") == expected

    def test_unknown_operator(self, source):
        with pytest.raises(InterpreterError) as err:
            run(source, [
                {"op": "load", "table": "samples", "as": "main"},
                {"op": "derive", "frame": "main", "new_column": "d",
                 "operator": "%", "left": {"col": "value"}, "right": {"lit": 2}},
                {"op": "result", "frame": "main", "name": "out"},
            ])
        assert "unknown derive operator" in str(err.value)


class TestJoinHow:
    """left keys 1, 2, 1, 3 against right keys 1, 2, 4."""

    @pytest.mark.parametrize(
        "how,ids,names",
        [
            ("inner", [1, 2, 1], ["north", "south", "north"]),
            ("left", [1, 2, 1, 3], ["north", "south", "north", None]),
            ("right", [1, 2, 1, None], ["north", "south", "north", "east"]),
            ("outer", [1, 2, 1, 3, None], ["north", "south", "north", None, "east"]),
        ],
    )
    def test_join_how(self, source, how, ids, names):
        source.register(
            Table.from_columns("places", {"pid": [1, 2, 4], "name": ["north", "south", "east"]})
        )
        result = run(source, [
            {"op": "load", "table": "samples", "as": "main"},
            {"op": "load", "table": "places", "as": "dim"},
            {"op": "join", "left": "main", "right": "dim", "how": how,
             "left_on": "site_id", "right_on": "pid", "as": "main"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        out = result.tables["out"]
        assert out.column_values("site_id") == ids
        assert out.column_values("name") == names


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

    def test_a_step_that_is_no_object_or_a_mistyped_field_names_its_step(self, source):
        load = {"op": "load", "table": "samples", "as": "main"}
        cases = [
            ([load, "select"], "step 1 (program): a step must be an object"),
            ([{"op": "load", "table": 3}], "step 0 (load): field 'table' must be a string"),
            ([load, {"op": "rename", "frame": "main", "mapping": ["value"]}],
             "step 1 (rename): field 'mapping' must be an object of strings to strings"),
            ([load, {"op": "add_from_records", "frame": "main", "records": [3], "key": "region",
                     "record_key": "r", "value_field": "v", "new_column": "c"}],
             "step 1 (add_from_records): field 'records' must be a list of objects"),
        ]
        for program, message in cases:
            with pytest.raises(InterpreterError, match=re.escape(message)):
                run(source, program)

    def test_a_number_too_large_for_a_float_is_an_interpreter_error(self):
        """Float arithmetic on an integer past float range is reported on
        the step, like every other failure; sorting orders it exactly."""
        db = Database()
        db.register(Table("t", Schema([Column("x", DataType.TEXT)]), [(10**400,), (1.5,)]))
        with pytest.raises(InterpreterError, match=r"^step 1 \(derive\): int too large"):
            run(db, [
                {"op": "load", "table": "t", "as": "main"},
                {"op": "derive", "frame": "main", "new_column": "y",
                 "operator": "+", "left": {"col": "x"}, "right": {"lit": 0.5}},
                {"op": "result", "frame": "main", "name": "out"},
            ])
        result = run(db, [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "sort", "frame": "main", "by": "x"},
            {"op": "result", "frame": "main", "name": "out"},
        ])
        assert result.tables["out"].column_values("x") == [1.5, 10**400]


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
