"""The Python-interpreter tool: executes Materializer pipeline programs.

The paper equips the Materializer with "a Python interpreter equipped with
Pandas and NumPy".  Offline, generated programs are JSON pipelines over the
:mod:`repro.frames` DataFrame API — a restricted, auditable instruction set
rather than arbitrary ``exec`` — with the same error-capture contract:
failures return structured messages the Materializer repairs against.

Supported ops (see ``OP_SIGNATURES``): load / join / add_from_records /
parse_dates / derive / filter_not_null / filter_equals / sort /
interpolate / rename / select / limit / result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..frames.frame import DataFrame, FrameError
from ..frames.series import Series
from ..obs import trace as obs
from ..relational.catalog import Database
from ..relational.errors import RelationalError
from ..relational.table import Table


class InterpreterError(Exception):
    """A pipeline failure with the op index (the repair loop's anchor)."""

    def __init__(self, step: int, op: str, message: str):
        super().__init__(f"step {step} ({op}): {message}")
        self.step = step
        self.op = op
        self.detail = message


OP_SIGNATURES: Dict[str, Sequence[str]] = {
    "load": ("table",),
    "join": ("left", "right", "left_on", "right_on"),
    "add_from_records": ("frame", "records", "key", "record_key", "value_field", "new_column"),
    "parse_dates": ("frame", "column"),
    "derive": ("frame", "new_column", "operator", "left", "right"),
    "filter_not_null": ("frame", "columns"),
    "filter_equals": ("frame", "column", "value"),
    "sort": ("frame", "by"),
    "interpolate": ("frame", "column", "order_by"),
    "rename": ("frame", "mapping"),
    "select": ("frame", "columns"),
    "limit": ("frame", "n"),
    "result": ("frame", "name"),
}


@dataclass
class PipelineResult:
    """Outcome: produced tables (by result name) and the op trace."""

    tables: Dict[str, Table] = field(default_factory=dict)
    trace: List[str] = field(default_factory=list)


class PipelineInterpreter:
    """Executes a JSON pipeline program against a source database."""

    def __init__(self, source: Database):
        self.source = source

    def run(self, program: Sequence[Mapping[str, Any]]) -> PipelineResult:
        """Run a program; raises :class:`InterpreterError` on the failing op.

        Traced as one ``interpreter.run`` span with a child
        ``interpreter.<op>`` per step (rows in, rows out, output width), so
        a slow turn can name the step that emitted the cells.
        """
        frames: Dict[str, DataFrame] = {}
        result = PipelineResult()
        with obs.span("interpreter.run", steps=len(program)):
            if not program:
                raise InterpreterError(0, "program", "empty program")
            for step, raw in enumerate(program):
                op = raw.get("op")
                if op not in OP_SIGNATURES:
                    raise InterpreterError(
                        step, str(op), f"unknown op; known: {sorted(OP_SIGNATURES)}"
                    )
                missing = [k for k in OP_SIGNATURES[op] if k not in raw]
                if missing:
                    raise InterpreterError(step, op, f"missing fields: {missing}")
                with obs.span(f"interpreter.{op}", step=step) as sp:
                    try:
                        read, wrote = self._execute(op, raw, frames, result)
                    except InterpreterError:
                        raise
                    except (FrameError, RelationalError, KeyError, ValueError, TypeError) as exc:
                        raise InterpreterError(step, op, str(exc)) from exc
                    sp.set_attr("rows_in", sum(len(frame) for frame in read))
                    sp.set_attr("rows_out", wrote.shape[0])
                    sp.set_attr("columns", wrote.shape[1])
                result.trace.append(self._describe(op, raw))
            if not result.tables:
                raise InterpreterError(
                    len(program) - 1, "result", "program produced no result table"
                )
        return result

    # ------------------------------------------------------------------
    def _frame(
        self, frames: Dict[str, DataFrame], name: str, read: List[DataFrame]
    ) -> DataFrame:
        if name not in frames:
            raise FrameError(f"frame {name!r} not defined; defined: {sorted(frames)}")
        read.append(frames[name])
        return frames[name]

    def _execute(
        self,
        op: str,
        raw: Mapping[str, Any],
        frames: Dict[str, DataFrame],
        result: PipelineResult,
    ) -> Tuple[List[DataFrame], DataFrame]:
        """Run one op; returns the frames it read and the frame it produced
        (``result`` produces a table: its frame is the one it read)."""
        read: List[DataFrame] = []
        out_name = raw.get("as") or raw.get("frame") or raw.get("table")
        if op == "load":
            table = self.source.resolve_table(raw["table"])
            wrote = frames[raw.get("as", raw["table"])] = DataFrame.from_table(table)
        elif op == "join":
            left = self._frame(frames, raw["left"], read)
            right = self._frame(frames, raw["right"], read)
            how = raw.get("how", "inner")
            obs.set_attr("how", how)
            obs.set_attr("left_on", raw["left_on"])
            obs.set_attr("right_on", raw["right_on"])
            wrote = frames[raw.get("as", raw["left"])] = left.merge(
                right, left_on=raw["left_on"], right_on=raw["right_on"], how=how
            )
        elif op == "add_from_records":
            frame = self._frame(frames, raw["frame"], read)
            lookup = {}
            for record in raw["records"]:
                key = record.get(raw["record_key"])
                if key is not None:
                    lookup[str(key).lower()] = record.get(raw["value_field"])
            key_col = frame[raw["key"]]
            values = [
                lookup.get(str(v).lower()) if v is not None else None for v in key_col
            ]
            wrote = frames[out_name] = frame.assign(**{raw["new_column"]: Series(values)})
        elif op == "parse_dates":
            frame = self._frame(frames, raw["frame"], read)
            wrote = frames[out_name] = frame.assign(
                **{raw["column"]: frame[raw["column"]].parse_dates()}
            )
        elif op == "derive":
            frame = self._frame(frames, raw["frame"], read)
            left = self._operand(frame, raw["left"])
            right = self._operand(frame, raw["right"])
            ops = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a / b,
            }
            operator = raw["operator"]
            if operator not in ops:
                raise FrameError(f"unknown derive operator {operator!r}")
            wrote = frames[out_name] = frame.assign(
                **{raw["new_column"]: ops[operator](left, right)}
            )
        elif op == "filter_not_null":
            frame = self._frame(frames, raw["frame"], read)
            wrote = frames[out_name] = frame.dropna(subset=raw["columns"])
        elif op == "filter_equals":
            frame = self._frame(frames, raw["frame"], read)
            column = frame[raw["column"]]
            target = raw["value"]
            if isinstance(target, str):
                mask = column.map(lambda v: str(v).lower() == target.lower())
            else:
                mask = column == target
            wrote = frames[out_name] = frame.filter(mask)
        elif op == "sort":
            frame = self._frame(frames, raw["frame"], read)
            wrote = frames[out_name] = frame.sort_values(
                raw["by"], ascending=raw.get("ascending", True)
            )
        elif op == "interpolate":
            frame = self._frame(frames, raw["frame"], read)
            ordered = frame.sort_values(raw["order_by"])
            wrote = frames[out_name] = ordered.assign(
                **{raw["column"]: ordered[raw["column"]].interpolate()}
            )
        elif op == "rename":
            frame = self._frame(frames, raw["frame"], read)
            wrote = frames[out_name] = frame.rename(raw["mapping"])
        elif op == "select":
            frame = self._frame(frames, raw["frame"], read)
            wrote = frames[out_name] = frame.select(raw["columns"])
        elif op == "limit":
            frame = self._frame(frames, raw["frame"], read)
            wrote = frames[out_name] = frame.head(int(raw["n"]))
        elif op == "result":
            wrote = self._frame(frames, raw["frame"], read)
            result.tables[raw["name"]] = wrote.to_table(raw["name"])
        else:  # pragma: no cover - guarded by OP_SIGNATURES
            raise InterpreterError(-1, op, "unreachable")
        return read, wrote

    @staticmethod
    def _operand(frame: DataFrame, spec: Any) -> Any:
        """A derive operand: {'col': name} or {'lit': value}."""
        if isinstance(spec, Mapping) and "col" in spec:
            return frame[spec["col"]]
        if isinstance(spec, Mapping) and "lit" in spec:
            return spec["lit"]
        raise FrameError(f"operand must be {{'col': ...}} or {{'lit': ...}}, got {spec!r}")

    @staticmethod
    def _describe(op: str, raw: Mapping[str, Any]) -> str:
        details = {k: v for k, v in raw.items() if k not in ("op", "records")}
        return f"{op}({details})"
