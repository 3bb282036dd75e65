"""The Materializer policy: integration pipeline generation (§3.4).

Given the target-table spec, the interpreted plan, and the retrieved
documents, emit a JSON pipeline program for the Python-interpreter tool.
When the prompt carries an ERROR section (the tool's feedback from a failed
attempt), repair the previous program instead of regenerating it blindly —
the generate → execute → error-feedback → repair loop the paper describes.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional

from ..contract import op_of
from ..prompts import render_response, section_json
from ..semantics import SchemaView
from .planning import plan_from_json

_STEP_RE = re.compile(r"step (\d+) \((\w+)\)")


class MaterializerPolicy:
    """Produces and repairs pipeline programs."""

    role = "materializer"

    def respond(self, sections: Mapping[str, str]) -> str:
        spec = section_json(sections, "TARGET", {}) or {}
        plan_json = section_json(sections, "PLAN", None)
        docs = section_json(sections, "DOCS", []) or []
        error = sections.get("ERROR", "")
        previous = section_json(sections, "PREVIOUS_PROGRAM", None)

        # The repair edits steps by their op; a program it cannot read is written afresh.
        if error and isinstance(previous, list) and previous and all(map(op_of, previous)):
            program = self._repair(previous, error)
        else:
            program = self._generate(spec, plan_json, docs)
        return render_response({"program": program})

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _generate(
        self,
        spec: Mapping[str, Any],
        plan_json: Optional[Mapping[str, Any]],
        docs: List[Mapping[str, Any]],
    ) -> List[Dict[str, Any]]:
        base_tables = spec.get("base_tables", [])
        if not base_tables:
            return [{"op": "result", "frame": "main", "name": spec.get("name", "target")}]
        schemas = {
            d["payload"]["name"]: SchemaView.from_payload(d["payload"])
            for d in docs
            if d.get("kind") == "table"
        }
        primary = base_tables[0]
        program: List[Dict[str, Any]] = [{"op": "load", "table": primary, "as": "main"}]
        integration = spec.get("integration", {})

        join = integration.get("join")
        if join:
            program.append({"op": "load", "table": join["table"], "as": "dim"})
            program.append(
                {
                    "op": "join",
                    "left": "main",
                    "right": "dim",
                    "left_on": join["left_on"],
                    "right_on": join["right_on"],
                    "how": "inner",
                    "as": "main",
                }
            )

        for web in integration.get("web", []):
            program.append(
                {
                    "op": "add_from_records",
                    "frame": "main",
                    "records": web["records"],
                    "key": web["key"],
                    "record_key": web["record_key"],
                    "value_field": web["value_field"],
                    "new_column": web["new_column"],
                }
            )

        plan = plan_from_json(plan_json) if plan_json else None
        if plan is not None:
            # Q filters on YEAR(col) / ordering need a real DATE column; repair
            # text-typed date columns the way §3.4's example describes.
            if plan.order_column:
                schema = schemas.get(primary)
                column = schema.column(plan.order_column) if schema else None
                if column is not None and column.is_text:
                    program.append(
                        {"op": "parse_dates", "frame": "main", "column": plan.order_column}
                    )
            for f in plan.filters:
                if f.op == "=" and isinstance(f.value, str):
                    program.append(
                        {
                            "op": "filter_equals",
                            "frame": "main",
                            "column": f.column,
                            "value": f.value,
                        }
                    )
            interp = integration.get("interpolate")
            if plan.interpolate and interp and interp.get("order_by"):
                program.append(
                    {
                        "op": "interpolate",
                        "frame": "main",
                        "column": interp["column"],
                        "order_by": interp["order_by"],
                    }
                )

        wanted = [c["name"] for c in spec.get("columns", [])]
        if wanted:
            program.append({"op": "select", "frame": "main", "columns": wanted})
        program.append({"op": "result", "frame": "main", "name": spec["name"]})
        return program

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _repair(
        self, previous: List[Dict[str, Any]], error: str
    ) -> List[Dict[str, Any]]:
        """Drop or relax the failing op based on the tool's error message."""
        match = _STEP_RE.search(error)
        program = [dict(op) for op in previous]
        if match:
            step = int(match.group(1))
            if 0 <= step < len(program):
                op = program[step]["op"]
                if op in ("select", "parse_dates", "filter_equals", "interpolate", "sort"):
                    # Optional refinements: drop the failing one.
                    del program[step]
                    return program
                if op == "join":
                    # Integration failed: fall back to the single base table.
                    return [p for p in program if p["op"] not in ("join",) and p.get("as") != "dim"]
        # Unrecognized failure: retry with the minimal load→result skeleton.
        loads = [p for p in program if p["op"] == "load"][:1]
        results = [p for p in program if p["op"] == "result"]
        return loads + results if loads and results else program
