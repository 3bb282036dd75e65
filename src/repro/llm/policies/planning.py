"""Question → QueryPlan construction shared by the Conductor and DS-Guru
policies.

The two callers differ in *grounding*: the Conductor plans against full
distinct column values fetched through the IR System (the paper's §3.2
grounding behaviour), while DS-Guru plans one-shot against sample rows
only.  That difference — not special-casing — is what separates their
accuracies in Table 3.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..contract import PLAN, problem
from ..semantics import (
    FilterSpec,
    QueryPlan,
    Question,
    SchemaView,
    best_measure_column,
    candidate_join_keys,
    detect_aggregate,
    detect_round_digits,
    ground_filters,
    name_match_score,
    question_view,
    score_table,
    wants_first_last,
    wants_interpolation,
)

KnownValues = Mapping[str, Mapping[str, Sequence[Any]]]  # table -> column -> values


def choose_primary_table(
    question: Question, schemas: Sequence[SchemaView]
) -> Optional[SchemaView]:
    """The table a question is most plausibly about (measure-aware)."""
    question = question_view(question)
    best: Optional[Tuple[float, SchemaView]] = None
    for schema in schemas:
        score = score_table(question, schema)
        measure = best_measure_column(question, schema)
        if measure is not None:
            score += 2.0 * name_match_score(question, measure.name)
        if best is None or score > best[0]:
            best = (score, schema)
    return best[1] if best else None


def build_plan(
    question: Question,
    schemas: Sequence[SchemaView],
    known_values: Optional[KnownValues] = None,
    allow_join: bool = True,
) -> Optional[QueryPlan]:
    """Interpret a question over concrete schemas; None when no aggregate."""
    question = question_view(question)
    text = question.text
    aggregate = detect_aggregate(text)
    if aggregate is None or not schemas:
        return None
    primary = choose_primary_table(question, schemas)
    if primary is None:
        return None

    measure = best_measure_column(question, primary)
    if measure is None and aggregate != "count":
        # Maybe the measure lives in another retrieved table; re-anchor.
        for schema in schemas:
            candidate = best_measure_column(question, schema)
            if candidate is not None:
                primary, measure = schema, candidate
                break
    if measure is None and aggregate != "count":
        return None

    second_measure = None
    if aggregate == "corr":
        scored = sorted(
            (
                (name_match_score(question, c.name), c.name)
                for c in primary.numeric_columns()
            ),
            reverse=True,
        )
        numeric_hits = [name for s, name in scored if s > 0.05]
        if len(numeric_hits) >= 2:
            measure_name, second_measure = numeric_hits[0], numeric_hits[1]
        else:
            return None
    else:
        measure_name = measure.name if measure else None

    primary_values = (known_values or {}).get(primary.table)
    filters = ground_filters(
        question,
        primary,
        known_values=primary_values,
        exclude_columns=[measure_name] if measure_name else [],
    )

    join: Optional[Dict[str, Any]] = None
    has_value_filter = any(f.op == "=" for f in filters)
    if allow_join and not has_value_filter:
        for other in schemas:
            if other.table == primary.table:
                continue
            other_filters = ground_filters(
                question,
                other,
                known_values=(known_values or {}).get(other.table),
            )
            value_filters = [f for f in other_filters if f.op == "="]
            if not value_filters:
                continue
            keys = candidate_join_keys(primary, other)
            if not keys:
                continue
            left_on, right_on = keys[0]
            join = {"table": other.table, "left_on": left_on, "right_on": right_on}
            filters.extend(value_filters)
            break

    order_column = None
    first_last = wants_first_last(text)
    interpolate = wants_interpolation(text)
    if first_last or interpolate:
        date_cols = primary.date_columns()
        if date_cols:
            order_column = date_cols[0].name
        else:
            # Fall back to a numeric time-like column (year, time, step).
            for col in primary.numeric_columns():
                if any(tok in col.name.lower() for tok in ("year", "time", "date", "step")):
                    order_column = col.name
                    break
        if order_column is None:
            first_last = False
            interpolate = False

    return QueryPlan(
        table=primary.table,
        aggregate=aggregate,
        measure=measure_name,
        filters=filters,
        order_column=order_column,
        interpolate=interpolate,
        first_last=first_last,
        round_digits=detect_round_digits(text),
        join=join,
        second_measure=second_measure,
    )


def plan_to_json(plan: QueryPlan) -> Dict[str, Any]:
    """The plan as the JSON :data:`~repro.llm.contract.PLAN` declares."""
    return dataclasses.asdict(plan)


def plan_from_json(data: Mapping[str, Any]) -> QueryPlan:
    """Decode a plan; raises ``ValueError`` unless it meets
    :data:`~repro.llm.contract.PLAN`."""
    wrong = problem(PLAN, data, "plan")
    if wrong:
        raise ValueError(wrong)
    filters = [FilterSpec(**f) for f in data.get("filters", [])]
    return QueryPlan(**{"aggregate": None, "measure": None, **data, "filters": filters})
