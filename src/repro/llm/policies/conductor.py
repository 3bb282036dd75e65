"""The Conductor policy: ReAct-style action selection (§3.2).

Given the sections the Conductor component renders into its prompt — the
latest user message, accumulated intent, the current ``(T, Q)`` state,
retrieved documents, grounded column values, and this turn's prior actions —
the policy emits one ``{"thought", "action"}`` response at a time.

The decision order mirrors the paper's narrative: retrieve before
assuming; ground filter values in actual data; reify the interpreted need
as a target schema and queries; materialize; execute; always end with a
user-facing message.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Mapping

from ..prompts import render_response, section_json
from ..semantics import (
    Question,
    QuestionView,
    SchemaView,
    detect_aggregate,
    name_entry,
    name_match_score,
    plan_to_sql,
    question_view,
    score_table,
    text_token_set,
)
from .planning import build_plan, choose_primary_table, plan_to_json


def _keyword_query(intent: str) -> str:
    # Deduplicate while preserving order; cap for index-friendliness.
    return " ".join(list(dict.fromkeys(question_view(intent).tokens))[:24])


def _target_name(table: str) -> str:
    return f"{table}_target"


def update_state_action(
    plan, tables: List[SchemaView], docs: List[Dict[str, Any]], intent: Question
) -> Dict[str, Any]:
    """``plan`` reified as (T, Q): the Conductor's and the Static-Pipeline
    planner's ``update_state`` action (web records in ``docs`` become columns)."""
    target = _target_name(plan.table)
    primary = next(s for s in tables if s.table == plan.table)
    columns: List[Dict[str, str]] = []

    def add_column(name: str, dtype: str, source: str) -> None:
        if name and all(c["name"] != name for c in columns):
            columns.append({"name": name, "dtype": dtype, "source": source})

    web_specs = _web_integration(plan, primary, docs, intent)
    for spec in web_specs:
        add_column(spec["new_column"], "DOUBLE", f"web:{spec['doc_id']}")

    if plan.measure:
        col = primary.column(plan.measure)
        add_column(plan.measure, col.dtype if col else "DOUBLE", f"{plan.table}.{plan.measure}")
    if plan.second_measure:
        add_column(plan.second_measure, "DOUBLE", f"{plan.table}.{plan.second_measure}")
    if plan.order_column:
        col = primary.column(plan.order_column)
        add_column(plan.order_column, col.dtype if col else "DATE", f"{plan.table}.{plan.order_column}")
    for f in plan.filters:
        source_table = plan.join["table"] if plan.join and primary.column(f.column) is None else plan.table
        add_column(f.column, "TEXT" if isinstance(f.value, str) else "DOUBLE", f"{source_table}.{f.column}")
    if plan.join:
        add_column(plan.join["left_on"], "TEXT", f"{plan.table}.{plan.join['left_on']}")

    integration: Dict[str, Any] = {}
    if plan.join:
        integration["join"] = plan.join
    if plan.interpolate:
        integration["interpolate"] = {"column": plan.measure, "order_by": plan.order_column}
    if web_specs:
        integration["web"] = [
            {k: v for k, v in spec.items() if k != "doc_id"} for spec in web_specs
        ]
        add_column(web_specs[0]["key"], "TEXT", f"{plan.table}.{web_specs[0]['key']}")

    table_spec = {
        "name": target,
        "columns": columns,
        "base_tables": [plan.table] + ([plan.join["table"]] if plan.join else []),
        "integration": integration,
        "notes": plan.describe(),
    }
    return {
        "kind": "update_state",
        "table_spec": table_spec,
        "queries": [plan_to_sql(plan, target)],
        "plan": plan_to_json(plan),
    }


def _web_integration(
    plan, primary: SchemaView, docs: List[Dict[str, Any]], intent: Question
) -> List[Dict[str, Any]]:
    """Integrate web-page records as new columns (the §3.6 tariff flow).

    A web document's records become a column when (a) one record field
    matches a text column of the primary table (the join key, e.g.
    ``country``) and (b) the remaining numeric fields look relevant to
    the intent.  When the integrated fields are tariff-like, the plan's
    measure becomes the derived impact expression the paper walks
    through: ``price * (1 + new_tariff - previous_tariff)``.
    """
    intent = question_view(intent)
    specs: List[Dict[str, Any]] = []
    for doc in docs:
        if doc.get("kind") != "web":
            continue
        records = doc.get("payload", {}).get("records") or []
        if not records:
            continue
        fields = list(records[0].keys())
        key_field = None
        key_column = None
        best = 0.0
        for f in fields:
            for col in primary.text_columns():
                score = name_match_score(QuestionView(name_entry(col.name).tokens), f)
                if score > max(best, 0.45):
                    best = score
                    key_field, key_column = f, col.name
        if key_field is None:
            continue
        for f in fields:
            if f == key_field:
                continue
            if not any(isinstance(r.get(f), (int, float)) for r in records):
                continue
            if name_match_score(intent, f) <= 0.05:
                continue
            specs.append(
                {
                    "doc_id": doc.get("doc_id", ""),
                    "records": records,
                    "key": key_column,
                    "record_key": key_field,
                    "value_field": f,
                    "new_column": f,
                }
            )
    # Derived tariff-impact measure (§3.6): relative to the previous
    # active tariff when the user said so, else the new rate alone.
    new_cols = [s["new_column"] for s in specs]
    tariff_new = next((c for c in new_cols if "new" in c.lower() and "tariff" in c.lower()), None)
    tariff_prev = next(
        (c for c in new_cols if ("prev" in c.lower() or "old" in c.lower()) and "tariff" in c.lower()),
        None,
    )
    lowered = intent.text.lower()
    if plan.measure and tariff_new:
        if tariff_prev and ("previous" in lowered or "relative" in lowered):
            plan.measure_expr = f"{plan.measure} * (1 + {tariff_new} - {tariff_prev})"
        else:
            plan.measure_expr = f"{plan.measure} * (1 + {tariff_new})"
    return specs


class ConductorPolicy:
    """Selects the Conductor's next action."""

    role = "conductor"

    def respond(self, sections: Mapping[str, str]) -> str:
        intent = sections.get("INTENT") or sections.get("USER_MESSAGE", "")
        user_message = sections.get("USER_MESSAGE", "")
        state = section_json(sections, "STATE", {}) or {}
        docs = section_json(sections, "RETRIEVED", []) or []
        grounded = section_json(sections, "GROUNDED", {}) or {}
        actions_taken = section_json(sections, "ACTIONS", []) or []
        last_error = sections.get("LAST_ERROR", "")
        last_result = section_json(sections, "LAST_RESULT", None)
        knowledge = [d for d in docs if d.get("kind") == "knowledge"]

        kinds = list(actions_taken)
        tables = [
            SchemaView.from_payload(d["payload"]) for d in docs if d.get("kind") == "table"
        ]
        # Tokenised (and embedded) once here; every helper below reads the view.
        message = question_view(user_message)

        # The harness interrupted us at the action limit: end with a
        # user-facing message, as §3.2 prescribes.
        if sections.get("FORCE_MESSAGE"):
            return self._emit(
                "The action limit was reached; summarizing progress for the user.",
                {
                    "kind": "message_user",
                    "message": self._summary_message(
                        state, tables, last_result, last_error, message
                    ),
                },
            )

        # 1. No evidence yet: retrieve before assuming anything.  On later
        # turns, retrieve again whenever the user mentions terms the working
        # documents do not cover (the need moved; the evidence must follow).
        if "retrieve" not in kinds:
            if not docs:
                return self._emit(
                    "I have no retrieved data for this need yet; I should query the "
                    "IR System before proposing any schema.",
                    {"kind": "retrieve", "query": _keyword_query(intent)},
                )
            residual = self._residual_tokens(message, docs, grounded)
            if residual:
                return self._emit(
                    f"The user now mentions {residual}, which none of my retrieved "
                    "documents cover; retrieving again before replanning.",
                    {"kind": "retrieve", "query": " ".join(residual)},
                )
            probe = self._connection_probe(message, tables)
            if probe:
                anchor_table, query = probe
                return self._emit(
                    f"The user asks what connects to {anchor_table!r}; tables that "
                    "reference it carry its name in their foreign-key columns, so I "
                    "will pivot-retrieve on that pattern.",
                    {"kind": "retrieve", "query": query},
                )

        if not tables:
            return self._emit(
                "Retrieval returned no tables, so the need cannot be grounded in "
                "available data; I must tell the user instead of fabricating a schema.",
                {
                    "kind": "message_user",
                    "message": (
                        "I could not find tables relevant to your request in the "
                        "available sources. Could you describe the data you expect "
                        "to exist (topic, entities, measurements)?"
                    ),
                },
            )

        # Augment intent with captured domain knowledge (cross-user transfer).
        effective_intent = intent
        for doc in knowledge:
            effective_intent += " " + doc.get("text", "")
        need = question_view(effective_intent)

        plan_needed = detect_aggregate(effective_intent) is not None
        sample_plan = build_plan(need, tables) if plan_needed else None
        anchor = sample_plan.table if sample_plan else (tables[0].table if tables else None)
        anchor_schema = next((t for t in tables if t.table == anchor), None)
        anchor_has_text = bool(anchor_schema and anchor_schema.text_columns())

        # 2. Ground candidate filter values in real data before planning.
        if plan_needed and anchor_has_text and "ground_values" not in kinds:
            if anchor not in grounded:
                return self._emit(
                    f"The plan will likely filter text columns of {anchor!r}; I should "
                    "fetch the actual distinct values rather than assume spellings.",
                    {"kind": "ground_values", "table": anchor, "column": "*"},
                )

        # 2b. The anchor itself has nothing to filter on: if the question
        # names an entity no retrieved document mentions, retrieve again with
        # just the unresolved terms (the dimension table carrying them is
        # easily crowded out of the first result set).
        if (
            plan_needed
            and not anchor_has_text
            and kinds.count("retrieve") == 1
            and "update_state" not in kinds
        ):
            residual = self._residual_tokens(message, docs, grounded)
            if residual:
                return self._emit(
                    f"The question mentions {residual} but no retrieved document "
                    "covers those terms; retrieving again with just them.",
                    {"kind": "retrieve", "query": " ".join(residual)},
                )

        # 3. Reify the (possibly updated) information need as (T, Q).
        if "update_state" not in kinds:
            if plan_needed:
                plan = build_plan(need, tables, known_values=grounded)
                if plan is None:
                    return self._emit(
                        "The user asks for a computation but I cannot identify the "
                        "measure in the retrieved schemas; I need clarification.",
                        {
                            "kind": "message_user",
                            "message": self._clarification_message(tables),
                        },
                    )
                return self._emit(
                    f"Interpreting the need as: {plan.describe()}. I will reify it as "
                    "a target schema and a SQL query over the materialized table.",
                    update_state_action(plan, tables, docs, need),
                )
            linked = self._enrichment_targets(message, tables)
            if len(linked) >= 2:
                names = [schema.table for _, schema, _ in linked]
                return self._emit(
                    f"The user wants columns of {names} linked row-by-row; I will "
                    "reify one target table spanning them and let the alignment "
                    "compiler find the join path through discovered candidates.",
                    self._enrichment_state_action(linked),
                )
            return self._emit(
                "The user is exploring; I will reify a browsing schema over the most "
                "relevant table so they can see what is available.",
                self._exploratory_state_action(need, tables),
            )

        # 4. Materialize T if the spec exists but the instance does not.
        # Newest spec first: it reifies the *current* turn's need; earlier
        # specs left pending by an interrupted turn should not starve it.
        spec_names = [t["name"] for t in state.get("T", [])]
        materialized = set(state.get("materialized", []))
        pending = [name for name in spec_names if name not in materialized]
        if pending and "materialize" not in kinds and not last_error:
            return self._emit(
                f"T defines {pending[-1]!r} but it is not materialized yet; Q cannot "
                "run until the Materializer populates it.",
                {"kind": "materialize", "table": pending[-1], "note": user_message},
            )

        # 5. Execute Q once the spec it queries (the newest) is materialized.
        if (
            state.get("Q")
            and spec_names
            and spec_names[-1] in materialized
            and last_result is None
            and "execute_sql" not in kinds
            and not last_error
        ):
            return self._emit(
                "T is materialized and Q is defined; executing Q grounds my answer "
                "in actual data.",
                {"kind": "execute_sql"},
            )

        # 6. Close the turn with user-facing communication.
        return self._emit(
            "I have enough to report back; ending the sequence with a user-facing "
            "message as instructed.",
            {"kind": "message_user", "message": self._summary_message(
                state, tables, last_result, last_error, message
            )},
        )

    #: Stemmed words that describe the computation rather than the data;
    #: they never indicate a missing document.
    _QUERY_WORDS = frozenset(
        "averag mean total sum count many maximum minimum highest lowest "
        "largest smallest least most median middl standard deviate deviation "
        "correlate ratio percentage round decimal place assum linearly "
        "interpolat first last record read measur taken collect level "
        "exceed chang rang what which how much data "
        "pleas link reach give show alongsid connect connection other "
        "trac trail chain start study surround understand overview hold "
        "partner every tabl".split()
    )

    #: Stemmed cues that the user wants rows of several tables linked
    #: together (enrichment), rather than a computation over one.
    _ENRICH_CUES = frozenset("link alongsid enrich pair join".split())

    #: Stemmed cues that the user is asking what *connects to* known data —
    #: the walk step of an investigation whose endpoint is still unknown.
    _CONNECT_CUES = frozenset("connect connection link trail chain".split())

    def _residual_tokens(self, message: QuestionView, docs, grounded) -> List[str]:
        """Question tokens covered by no retrieved document or grounded value."""
        residual = [
            token
            for token in dict.fromkeys(message.tokens)
            if not (token.isdigit() or token in self._QUERY_WORDS)
        ]
        unknown = set(residual)
        for known in self._known_token_sets(docs, grounded):
            if not unknown:
                break
            unknown = unknown - known
        return [token for token in residual if token in unknown][:6]

    @staticmethod
    def _known_token_sets(docs, grounded) -> Iterator[FrozenSet[str]]:
        """Token sets of everything the working documents already cover."""
        for doc in docs:
            yield text_token_set(doc.get("text", ""))
            yield name_entry(doc.get("title", "")).token_set
            for col in doc.get("payload", {}).get("columns", []):
                yield name_entry(col["name"]).token_set
        for columns in grounded.values():
            for values in columns.values():
                for value in values[:200]:
                    yield name_entry(str(value)).token_set

    def _enrichment_targets(self, message: QuestionView, tables: List[SchemaView]):
        """Retrieved tables whose columns the message names fully.

        An enrichment request ("link X to Y, show x alongside y") names one
        column per endpoint table.  A table qualifies only when its best
        column clears the full-name threshold (0.6 — partial overlaps such
        as foreign-key columns sharing one token stay below it).  Results
        are ordered by where the column is named in the message, so the
        reified spec lists endpoints in the user's order.
        """
        tokens = message.tokens
        if not message.token_set & self._ENRICH_CUES:
            return []
        matched = []
        for schema in tables:
            best_score, best_col = 0.0, None
            for col in schema.columns:
                score = name_match_score(message, col.name)
                if score > best_score:
                    best_score, best_col = score, col
            if best_col is None or best_score <= 0.6:
                continue
            position = min(
                (
                    tokens.index(t)
                    for t in name_entry(best_col.name).tokens
                    if t in message.token_set
                ),
                default=len(tokens),
            )
            matched.append((position, schema, best_col))
        matched.sort(key=lambda m: m[0])
        return matched

    def _connection_probe(self, message: QuestionView, tables: List[SchemaView]):
        """A pivot query for "what connects to <known table>?" questions.

        Tables that reference another carry its name inside their
        foreign-key columns (``vendor_custody_ref``), so retrieving on the
        known table's name plus reference words surfaces its children even
        though the user cannot name them yet.  Fires only when the message
        has a connection cue, names a table already retrieved, and is not
        itself a full enrichment request (which needs no more discovery).
        """
        tokens = message.tokens
        if not message.token_set & self._CONNECT_CUES:
            return None
        if len(self._enrichment_targets(message, tables)) >= 2:
            return None
        named = []
        for schema in tables:
            table = name_entry(schema.table)
            if table.tokens and table.token_set <= message.token_set:
                named.append((max(tokens.index(t) for t in table.tokens), schema))
        if not named:
            return None
        named.sort(key=lambda m: m[0])
        anchor = named[-1][1]
        query_tokens = list(dict.fromkeys(name_entry(anchor.table).tokens)) + ["ref", "reference"]
        return anchor.table, " ".join(query_tokens)

    # ------------------------------------------------------------------
    # Action builders
    # ------------------------------------------------------------------
    def _enrichment_state_action(self, matched) -> Dict[str, Any]:
        """Reify an enrichment need as one target spanning several tables.

        The spec carries only the named endpoint columns and base tables;
        the bridge tables of a multi-hop chain are deliberately absent —
        resolving the path through discovered join candidates is the
        alignment compiler's job, not the policy's.
        """
        base_tables = [schema.table for _, schema, _ in matched]
        target = "linked_" + "_".join(base_tables)
        columns = [
            {"name": col.name, "dtype": col.dtype, "source": f"{schema.table}.{col.name}"}
            for _, schema, col in matched
        ]
        table_spec = {
            "name": target,
            "columns": columns,
            "base_tables": base_tables,
            "integration": {},
            "notes": f"enrichment linking {' and '.join(base_tables)}",
        }
        selected = ", ".join(c["name"] for c in columns)
        return {
            "kind": "update_state",
            "table_spec": table_spec,
            "queries": [f"SELECT {selected} FROM {target} LIMIT 5"],
            "plan": None,
        }

    def _exploratory_state_action(
        self, intent: QuestionView, tables: List[SchemaView]
    ) -> Dict[str, Any]:
        primary = choose_primary_table(intent, tables) or tables[0]
        target = _target_name(primary.table)
        table_spec = {
            "name": target,
            "columns": [
                {"name": c.name, "dtype": c.dtype, "source": f"{primary.table}.{c.name}"}
                for c in primary.columns
            ],
            "base_tables": [primary.table],
            "integration": {},
            "notes": f"browsing view over {primary.table}",
        }
        return {
            "kind": "update_state",
            "table_spec": table_spec,
            "queries": [f"SELECT * FROM {target} LIMIT 5"],
            "plan": None,
        }

    # ------------------------------------------------------------------
    # Message builders (these surface concepts to the user / LLM Sim)
    # ------------------------------------------------------------------
    def _clarification_message(self, tables: List[SchemaView]) -> str:
        parts = ["I found these candidate tables but could not pin down the quantity to compute:"]
        for schema in tables[:3]:
            cols = ", ".join(schema.column_names()[:10])
            parts.append(f"- {schema.table} (columns: {cols})")
        parts.append("Which measurement should the analysis use?")
        return "\n".join(parts)

    def _summary_message(
        self,
        state: Mapping[str, Any],
        tables: List[SchemaView],
        last_result: Any,
        last_error: str,
        message: QuestionView,
    ) -> str:
        if last_error:
            return (
                "I hit a problem while preparing the data: "
                f"{last_error}. I have kept the current T and Q in the state view; "
                "could you adjust or confirm the intended columns and filters?"
            )
        parts: List[str] = []
        specs = state.get("T", [])
        browsing = bool(specs) and all(
            "browsing view" in s.get("notes", "") for s in specs
        )
        if browsing:
            # Exploration: surface what is available across the top tables,
            # not just the one we picked to browse.  Rank by relevance to
            # the latest message (stable, so untouched ties keep retrieval
            # order): a freshly discovered table the user just asked about
            # must not be crowded out by older working-memory documents.
            ranked = sorted(
                range(len(tables)),
                key=lambda i: (-score_table(message, tables[i]), i),
            ) if message.text else range(len(tables))
            overview = []
            for index in list(ranked)[:3]:
                schema = tables[index]
                overview.append(
                    f"{schema.table} has variables: {', '.join(schema.column_names())}"
                )
            parts.append("Here is an overview of the most relevant data I found. ")
            parts.append("; ".join(overview))
            parts.append(
                "I put a browsing view of the most relevant table into T (see the "
                "state view). Tell me which variables matter and any conditions, "
                "and I will materialize T and compute it"
            )
            return ". ".join(parts)
        if specs:
            spec = specs[-1]
            cols = ", ".join(c["name"] for c in spec.get("columns", []))
            parts.append(
                f"I designed the target table {spec['name']} with columns ({cols})"
            )
            if spec.get("notes"):
                parts.append(f"interpreting your need as: {spec['notes']}")
        if state.get("Q"):
            parts.append(f"Q is: {state['Q'][-1]}")
        if last_result is not None:
            if isinstance(last_result, dict) and "value" in last_result:
                parts.append(f"Executing Q gives the answer = {last_result['value']}")
            else:
                parts.append(f"Executing Q returned: {last_result}")
            parts.append("Does this match what you had in mind, or should I refine the scope?")
        elif not specs:
            names = ", ".join(s.table for s in tables[:4])
            parts.append(f"I found potentially relevant tables: {names}")
        else:
            parts.append(
                "Tell me which variables matter and any conditions, and I will "
                "materialize T and compute it"
            )
        return ". ".join(parts)

    @staticmethod
    def _emit(thought: str, action: Dict[str, Any]) -> str:
        return render_response({"thought": thought, "action": action})
