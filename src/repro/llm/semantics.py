"""Natural-language understanding utilities shared by the LLM policies.

This module is the "intelligence" of the offline :class:`RuleLLM`: it maps
question text onto schemas — detecting the aggregate, the measure column,
filters grounded in sample values, grouping, interpolation, and join needs —
and synthesizes SQL / pipeline plans from the result.  Both the Conductor
policy and the DS-Guru baseline policy build on it (they differ in *how*
they use it: grounded-and-iterative versus one-shot).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..text.embedding import CachedEmbedder, feature_table_stats, trigram_table_stats
from ..text.tokenize import stem_vocabulary_stats, token_cache_stats, tokenize

# Memoized: policies re-score the same table/column names on every
# Conductor step, and under the serving layer's GIL-bound fan-out that
# redundant feature hashing is the hottest CPU path of a turn.
_EMBEDDER = CachedEmbedder(dim=192)


# ----------------------------------------------------------------------
# Tokenise once, score many: the question view and the name lexicon
# ----------------------------------------------------------------------
#
# A ReAct step re-reads the same few texts against the same few hundred
# schema names.  Everything derived from a text alone — its tokens, their
# set, its embedding and that embedding's norm — is therefore computed
# once per distinct text and looked up afterwards.  All three tables are
# keyed by content (so what they return never depends on who filled them)
# and bounded (so a long-lived service does not grow with its traffic).


class _Memo:
    """A small thread-safe LRU of values built from their key."""

    def __init__(self, bound: int):
        self._bound = bound
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: str, build: Callable[[str], Any]) -> Any:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
        # Built outside the lock: two threads racing on one key build equal
        # values, and tokenising a long text must not stall the others.
        value = build(key)
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self._bound:
                self._entries.popitem(last=False)
        return value

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "size": len(self._entries)}


class _Embedded:
    """Tokens of a text plus, on first use, its unit vector and norm."""

    __slots__ = ("tokens", "token_set", "_embed_text", "_vector", "_norm")

    def __init__(self, tokens: Sequence[str], embed_text: str):
        self.tokens: Tuple[str, ...] = tuple(tokens)
        self.token_set: FrozenSet[str] = frozenset(self.tokens)
        self._embed_text = embed_text
        self._vector: Optional[np.ndarray] = None
        self._norm = 0.0

    def embedding(self) -> Tuple[np.ndarray, float]:
        """``_EMBEDDER``'s own (read-only) vector for the text, and its norm."""
        vector = self._vector
        if vector is None:
            vector = _EMBEDDER.embed(self._embed_text)
            # Norm first: a racing reader that sees the vector sees its norm.
            self._norm = np.linalg.norm(vector)
            self._vector = vector
        return vector, self._norm


class NameEntry(_Embedded):
    """One lexicon entry: a table / column / field name or a cell value."""

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__(tokenize(name), name)


class QuestionView(_Embedded):
    """A question (intent, user message) as the scoring helpers read it.

    Built once per distinct text by :func:`question_view` and passed down,
    so ``score_table`` / ``best_measure_column`` / ``ground_filters`` share
    one tokenisation and one embedding.  As before, the embedding is of
    the *joined content tokens*, not of the raw text.
    """

    __slots__ = ("text", "name_scores")

    def __init__(self, tokens: Sequence[str], text: str = ""):
        super().__init__(tokens, " ".join(tokens))
        self.text = text
        #: ``name_match_score`` results against this question, by name: one
        #: ReAct step scores the same few hundred names a dozen times over.
        self.name_scores: Dict[str, float] = {}


Question = Union[str, QuestionView]

_LEXICON = _Memo(bound=16384)  # name -> NameEntry
_QUESTIONS = _Memo(bound=8)  # question text -> QuestionView
_TEXTS = _Memo(bound=64)  # document text -> token set


def name_entry(name: str) -> NameEntry:
    """The lexicon entry of ``name`` (tokenised on first sight only)."""
    return _LEXICON.get(name, NameEntry)


def question_view(question: Question) -> QuestionView:
    """``question`` as a view; the last few distinct texts are remembered."""
    if isinstance(question, QuestionView):
        return question
    return _QUESTIONS.get(question, lambda text: QuestionView(tokenize(text), text))


def text_token_set(text: str) -> FrozenSet[str]:
    """Content-token set of a retrieved document's text (recent ones kept)."""
    return _TEXTS.get(text, lambda t: frozenset(tokenize(t)))


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hits, misses and size of every table the policies' text scoring reads
    through — process-wide, like the tables themselves.  The embedder's
    word and bigram table reports its two sizes, ``words`` and ``bigrams``."""
    return {
        "lexicon": _LEXICON.stats(),
        "questions": _QUESTIONS.stats(),
        "texts": _TEXTS.stats(),
        "embedding": _EMBEDDER.stats(),
        "stems": stem_vocabulary_stats(),
        **token_cache_stats(),
        "features": feature_table_stats(),
        "trigrams": trigram_table_stats(),
    }


# ----------------------------------------------------------------------
# Schema views (parsed from document JSON payloads)
# ----------------------------------------------------------------------


@dataclass
class ColumnView:
    name: str
    dtype: str  # 'INTEGER' | 'DOUBLE' | 'TEXT' | 'DATE' | 'BOOLEAN' | 'NULL'

    @property
    def is_numeric(self) -> bool:
        return self.dtype in ("INTEGER", "DOUBLE")

    @property
    def is_text(self) -> bool:
        return self.dtype == "TEXT"

    @property
    def is_date(self) -> bool:
        return self.dtype == "DATE"


@dataclass
class SchemaView:
    """What a policy knows about one table: schema plus sample rows."""

    table: str
    columns: List[ColumnView]
    num_rows: int = 0
    samples: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SchemaView":
        columns = [ColumnView(c["name"], c.get("dtype", "TEXT")) for c in payload["columns"]]
        return cls(
            table=payload["name"],
            columns=columns,
            num_rows=int(payload.get("num_rows", 0)),
            samples=list(payload.get("samples", [])),
        )

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Optional[ColumnView]:
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        return None

    def numeric_columns(self) -> List[ColumnView]:
        return [c for c in self.columns if c.is_numeric]

    def text_columns(self) -> List[ColumnView]:
        return [c for c in self.columns if c.is_text]

    def date_columns(self) -> List[ColumnView]:
        return [c for c in self.columns if c.is_date]


# ----------------------------------------------------------------------
# Intent detection
# ----------------------------------------------------------------------

_AGGREGATE_CUES: List[Tuple[str, Sequence[str]]] = [
    ("avg", ("average", "mean", "typical")),
    ("sum", ("total", "sum", "combined", "overall amount")),
    ("count", ("how many", "count", "number of")),
    ("max", ("maximum", "highest", "largest", "most", "peak", "max")),
    ("min", ("minimum", "lowest", "smallest", "least", "min")),
    ("median", ("median", "middle")),
    ("stddev", ("standard deviation", "stddev", "variability")),
    ("corr", ("correlation", "correlated", "relationship between")),
]

# Whole-word matching: "sum" must not fire inside "assume".
_AGGREGATE_PATTERNS: List[Tuple[str, str, "re.Pattern[str]"]] = [
    (agg, cue, re.compile(rf"\b{re.escape(cue)}\b"))
    for agg, cues in _AGGREGATE_CUES
    for cue in cues
]

_ROUND_RE = re.compile(r"round(?:ed)?[^0-9]{0,40}?(\d+)\s+decimal", re.IGNORECASE)


def detect_aggregate(text: str) -> Optional[str]:
    """Which aggregate the question asks for (earliest whole-word cue wins)."""
    lowered = text.lower()
    best: Optional[Tuple[int, str]] = None
    for agg, cue, pattern in _AGGREGATE_PATTERNS:
        # A substring test rules most cues out without running their regex.
        match = pattern.search(lowered) if cue in lowered else None
        if match and (best is None or match.start() < best[0]):
            best = (match.start(), agg)
    return best[1] if best else None


def detect_round_digits(text: str) -> Optional[int]:
    """'Round your answer to 4 decimal places.' -> 4."""
    match = _ROUND_RE.search(text)
    return int(match.group(1)) if match else None


def wants_interpolation(text: str) -> bool:
    return "interpolat" in text.lower()


def wants_first_last(text: str) -> bool:
    lowered = text.lower()
    return ("first" in lowered and "last" in lowered) or "earliest and latest" in lowered


_YEAR_RE = re.compile(r"\b(19[5-9]\d|20[0-4]\d)\b")


def extract_years(text: str) -> List[int]:
    return [int(y) for y in _YEAR_RE.findall(text)]


# ----------------------------------------------------------------------
# Column and table matching
# ----------------------------------------------------------------------


def name_match_score(question: Question, column_name: str) -> float:
    """Lexical + embedding score of a column name against a question.

    Scores feed ``> 0.6`` / ``<= 0.05`` / arg-max comparisons, so the
    arithmetic is kept float-for-float: token-set overlap, plus the cosine
    as one dot product over the two cached unit vectors divided by the
    product of their cached norms (``tests/oracles`` holds the reference).
    """
    question = question_view(question)
    score = question.name_scores.get(column_name)
    if score is not None:
        return score
    name = name_entry(column_name)
    col_tokens = name.token_set
    if not col_tokens:
        score = 0.0
    else:
        overlap = len(col_tokens & question.token_set) / len(col_tokens)
        a, na = name.embedding()
        b, nb = question.embedding()
        emb = 0.0 if na == 0 or nb == 0 else float(np.dot(a, b) / (na * nb))
        score = 0.8 * overlap + 0.2 * max(emb, 0.0)
    question.name_scores[column_name] = score
    return score


def is_id_like(name: str) -> bool:
    """Identifier columns are join keys, never measures."""
    lowered = name.lower()
    return lowered == "id" or lowered.endswith("_id")


def best_measure_column(question: Question, schema: SchemaView) -> Optional[ColumnView]:
    """The numeric column the question most plausibly asks about."""
    question = question_view(question)
    best: Optional[Tuple[float, ColumnView]] = None
    for col in schema.numeric_columns():
        if is_id_like(col.name):
            continue
        score = name_match_score(question, col.name)
        if score <= 0.05:
            continue
        if best is None or score > best[0]:
            best = (score, col)
    return best[1] if best else None


def score_table(question: Question, schema: SchemaView) -> float:
    """How relevant a table looks for a question (name + columns)."""
    question = question_view(question)
    scores = [name_match_score(question, schema.table)]
    scores += [name_match_score(question, c.name) for c in schema.columns]
    scores.sort(reverse=True)
    return sum(scores[:4])


# ----------------------------------------------------------------------
# Filter grounding
# ----------------------------------------------------------------------


@dataclass
class FilterSpec:
    column: str
    value: Any
    op: str = "="  # '=' | 'contains' | 'year'

    def to_sql(self) -> str:
        if self.op == "contains":
            escaped = str(self.value).replace("'", "''")
            return f"LOWER({self.column}) LIKE '%{escaped.lower()}%'"
        if self.op == "year":
            return f"YEAR({self.column}) = {int(self.value)}"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"{self.column} = '{escaped}'"
        return f"{self.column} = {self.value}"


def ground_filters(
    question: Question,
    schema: SchemaView,
    known_values: Optional[Mapping[str, Sequence[Any]]] = None,
    exclude_columns: Sequence[str] = (),
) -> List[FilterSpec]:
    """Find filters by matching question tokens against column values.

    ``known_values`` maps column name to the values visible to the policy:
    for a grounded (Seeker) plan these are full distinct column values from
    the IR system; for a one-shot (DS-Guru) plan they are only the sample
    rows — which is precisely why ungrounded plans miss filters whose value
    spelling does not appear in the first few rows.
    """
    question = question_view(question)
    q_tokens = question.token_set
    excluded = {c.lower() for c in exclude_columns}
    filters: List[FilterSpec] = []
    for col in schema.text_columns():
        if col.name.lower() in excluded:
            continue
        pool: Sequence[Any]
        if known_values and col.name in known_values:
            pool = known_values[col.name]
        else:
            pool = [row.get(col.name) for row in schema.samples]
        best: Optional[Tuple[float, Any]] = None
        seen: Set[str] = set()
        for value in pool:
            if value is None:
                continue
            key = str(value)
            if key in seen:
                continue
            seen.add(key)
            v_tokens = name_entry(key).token_set
            if not v_tokens:
                continue
            # Only a *full* mention counts: every content token of the value
            # must appear in the question.  Partial overlaps ("collection"
            # matching 'Regional Collection') produce spurious filters.
            if not v_tokens <= q_tokens:
                continue
            score = 1.0 + len(v_tokens)
            if best is None or score > best[0]:
                best = (score, value)
        if best is not None:
            filters.append(FilterSpec(col.name, best[1], "="))
    # Year filters on date columns.
    years = extract_years(question.text)
    if years and schema.date_columns():
        date_col = schema.date_columns()[0]
        for year in years[:1]:
            filters.append(FilterSpec(date_col.name, year, "year"))
    return filters


# ----------------------------------------------------------------------
# Join inference
# ----------------------------------------------------------------------


def candidate_join_keys(left: SchemaView, right: SchemaView) -> List[Tuple[str, str]]:
    """Column pairs that plausibly join two tables.

    Exact name matches first; then id-suffix matches (``site`` vs
    ``site_id``); sample-value overlap is used as a tie-breaker signal.
    """
    pairs: List[Tuple[float, Tuple[str, str]]] = []
    for lcol in left.columns:
        for rcol in right.columns:
            lname, rname = lcol.name.lower(), rcol.name.lower()
            score = 0.0
            if lname == rname:
                score = 2.0
            else:
                lbase = lname[:-3] if lname.endswith("_id") else lname
                rbase = rname[:-3] if rname.endswith("_id") else rname
                if lbase == rbase:
                    score = 1.5
            if score == 0.0:
                continue
            # Key-like names make better join columns than attribute names
            # (site_id over region when both match exactly); this has to
            # outweigh the sample-overlap bonus, which is noisy on the few
            # sample rows a policy sees.
            if lname.endswith("_id") or lname == "id":
                score += 0.6
            lvals = {str(row.get(lcol.name)) for row in left.samples} - {"None"}
            rvals = {str(row.get(rcol.name)) for row in right.samples} - {"None"}
            if lvals and rvals and lvals & rvals:
                score += 0.5
            pairs.append((score, (lcol.name, rcol.name)))
    pairs.sort(key=lambda p: (-p[0], p[1]))
    return [pair for _, pair in pairs]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


@dataclass
class QueryPlan:
    """A structured interpretation of a question over concrete schemas."""

    table: str
    aggregate: str
    measure: Optional[str]
    filters: List[FilterSpec] = field(default_factory=list)
    group_by: Optional[str] = None
    order_column: Optional[str] = None  # date/order column for first-last
    interpolate: bool = False
    first_last: bool = False
    round_digits: Optional[int] = None
    join: Optional[Dict[str, Any]] = None  # {"table","left_on","right_on"}
    second_measure: Optional[str] = None  # for corr
    measure_expr: Optional[str] = None  # derived measure (e.g. tariff impact)

    def describe(self) -> str:
        parts = [f"{self.aggregate.upper()}({self.measure or '*'}) over {self.table}"]
        if self.join:
            parts.append(f"joined with {self.join['table']}")
        if self.filters:
            rendered = ", ".join(f"{f.column}~{f.value}" for f in self.filters)
            parts.append(f"filtered by {rendered}")
        if self.interpolate:
            parts.append("with linear interpolation")
        if self.first_last:
            parts.append("at the first and last recorded time")
        return "; ".join(parts)


_AGG_SQL = {
    "avg": "AVG",
    "sum": "SUM",
    "count": "COUNT",
    "max": "MAX",
    "min": "MIN",
    "median": "MEDIAN",
    "stddev": "STDDEV",
    "corr": "CORR",
}


def plan_to_sql(plan: QueryPlan, table_name: Optional[str] = None) -> str:
    """Render a plan as SQL over the (materialized) target table."""
    table = table_name or plan.table
    agg = _AGG_SQL[plan.aggregate]
    if plan.aggregate == "count":
        expr = "COUNT(*)"
    elif plan.aggregate == "corr" and plan.second_measure:
        expr = f"CORR({plan.measure}, {plan.second_measure})"
    elif plan.measure_expr:
        expr = f"{agg}({plan.measure_expr})"
    else:
        expr = f"{agg}({plan.measure})"
    if plan.round_digits is not None and plan.aggregate != "count":
        expr = f"ROUND({expr}, {plan.round_digits})"
    sql = f"SELECT {expr} AS answer FROM {table}"
    clauses = [f.to_sql() for f in plan.filters]
    if plan.first_last and plan.order_column:
        clauses.append(
            f"({plan.order_column} = (SELECT MIN({plan.order_column}) FROM {table})"
            f" OR {plan.order_column} = (SELECT MAX({plan.order_column}) FROM {table}))"
        )
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    if plan.group_by:
        sql = (
            f"SELECT {plan.group_by}, {expr} AS answer FROM {table}"
            + (" WHERE " + " AND ".join(clauses) if clauses else "")
            + f" GROUP BY {plan.group_by} ORDER BY {plan.group_by}"
        )
    return sql
