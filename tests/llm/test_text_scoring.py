"""Direct and generated-input tests of the policies' text scoring.

``name_match_score`` feeds ``> 0.6``, ``<= 0.05`` and arg-max comparisons,
so the lexicon must return the *same float* as the per-call formula kept in
``tests/oracles``; the direct tests pin the two thresholds.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm import semantics
from repro.llm.policies.planning import build_plan, choose_primary_table
from repro.llm.semantics import (
    QuestionView,
    best_measure_column,
    cache_stats,
    detect_aggregate,
    name_entry,
    name_match_score,
    question_view,
    score_table,
    text_token_set,
)
from repro.text import tokenize
from tests.llm.test_semantics import make_schema
from tests.oracles.text_scoring import reference_detect_aggregate, reference_name_match_score


def reference_score_table(question, schema):
    tokens = tokenize(question)
    scores = [reference_name_match_score(tokens, schema.table)]
    scores += [reference_name_match_score(tokens, c.name) for c in schema.columns]
    return sum(sorted(scores, reverse=True)[:4])


READINGS = make_schema(
    "water_readings",
    [
        ("reading_id", "INTEGER"),
        ("site_id", "INTEGER"),
        ("potassium_ppm", "DOUBLE"),
        ("turbidity", "DOUBLE"),
    ],
)
SITES = make_schema(
    "sites",
    [
        ("site_id", "INTEGER"),
        ("site_name", "TEXT"),
        ("site_custody_ref", "TEXT"),
        ("elevation", "DOUBLE"),
    ],
)
VENDORS = make_schema("vendors", [("vendor_id", "INTEGER"), ("vendor_label", "TEXT")])


class TestNameMatchScore:
    def test_fully_named_column_clears_the_enrichment_threshold(self):
        # _enrichment_targets qualifies a table only above 0.6.
        assert name_match_score("link each site name to its vendor", "site_name") > 0.6
        assert name_match_score("show the potassium ppm", "potassium_ppm") > 0.6

    def test_partial_overlap_stays_at_or_below_the_enrichment_threshold(self):
        # A foreign-key column sharing one of its three tokens with the message.
        assert name_match_score("link each site name to its vendor", "site_custody_ref") <= 0.6
        assert 0.05 < name_match_score("link each site to its vendor", "site_name") <= 0.6

    def test_unrelated_name_stays_at_or_below_the_measure_threshold(self):
        # best_measure_column drops anything <= 0.05.
        assert name_match_score("what about the weather", "potassium_ppm") <= 0.05
        assert best_measure_column("what about the weather", READINGS) is None

    def test_score_is_overlap_plus_clamped_cosine(self):
        assert name_match_score("potassium", "potassium") == pytest.approx(1.0)
        assert 0.0 <= name_match_score("zzz qqq", "potassium_ppm") <= 0.2

    def test_name_without_content_tokens_scores_zero(self):
        assert name_match_score("anything at all", "___") == 0.0
        assert name_match_score("anything at all", "the") == 0.0  # a stopword
        assert name_match_score("", "ppm") == reference_name_match_score([], "ppm")

    def test_text_and_view_are_the_same_question(self):
        text = "average potassium across the sites"
        view = question_view(text)
        assert question_view(view) is view
        assert question_view(text) is view  # remembered
        assert view.tokens == tuple(tokenize(text)) and view.token_set == frozenset(view.tokens)
        for name in ("potassium_ppm", "site_name", "siteName", "turbidity"):
            assert name_match_score(text, name) == name_match_score(view, name)
            assert name_match_score(QuestionView(view.tokens), name) == name_match_score(view, name)
            assert view.name_scores[name] == reference_name_match_score(tokenize(text), name)


class TestScoreTable:
    def test_sums_the_four_best_name_scores(self):
        question = "average potassium ppm per site"
        for schema in (READINGS, SITES, VENDORS):
            assert score_table(question, schema) == reference_score_table(question, schema)

    def test_a_table_the_question_names_outranks_one_it_does_not(self):
        question = "average potassium ppm in the water readings"
        assert score_table(question, READINGS) > score_table(question, SITES) > 0.0
        assert score_table(question, SITES) > score_table(question, VENDORS)

    def test_two_names_are_enough(self):
        narrow = make_schema("ppm", [("potassium", "DOUBLE")])
        scores = sorted(
            (name_match_score("potassium ppm", n) for n in ("ppm", "potassium")), reverse=True
        )
        assert score_table("potassium ppm", narrow) == sum(scores)
        assert 1.6 < sum(scores) <= 2.0  # full overlap on both, cosine below one


class TestChoosePrimaryTable:
    def test_prefers_the_table_holding_the_measure(self):
        question = "average potassium ppm for each site name"
        assert choose_primary_table(question, [SITES, READINGS, VENDORS]) is READINGS
        assert choose_primary_table(question, [READINGS, SITES]) is READINGS

    def test_measure_bonus_is_twice_the_measure_score(self):
        question = question_view("highest elevation of a site")
        scores = {
            schema.table: score_table(question, schema)
            + 2.0 * name_match_score(question, best_measure_column(question, schema).name)
            for schema in (SITES,)
        }
        assert best_measure_column(question, READINGS) is None  # ids and unrelated measures
        assert scores["sites"] > score_table(question, READINGS)
        assert choose_primary_table(question, [READINGS, SITES]) is SITES

    def test_first_of_equal_tables_wins_and_none_for_no_tables(self):
        twin = make_schema("water_readings", [(c.name, c.dtype) for c in READINGS.columns])
        assert choose_primary_table("average potassium ppm", [READINGS, twin]) is READINGS
        assert choose_primary_table("average potassium ppm", [twin, READINGS]) is twin
        assert choose_primary_table("average potassium ppm", []) is None

    def test_build_plan_accepts_text_or_view(self):
        text = "What is the average potassium ppm? Round your answer to 2 decimal places."
        from_text = build_plan(text, [SITES, READINGS])
        from_view = build_plan(question_view(text), [SITES, READINGS])
        assert from_text == from_view
        assert (from_text.table, from_text.measure, from_text.round_digits) == (
            "water_readings",
            "potassium_ppm",
            2,
        )


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
WORDS = [
    "site", "sites", "name", "reading", "readings", "potassium", "ppm", "station", "id", "ref",
    "custody", "vendor", "label", "temperature", "max", "pm25", "level", "recorded", "the", "of",
]  # fmt: skip
word = st.sampled_from(WORDS) | st.text(
    alphabet="abcdegilnoprstuy0123456789", min_size=1, max_size=9
)


def snake(parts):
    return "_".join(parts)


def camel(parts):
    return parts[0] + "".join(p[:1].upper() + p[1:] for p in parts[1:])


names = st.lists(word, min_size=0, max_size=4).flatmap(
    lambda parts: st.sampled_from([snake(parts), camel(parts), " ".join(parts)])
    if parts
    else st.just("_")
)
token_lists = st.lists(word, max_size=12).map(lambda ws: tokenize(" ".join(ws)))


@given(token_lists, names)
def test_lexicon_score_is_the_reference_float(tokens, name):
    want = reference_name_match_score(tokens, name)
    view = QuestionView(tokens)
    assert name_match_score(view, name) == want  # computed
    assert name_match_score(view, name) == want  # remembered on the view
    assert name_match_score(QuestionView(tokens), name) == want  # lexicon entry reused


@given(st.lists(word, max_size=12).map(" ".join), st.lists(names, min_size=1, max_size=6))
def test_score_table_is_the_reference_float(question, column_names):
    schema = make_schema(column_names[0], [(n, "DOUBLE") for n in column_names[1:]])
    assert score_table(question, schema) == reference_score_table(question, schema)


CUE_WORDS = [
    "average", "mean", "total", "sum", "assume", "how many", "number of", "count", "maximum",
    "max", "most", "almost", "min", "minimum", "median", "middle", "standard deviation",
    "relationship between", "overall amount", "overall", "Highest", "PEAK", "site", "of", "the",
]  # fmt: skip


@given(st.lists(st.sampled_from(CUE_WORDS), max_size=8).map(" ".join))
def test_precompiled_cues_keep_earliest_match_semantics(text):
    assert detect_aggregate(text) == reference_detect_aggregate(text)


# ----------------------------------------------------------------------
# The tables behind it
# ----------------------------------------------------------------------
class TestTables:
    @pytest.fixture
    def cold(self, monkeypatch):
        monkeypatch.setattr(semantics, "_LEXICON", semantics._Memo(bound=3))
        monkeypatch.setattr(semantics, "_QUESTIONS", semantics._Memo(bound=2))
        monkeypatch.setattr(semantics, "_TEXTS", semantics._Memo(bound=2))

    def test_question_memo_keeps_the_last_few_texts(self, cold):
        first = question_view("average potassium")
        assert question_view("average potassium") is first
        question_view("highest elevation")
        question_view("how many sites")
        assert cache_stats()["questions"] == {"hits": 1, "misses": 3, "size": 2}
        again = question_view("average potassium")  # evicted: rebuilt, equal
        assert again is not first and again.tokens == first.tokens

    def test_lexicon_is_bounded_and_eviction_does_not_change_scores(self, cold):
        question = "average potassium ppm per site name"
        names = ["potassium_ppm", "site_name", "turbidity", "elevation", "vendor_label"]
        want = [reference_name_match_score(tokenize(question), n) for n in names]
        for _ in range(2):
            assert [name_match_score(QuestionView(tokenize(question)), n) for n in names] == want
        stats = cache_stats()["lexicon"]
        assert stats["size"] == 3 and stats["misses"] == 10 and stats["hits"] == 0

    def test_entries_share_the_embedder_vectors(self):
        entry = name_entry("potassium_ppm")
        vector, norm = entry.embedding()
        assert vector is semantics._EMBEDDER.embed("potassium_ppm")  # no copy
        assert not vector.flags.writeable and norm == pytest.approx(1.0)
        assert entry.tokens == ("potassium", "ppm") and name_entry("potassium_ppm") is entry

    def test_document_token_sets(self, cold):
        assert text_token_set("") == frozenset()
        assert text_token_set("Readings recorded at sites") == frozenset(
            tokenize("Readings recorded at sites")
        )
        assert text_token_set("Readings at sites") is text_token_set("Readings at sites")

    def test_cache_stats_names_every_table(self):
        stats = cache_stats()
        assert set(stats) == {
            "lexicon", "questions", "texts", "embedding", "stems", "tokenize", "char_ngrams",
            "trigrams",
        }  # fmt: skip
        for counters in stats.values():
            assert set(counters) == {"hits", "misses", "size"}
