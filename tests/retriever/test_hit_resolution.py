"""A retriever's Documents equal the per-hit oracle's
(``tests.oracles.retriever_per_hit``): the kept per-document entries
serve the same doc ids, titles, texts, payloads, scores and degraded
flags as a catalog lookup, a payload-cache ``get`` and a narration lookup
per hit — over batches with repeated queries, queries of unknown words
only and ``""``, every mode, ``k`` from 0 past the document count, a
frozen and an unfrozen index, and the vector breaker open.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import build_procurement_lake
from repro.datasets.generator import build_planted_catalog
from repro.relational.table import Table
from repro.retriever import PneumaRetriever
from repro.retriever.summarizer import table_payload
from repro.service import CircuitBreaker, build_shared_retriever
from tests.oracles.retriever_per_hit import PerHitResolver

LAKE, _ = build_planted_catalog(seed=7, n_tables=24, rows=8)
N_DOCS = len(LAKE.tables())

#: The words of the catalog's table and column names, and words it lacks.
WORDS = sorted(
    {word for table in LAKE.tables() for name in [table.name, *table.column_names()]
     for word in name.split("_")}
)
UNKNOWN = ["zqxv", "wvvk", "qqqj"]


def open_breaker() -> CircuitBreaker:
    breaker = CircuitBreaker("vector", failure_threshold=1, recovery_seconds=1e9)
    breaker.record_failure()
    assert not breaker.allow()
    return breaker


RETRIEVERS = {
    "frozen": build_shared_retriever(LAKE),
    "unfrozen": PneumaRetriever(LAKE),
    "breaker-open": build_shared_retriever(LAKE, vector_breaker=open_breaker()),
}
ORACLES = {name: PerHitResolver(retriever) for name, retriever in RETRIEVERS.items()}

queries = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(UNKNOWN), min_size=1, max_size=2).map(" ".join),
    st.lists(st.sampled_from(WORDS + UNKNOWN), min_size=1, max_size=5).map(" ".join),
)
# Repeats: a batch draws from a small pool of queries, with replacement.
batches = st.lists(queries, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    batch=batches,
    k=st.sampled_from([0, 1, 6, N_DOCS + 3]),
    mode=st.sampled_from(["hybrid", "bm25", "vector"]),
    which=st.sampled_from(sorted(RETRIEVERS)),
)
def test_documents_equal_the_per_hit_oracle(batch, k, mode, which):
    got = RETRIEVERS[which].search_batch(batch, k=k, mode=mode)
    assert got == ORACLES[which].search_batch(batch, k=k, mode=mode)
    if which == "breaker-open" and mode == "hybrid":
        assert all(doc.degraded for docs in got for doc in docs)
    else:
        assert not any(doc.degraded for docs in got for doc in docs)


@pytest.mark.parametrize("edit", ["replace", "drop", "rename-case"])
def test_an_edited_catalog_equals_the_oracle(edit):
    """A standalone retriever over a catalog edited after its build: a
    replaced table gets a fresh payload, a dropped one is skipped."""
    lake = build_procurement_lake()
    retriever = PneumaRetriever(lake)
    oracle = PerHitResolver(retriever)
    batch = ["supplier names and countries", "purchase orders by supplier", "budgets"]
    before = retriever.search_batch(batch, k=3)
    assert before == oracle.search_batch(batch, k=3)
    assert any(doc.title == "suppliers" for docs in before for doc in docs)
    table = lake.resolve_table("suppliers")
    if edit == "replace":
        lake.register(Table.from_columns("suppliers", {"supplier": ["ACME"]}))
    elif edit == "drop":
        lake.drop_table("suppliers")
    else:
        lake.register(Table("SUPPLIERS", table.schema, table.rows))
    after = retriever.search_batch(batch, k=3)
    assert after == oracle.search_batch(batch, k=3)
    served = {doc.title.lower(): doc for docs in after for doc in docs}
    if edit == "drop":
        assert "suppliers" not in served
    else:
        current = lake.resolve_table("suppliers")
        assert served["suppliers"].title == current.name
        assert served["suppliers"].payload == table_payload(current)
