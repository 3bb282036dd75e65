"""A SQL result keeps the columns the engine built it from.

``run_plan`` hands its result the chunk's column lists as the
``as_columns()`` memo, and ``renamed()`` shares rows and memo with its
source.  These properties hold that memo to the rows it stands for, and
hold every consumer of a result — frames, profiling, narration — to
reading the shared lists only, never writing them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import DataFrame
from repro.prep import profile_tables
from repro.relational import Database, Table
from repro.retriever.summarizer import narrate_table

_KEYS = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
_NUMS = st.one_of(st.none(), st.integers(min_value=-3, max_value=3), st.sampled_from([-0.0, 1.5]))
_TEXT = st.one_of(st.none(), st.sampled_from(["a", "b", ""]))


@st.composite
def lakes(draw):
    """Tables ``a(k, x, s)`` and ``b(k, y)`` — zero rows allowed, NULLs and
    duplicate keys likely — plus the zero-column table ``z``."""
    n_a = draw(st.integers(min_value=0, max_value=6))
    n_b = draw(st.integers(min_value=0, max_value=5))
    db = Database("lake")
    db.register(
        Table.from_columns(
            "a",
            {
                "k": draw(st.lists(_KEYS, min_size=n_a, max_size=n_a)),
                "x": draw(st.lists(_NUMS, min_size=n_a, max_size=n_a)),
                "s": draw(st.lists(_TEXT, min_size=n_a, max_size=n_a)),
            },
        )
    )
    db.register(
        Table.from_columns(
            "b",
            {
                "k": draw(st.lists(_KEYS, min_size=n_b, max_size=n_b)),
                "y": draw(st.lists(_NUMS, min_size=n_b, max_size=n_b)),
            },
        )
    )
    db.register(Table.from_columns("z", {}))
    return db


QUERIES = [
    "SELECT * FROM a",
    "SELECT * FROM z",
    "SELECT COUNT(*) AS n FROM z",
    "SELECT 1 AS one, 'two' AS two",
    "SELECT x, k, x AS again FROM a",
    "SELECT s, k FROM a WHERE x > 0 OR s IS NULL",
    "SELECT * FROM a LIMIT 2",
    "SELECT k, x FROM a ORDER BY k, x LIMIT 3 OFFSET 1",
    "SELECT * FROM a LIMIT 0",
    "SELECT a.k, a.x, b.y FROM a JOIN b ON a.k = b.k",
    "SELECT a.s, b.y FROM a JOIN b ON a.k = b.k WHERE b.y IS NOT NULL LIMIT 4",
    "SELECT * FROM a LEFT JOIN b ON a.k = b.k",
    "SELECT k, COUNT(*) AS n, SUM(x) AS total FROM a GROUP BY k",
    "SELECT k, MAX(x) AS top FROM a GROUP BY k HAVING COUNT(*) > 1 ORDER BY k",
    "SELECT DISTINCT k FROM a",
    "SELECT k FROM a UNION SELECT k FROM b",
    "SELECT k, x FROM a UNION ALL SELECT k, y FROM b",
    "SELECT k FROM a INTERSECT SELECT k FROM b",
    "SELECT k FROM a EXCEPT SELECT k FROM b",
    "WITH c AS (SELECT k, x FROM a WHERE x IS NOT NULL) SELECT * FROM c ORDER BY x LIMIT 3",
    "WITH c AS (SELECT k FROM b) SELECT a.s, c.k FROM a JOIN c ON a.k = c.k",
]


def transpose(table):
    """The column lists a fresh pivot of ``table.rows`` gives."""
    if not table.rows:
        return [[] for _ in table.schema]
    return [list(column) for column in zip(*table.rows)]


def snapshot(table):
    return list(table.rows), [list(c) for c in table.as_columns()], table.digest()


@settings(max_examples=60, deadline=None)
@given(lakes())
def test_a_result_keeps_columns_that_are_its_rows(db):
    for sql in QUERIES:
        result = db.execute(sql)
        assert all(len(row) == result.num_columns for row in result.rows), sql
        assert result.as_columns() == transpose(result), sql
        assert result.as_columns() == Table("fresh", result.schema, result.rows).as_columns()

        target = result.renamed("target")
        assert target.name == "target"
        assert target == result
        assert target.as_columns() == transpose(result), sql
        assert target.digest() == Table("target", result.schema, result.rows).digest()


@settings(max_examples=40, deadline=None)
@given(lakes())
def test_readers_of_results_never_write_the_shared_columns(db):
    base = {table.name: snapshot(table) for table in db.tables()}
    results = [db.execute(sql).renamed(f"r{i}") for i, sql in enumerate(QUERIES)]
    before = [snapshot(result) for result in results]

    # The seeded path: a result becomes a target the next statement scans.
    staged = db.copy("staged")
    for result in results:
        staged.register(result)
    previews = [
        staged.execute(f"SELECT * FROM {r.name} LIMIT 5")
        for r in results
        if len({n.lower() for n in r.column_names()}) == r.num_columns  # `*` must bind
    ]

    profile_tables(results + previews)
    for table in results + previews:
        narrate_table(table)
        frame = DataFrame.from_table(table)
        frame.to_table(table.name)
        for name in frame.columns:
            column = frame[name]
            frame.groupby(name).agg(n=(name, "count"), low=(name, "min"))
            if all(v is None or type(v) in (int, float) for v in column):
                frame.groupby(name).agg(mid=(name, "median"))
                column.interpolate()
            frame = frame.assign(**{name: column.map(lambda v: v)})
        frame = frame.dropna()
        if frame.columns:
            first = frame.columns[0]
            frame = frame.sort_values(first).head(3)
            frame = frame.merge(DataFrame.from_table(table), on=first, how="left")
            frame.groupby(first).agg(n=(first, "count"))
        frame.to_table("out")

    for table in db.tables():
        rows, columns, digest = base[table.name]
        assert table.rows == rows and table.as_columns() == columns
        assert Table(table.name, table.schema, table.rows).digest() == digest
    for result, (rows, columns, digest) in zip(results, before):
        assert result.rows == rows and result.as_columns() == columns
        assert Table(result.name, result.schema, result.rows).digest() == digest
