"""Alignment compiler: spec -> SQL preparation plan, and its refusals."""

import pytest

from repro.core import TargetColumn, TargetTable
from repro.prep import AlignmentCompiler, AlignmentError, PreparationPipeline
from repro.relational import Database, PlanCache, Table, parser


@pytest.fixture
def lake():
    db = Database("shop")
    db.register(
        Table.from_columns(
            "customers",
            {
                "cust_id": list(range(100, 160)),
                "region": [f"region-{i % 4}" for i in range(60)],
            },
        )
    )
    db.register(
        Table.from_columns(
            "orders",
            {
                "order_id": list(range(5000, 5090)),
                "cust_ref": [100 + (i % 60) for i in range(90)],
                "amount": [float(10 * i) for i in range(90)],
            },
        )
    )
    db.register(
        Table.from_columns(
            "shipments",
            {
                "shipment_id": list(range(900, 960)),
                "order_ref": [5000 + (i % 90) for i in range(60)],
                "weight": [float(i) for i in range(60)],
            },
        )
    )
    return db


@pytest.fixture
def compiler(lake):
    return AlignmentCompiler(lake, PreparationPipeline(lake).join_candidates())


def spec(name, columns, base=(), integration=None):
    return TargetTable(
        name=name,
        columns=[TargetColumn(name=c, source=s) for c, s in columns],
        base_tables=list(base),
        integration=dict(integration or {}),
    )


class TestCompile:
    def test_single_table_projection(self, compiler, lake):
        plan = compiler.compile(
            spec("order_view", [("order_id", ""), ("amount", "")], base=["orders"])
        )
        assert plan.tables == ["orders"]
        assert plan.joins == []
        table = compiler.execute(plan)
        assert table.name == "order_view"
        assert table.num_rows == 90
        assert table.column_names() == ["order_id", "amount"]

    def test_discovered_join_path(self, compiler):
        plan = compiler.compile(
            spec(
                "enriched",
                [("amount", "orders.amount"), ("region", "customers.region")],
            )
        )
        assert set(plan.tables) == {"orders", "customers"}
        assert len(plan.joins) == 1
        edge = plan.joins[0]
        assert {edge.left_column, edge.right_column} == {"cust_ref", "cust_id"}
        table = compiler.execute(plan)
        assert table.column_names() == ["amount", "region"]
        assert table.num_rows == 90  # every order matches exactly one customer

    def test_multi_hop_join_path(self, compiler):
        plan = compiler.compile(
            spec(
                "chain",
                [("weight", "shipments.weight"), ("region", "customers.region")],
            )
        )
        # shipments reach customers only through orders.
        assert set(plan.tables) == {"shipments", "orders", "customers"}
        assert len(plan.joins) == 2
        assert compiler.execute(plan).num_rows == 60

    def test_qualified_source_resolution(self, compiler):
        plan = compiler.compile(spec("t", [("x", "orders.amount")]))
        assert plan.column_map == [("x", "orders", "amount")]

    def test_bare_source_prefers_base_tables(self, compiler):
        # 'order_id' exists in orders only; base_tables guides the search.
        plan = compiler.compile(spec("t", [("order_id", "")], base=["orders"]))
        assert plan.column_map[0][1] == "orders"

    def test_join_hint_forces_edge(self, lake):
        # No discovered candidates at all: the hint alone must connect.
        compiler = AlignmentCompiler(lake, [])
        plan = compiler.compile(
            spec(
                "hinted",
                [("amount", "orders.amount"), ("region", "customers.region")],
                base=["orders"],
                integration={
                    "join": {"table": "customers", "left_on": "cust_ref", "right_on": "cust_id"}
                },
            )
        )
        assert plan.joins[0].condition() == "orders.cust_ref = customers.cust_id"

    def test_key_like_edge_beats_category_tie(self):
        # Both 'zone' (4 distinct) and the id FK have containment 1.0;
        # joining on the category would fan 90 orders out to thousands
        # of rows.  The higher-cardinality key column must win the tie.
        db = Database("tie")
        db.register(
            Table.from_columns(
                "customers",
                {
                    "cust_id": list(range(60)),
                    "zone": [f"z{i % 4}" for i in range(60)],
                },
            )
        )
        db.register(
            Table.from_columns(
                "orders",
                {
                    "cust_ref": [i % 60 for i in range(90)],
                    "zone": [f"z{i % 4}" for i in range(90)],
                    "amount": [float(i) for i in range(90)],
                },
            )
        )
        compiler = AlignmentCompiler(db, PreparationPipeline(db).join_candidates())
        plan = compiler.compile(
            spec("t", [("amount", "orders.amount"), ("cust_id", "customers.cust_id")])
        )
        assert {plan.joins[0].left_column, plan.joins[0].right_column} == {
            "cust_ref",
            "cust_id",
        }
        assert compiler.execute(plan).num_rows == 90


class TestRefusals:
    def test_empty_spec(self, compiler):
        with pytest.raises(AlignmentError, match="no columns"):
            compiler.compile(spec("t", []))

    def test_web_provenance(self, compiler):
        with pytest.raises(AlignmentError, match="provenance"):
            compiler.compile(spec("t", [("tariff", "web:tariff-schedule")]))

    def test_unsupported_integration_hint(self, compiler):
        with pytest.raises(AlignmentError, match="materialization loop"):
            compiler.compile(
                spec("t", [("amount", "orders.amount")], integration={"interpolate": {}})
            )

    def test_unknown_column(self, compiler):
        with pytest.raises(AlignmentError, match="no lake column"):
            compiler.compile(spec("t", [("nonexistent", "")]))

    def test_unknown_source_table(self, compiler):
        with pytest.raises(AlignmentError, match="not in the lake"):
            compiler.compile(spec("t", [("x", "ghost.amount")]))

    def test_ambiguous_bare_column(self, lake, compiler):
        # 'region' only in customers, but add a second table that has it too.
        lake.register(
            Table.from_columns("zones", {"region": [f"region-{i}" for i in range(10)]})
        )
        try:
            with pytest.raises(AlignmentError, match="ambiguous"):
                compiler.compile(spec("t", [("region", "")]))
        finally:
            lake.drop_table("zones")

    def test_disconnected_tables(self, lake):
        lake.register(Table.from_columns("island", {"iso": [f"x{i}" for i in range(20)]}))
        try:
            compiler = AlignmentCompiler(lake, [])
            with pytest.raises(AlignmentError, match="no discovered join path"):
                compiler.compile(
                    spec("t", [("amount", "orders.amount"), ("iso", "island.iso")])
                )
        finally:
            lake.drop_table("island")

    def test_duplicate_target_columns(self, compiler):
        with pytest.raises(AlignmentError, match="duplicate"):
            compiler.compile(
                spec("t", [("amount", "orders.amount"), ("AMOUNT", "orders.amount")])
            )


class TestPlantedChains:
    """Alignment on generated 3-hop planted chains (scenario ground truth)."""

    @pytest.fixture
    def scenario(self):
        from repro.scenarios import ScenarioCell, build_scenario

        cell = ScenarioCell(
            endpoint_known=True,
            relation_known=True,
            hops=3,
            intent="enrich",
            entity_class="subject",
            relation_type="custody",
        )
        return build_scenario(cell, seed=13)

    def endpoint_spec(self, scenario):
        (root, root_col), (deep, deep_col) = scenario.request_columns()
        return spec(
            f"linked_{root}_{deep}",
            [(root_col, f"{root}.{root_col}"), (deep_col, f"{deep}.{deep_col}")],
            base=[root, deep],
        )

    def test_three_hop_chain_connects_through_both_bridges(self, scenario):
        compiler = AlignmentCompiler(
            scenario.lake, PreparationPipeline(scenario.lake).join_candidates()
        )
        plan = compiler.compile(self.endpoint_spec(scenario))
        assert set(plan.tables) == set(scenario.chain)  # all 4 chain tables
        assert len(plan.joins) == 3
        compiled = {
            frozenset([(j.left_table, j.left_column), (j.right_table, j.right_column)])
            for j in plan.joins
        }
        assert compiled == scenario.expected_edges()

    def test_three_hop_rows_match_planted_join_oracle(self, scenario):
        compiler = AlignmentCompiler(
            scenario.lake, PreparationPipeline(scenario.lake).join_candidates()
        )
        table = compiler.execute(compiler.compile(self.endpoint_spec(scenario)))
        (_, root_col), (_, deep_col) = scenario.request_columns()
        got = sorted(
            zip(table.column_values(root_col), table.column_values(deep_col)), key=repr
        )
        assert got == sorted(scenario.oracle_rows(), key=repr)

    def test_distractor_bridge_is_not_a_join_path(self):
        # break_chain drops the true first bridge; the remaining
        # "<bridge>_archive" distractor mimics its name and foreign-key
        # column but draws values from a disjoint domain, so discovery
        # finds no containment and alignment must refuse rather than
        # compile a textually plausible, relationally dead hop.
        from repro.scenarios import ScenarioCell, build_scenario

        cell = ScenarioCell(
            endpoint_known=True,
            relation_known=True,
            hops=3,
            intent="enrich",
            entity_class="subject",
            relation_type="custody",
        )
        scenario = build_scenario(cell, seed=13, break_chain=True)
        assert not scenario.lake.has_table(scenario.chain[1])
        assert any(d.endswith("_archive") for d in scenario.distractors)
        compiler = AlignmentCompiler(
            scenario.lake, PreparationPipeline(scenario.lake).join_candidates()
        )
        with pytest.raises(AlignmentError, match="no discovered join path"):
            compiler.compile(self.endpoint_spec(scenario))


class TestPipelineFacade:
    def test_prepare_compiles_and_executes(self, lake):
        pipeline = PreparationPipeline(lake)
        plan, table = pipeline.prepare(
            spec("view", [("order_id", ""), ("amount", "")], base=["orders"])
        )
        assert table.name == "view"
        assert table.num_rows == 90
        stats = pipeline.stats()
        assert stats["plans_compiled"] == 1
        assert stats["plans_executed"] == 1
        assert pipeline.store.stats()["size"] == 3

    def test_compiler_is_kept_for_its_catalog(self, lake):
        pipeline = PreparationPipeline(lake)
        compiler = pipeline.compiler()
        assert pipeline.compiler() is compiler
        pipeline.prepare(spec("view", [("order_id", ""), ("amount", "")], base=["orders"]))
        assert pipeline.compiler() is compiler  # prepare()/compile() reuse it
        assert pipeline.stats()["discoveries"] == 1

        # A new table the graph must now reach: the next catalog's successor
        # discovers it; the pipeline itself never looks past its own picture.
        lake.register(
            Table.from_columns(
                "returns",
                {
                    "return_id": list(range(60)),
                    "shipment_ref": [900 + i for i in range(60)],
                    "reason": [f"reason-{i % 3}" for i in range(60)],
                },
            )
        )
        assert pipeline.compiler() is compiler
        successor = pipeline.successor(lake)
        recompiled = successor.compiler()
        assert recompiled is not compiler
        assert successor.compiler() is recompiled
        assert pipeline.stats()["discoveries"] == 2  # the counters are shared
        joined = spec(
            "returned", [("weight", "shipments.weight"), ("reason", "returns.reason")]
        )
        with pytest.raises(AlignmentError, match="no discovered join path"):
            compiler.compile(joined)  # the graph compiled before `returns` existed
        assert [e.condition() for e in recompiled.compile(joined).joins] == [
            "shipments.shipment_id = returns.shipment_ref"
        ]

    def test_unchanged_lake_never_consults_the_store(self, lake):
        pipeline = PreparationPipeline(lake)
        view = spec("view", [("order_id", ""), ("amount", "")], base=["orders"])
        pipeline.prepare(view)
        store, compiler = pipeline.store.stats(), pipeline.compiler()
        assert (store["hits"], store["misses"]) == (0, 3)
        for _ in range(5):
            pipeline.prepare(view)
        # The catalog was profiled and discovered once: not one store hit more.
        assert pipeline.store.stats() == store
        assert pipeline.stats()["discoveries"] == 1

        # One changed table: the successor over the next catalog costs one
        # rediscovery with one store miss.
        orders = lake.resolve_table("orders")
        changed = lake.copy()
        changed.register(Table(orders.name, orders.schema, orders.rows[:-1]), replace=True)
        successor = pipeline.successor(changed)
        for _ in range(2):
            _, table = successor.prepare(view)
        assert table.num_rows == 89
        after = pipeline.store.stats()
        assert (after["hits"], after["misses"], after["size"]) == (2, 4, 3)
        assert pipeline.stats()["discoveries"] == 2
        assert successor.compiler() is not compiler
        assert pipeline.prepare(view)[1].num_rows == 90  # its own picture is unchanged

    def test_join_hint_does_not_leak_into_the_kept_graph(self, lake):
        pipeline = PreparationPipeline(lake)
        hinted = spec(
            "forced",
            [("region", "customers.region"), ("weight", "shipments.weight")],
            integration={"join": {"table": "shipments", "left_on": "cust_id", "right_on": "shipment_id"}},
        )
        plain = spec("plain", [("region", "customers.region"), ("weight", "shipments.weight")])
        before = [e.condition() for e in pipeline.compile(plain).joins]
        assert [e.condition() for e in pipeline.compile(hinted).joins] == [
            "customers.cust_id = shipments.shipment_id"
        ]
        assert [e.condition() for e in pipeline.compile(plain).joins] == before
        assert len(before) == 2  # customers - orders - shipments, as discovered


class TestPlanOnce:
    """A seeded materialization parses and plans its SQL once: compile()
    plans into the lake's plan cache under the key execute() looks up."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        parse_script = parser.parse_script

        def counting(sql):
            calls.append(sql)
            return parse_script(sql)

        monkeypatch.setattr(parser, "parse_script", counting)
        return calls

    @pytest.fixture
    def cache(self, lake):
        cache = PlanCache()
        lake.share_plan_cache(cache)
        return cache

    def test_one_parse_and_one_hit_per_prepare(self, lake, cache, parses):
        pipeline = PreparationPipeline(lake)
        pipeline.join_candidates()
        parses.clear()
        plan, table = pipeline.prepare(
            spec("enriched", [("amount", "orders.amount"), ("region", "customers.region")])
        )
        assert parses == [plan.sql]
        # The statement's one lookup is the execute's, and it hits.
        assert (cache.hits, cache.misses) == (1, 0)
        assert table.name == "enriched" and table.num_rows == 90

        pipeline.prepare(spec("again", [("order_id", ""), ("amount", "")], base=["orders"]))
        assert len(parses) == 2 and (cache.hits, cache.misses) == (2, 0)

    def test_a_catalog_change_before_execute_replans(self, lake, cache, parses):
        compiler = AlignmentCompiler(lake, [])
        plan = compiler.compile(spec("v", [("order_id", ""), ("amount", "")], base=["orders"]))
        # Same table name, columns in another order: the compiled plan's
        # positions would read amount as order_id.
        lake.register(
            Table.from_columns("orders", {"amount": [1.5], "cust_ref": [100], "order_id": [7]})
        )
        assert compiler.execute(plan).rows == [(7, 1.5)]
        assert parses == [plan.sql, plan.sql]
        assert (cache.hits, cache.misses) == (0, 1)
