"""Unit tests for the benchmark datasets (shape, determinism, ground truth)."""

import pytest

from repro.datasets import (
    TARIFF_RECORDS,
    answers_match,
    build_procurement_lake,
    build_tariff_web,
    load_archaeology,
    load_environment,
    tariff_impact_ground_truth,
)


@pytest.fixture(scope="module")
def arch():
    return load_archaeology(scale=0.02)


@pytest.fixture(scope="module")
def env():
    return load_environment(scale=0.02)


class TestShape:
    def test_archaeology_table1_shape(self, arch):
        stats = arch.table_stats()
        assert stats["num_tables"] == 5
        assert stats["avg_cols"] == 16.0
        assert stats["num_questions"] == 12

    def test_environment_table1_shape(self, env):
        stats = env.table_stats()
        assert stats["num_tables"] == 36
        assert stats["avg_cols"] == 10.0
        assert stats["num_questions"] == 20

    def test_full_scale_row_counts_match_paper(self):
        # Row counts at scale=1.0 must average to the paper's Table 1 values;
        # verify arithmetically without building the full lakes.
        arch_rows = [24_000, 20_000, 150, 9_000, 3_295]
        assert round(sum(arch_rows) / len(arch_rows)) == 11_289
        env_rows = [12_000] * 12 + [8_000] * 12 + [9_076] + [9_072] * 9 + [400, 40]
        assert round(sum(env_rows) / len(env_rows)) == 9_199

    def test_question_design_mix(self, arch, env):
        arch_designs = [q.design for q in arch.questions]
        assert arch_designs.count("both") == 3
        assert arch_designs.count("seeker") == 3
        assert arch_designs.count("none") == 6
        env_designs = [q.design for q in env.questions]
        assert env_designs.count("both") == 4
        assert env_designs.count("seeker") == 7
        assert env_designs.count("none") == 9


class TestDeterminism:
    def test_same_seed_same_lake(self):
        a = load_archaeology(scale=0.02, seed=7)
        b = load_archaeology(scale=0.02, seed=7)
        ta = a.lake.resolve_table("field_samples")
        tb = b.lake.resolve_table("field_samples")
        assert ta.rows[:50] == tb.rows[:50]

    def test_different_seed_differs(self):
        a = load_archaeology(scale=0.02, seed=7)
        b = load_archaeology(scale=0.02, seed=8)
        assert (
            a.lake.resolve_table("field_samples").rows
            != b.lake.resolve_table("field_samples").rows
        )


class TestGroundTruth:
    def test_all_archaeology_truths_computable(self, arch):
        for q in arch.questions:
            truth = q.ground_truth(arch.lake)
            assert truth is not None, q.qid

    def test_all_environment_truths_computable(self, env):
        for q in env.questions:
            truth = q.ground_truth(env.lake)
            assert truth is not None, q.qid

    def test_region_argmax_is_string(self, env):
        q = next(x for x in env.questions if x.qid == "env-13")
        assert isinstance(q.ground_truth(env.lake), str)

    def test_sample_visibility_contract(self, arch):
        """The design contract: 'Bronze' is sample-visible, 'Hellenistic' is not."""
        artifacts = arch.lake.resolve_table("artifacts")
        idx_mat = artifacts.schema.index_of("material")
        idx_per = artifacts.schema.index_of("period")
        first3_materials = {r[idx_mat] for r in artifacts.rows[:3]}
        first3_periods = {r[idx_per] for r in artifacts.rows[:3]}
        assert "Bronze" in first3_materials
        assert "Hellenistic" not in first3_periods

    def test_interpolation_changes_the_answer(self, env):
        """env-05's boundary rows include a NULL, so interpolation matters."""
        lake = env.lake
        q5 = next(x for x in env.questions if x.qid == "env-05")
        interpolated = q5.ground_truth(lake)
        raw = lake.query_value(
            "SELECT ROUND(AVG(dissolved_oxygen), 4) FROM water_quality_2016 "
            "WHERE sample_date = (SELECT MIN(sample_date) FROM water_quality_2016) "
            "OR sample_date = (SELECT MAX(sample_date) FROM water_quality_2016)"
        )
        assert interpolated != raw


class TestAnswersMatch:
    def test_numeric_tolerance(self):
        assert answers_match(100.0, 100.0 + 1e-8)
        assert not answers_match(100.0, 101.0)

    def test_zero_expected(self):
        assert answers_match(0, 0.0)
        assert not answers_match(0, 0.5)

    def test_none_matching(self):
        assert answers_match(None, None)
        assert not answers_match(1.0, None)

    def test_string_answers(self):
        assert answers_match("coastal", "coastal")
        assert not answers_match("coastal", "inland")

    def test_bool_is_not_numeric(self):
        assert not answers_match(1.0, True)


class TestProcurement:
    def test_lake_contents(self):
        lake = build_procurement_lake(scale=0.1)
        assert set(lake.table_names()) == {
            "department_budgets", "purchase_orders", "suppliers",
        }

    def test_web_corpus_searchable(self):
        web = build_tariff_web()
        (docs,) = web.search_batch(["new import tariff rates by country"], k=1)
        assert docs[0].payload["records"] == TARIFF_RECORDS

    def test_tariff_ground_truth(self):
        lake = build_procurement_lake(scale=0.1)
        new_cost, delta = tariff_impact_ground_truth(lake, "Germany")
        avg = lake.query_value(
            "SELECT AVG(price) FROM purchase_orders WHERE country = 'Germany'"
        )
        assert new_cost == pytest.approx(avg * 1.10)
        assert delta == pytest.approx(avg * 0.10)
