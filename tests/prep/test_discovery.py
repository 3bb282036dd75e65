"""Join discovery: planted-truth recovery and sketch-vs-exact agreement."""

import pytest

from repro.datasets.generator import build_planted_catalog
from repro.prep import PreparationPipeline, ProfileStore, discover_join_candidates
from repro.relational import Database, Table
from tests.oracles.exact_sets import candidate_keys, exact_join_candidates


@pytest.fixture(scope="module")
def planted():
    return build_planted_catalog(seed=11, n_tables=10, rows=600)


class TestPlantedRecovery:
    def test_sketch_recovers_every_planted_join(self, planted):
        lake, truth = planted
        profiles = ProfileStore().profile_catalog(lake)
        found = candidate_keys(discover_join_candidates(profiles))
        missing = [t for t in truth if t not in found]
        assert not missing, f"sketch discovery missed planted joins: {missing}"

    def test_exact_recovers_every_planted_join(self, planted):
        lake, truth = planted
        found = candidate_keys(exact_join_candidates(lake))
        assert all(t in found for t in truth)

    @pytest.mark.parametrize("seed", [3, 7, 42])
    def test_recovery_across_seeds(self, seed):
        lake, truth = build_planted_catalog(seed=seed, n_tables=6, rows=400)
        profiles = ProfileStore().profile_catalog(lake)
        found = candidate_keys(discover_join_candidates(profiles))
        assert all(t in found for t in truth)

    def test_sketch_agrees_with_exact(self, planted):
        lake, _ = planted
        profiles = ProfileStore().profile_catalog(lake)
        sketch = {c.key(): c for c in discover_join_candidates(profiles)}
        exact = {c.key(): c for c in exact_join_candidates(lake)}
        # Every exact candidate the threshold admits is found, and the
        # estimated scores track the exact ones.
        missed = set(exact) - set(sketch)
        assert not missed, f"sketch path missed exact candidates: {sorted(missed)}"
        for key in exact:
            assert sketch[key].containment == pytest.approx(
                exact[key].containment, abs=0.2
            )


class TestDiscoveryBehavior:
    def test_candidates_are_ranked_by_containment(self, planted):
        lake, _ = planted
        profiles = ProfileStore().profile_catalog(lake)
        candidates = discover_join_candidates(profiles)
        scores = [(c.containment, c.jaccard) for c in candidates]
        assert scores == sorted(scores, key=lambda s: (-s[0], -s[1]))

    def test_no_same_table_candidates(self, planted):
        lake, _ = planted
        profiles = ProfileStore().profile_catalog(lake)
        assert all(
            c.left_table != c.right_table
            for c in discover_join_candidates(profiles)
        )

    def test_type_families_never_mix(self):
        lake = Database("mix")
        lake.register(Table.from_columns("nums", {"v": list(range(100))}))
        lake.register(Table.from_columns("words", {"v": [str(i) for i in range(100)]}))
        profiles = ProfileStore().profile_catalog(lake)
        assert discover_join_candidates(profiles) == []

    def test_min_containment_threshold(self):
        lake = Database("thresh")
        lake.register(Table.from_columns("parent", {"pid": list(range(200))}))
        lake.register(
            Table.from_columns("child", {"ref": [i % 250 for i in range(200)]})
        )
        profiles = ProfileStore().profile_catalog(lake)
        strict = discover_join_candidates(profiles, min_containment=0.99)
        loose = discover_join_candidates(profiles, min_containment=0.3)
        assert len(loose) >= len(strict)

    def test_low_distinct_columns_skipped(self):
        lake = Database("flags")
        lake.register(Table.from_columns("a", {"flag": [1] * 100}))
        lake.register(Table.from_columns("b", {"flag": [1] * 100}))
        profiles = ProfileStore().profile_catalog(lake)
        assert discover_join_candidates(profiles) == []


    def test_measurement_columns_are_never_keys(self):
        """Two columns of two-decimal readings overlap almost fully; neither
        is a key.  Integral doubles still join INTEGER keys."""
        readings = [round(i * 0.25, 2) for i in range(400)]
        lake = Database("measures")
        lake.register(Table.from_columns("a", {"id": list(range(400)), "reading": readings}))
        lake.register(
            Table.from_columns(
                "b", {"a_ref": [float(i) for i in range(400)], "level": readings[::-1]}
            )
        )
        profiles = ProfileStore().profile_catalog(lake)
        assert profiles["a"].column("reading").fractional
        assert not profiles["b"].column("a_ref").fractional
        found = candidate_keys(discover_join_candidates(profiles))
        assert found == {("a", "id", "b", "a_ref"), ("b", "a_ref", "a", "id")}
        assert found == candidate_keys(exact_join_candidates(lake))


class TestPipelineCaching:
    def test_warm_rediscovery_skips_profile_builds(self, planted):
        lake, _ = planted
        pipeline = PreparationPipeline(lake)
        cold = pipeline.join_candidates()
        before = pipeline.store.stats()["misses"]
        warm = pipeline.join_candidates()
        assert warm is cold  # cached list, not a re-enumeration
        assert pipeline.store.stats()["misses"] == before
        assert pipeline.stats()["discoveries"] == 1

    def test_lake_change_invalidates_candidates(self, planted):
        lake, _ = planted
        pipeline = PreparationPipeline(lake)
        cold = pipeline.join_candidates()
        extra_ids = [9_900_000 + i for i in range(600)]
        lake.register(Table.from_columns("extra", {"extra_id": extra_ids}))
        try:
            warm = pipeline.join_candidates()
            assert warm is not cold
            assert pipeline.stats()["discoveries"] == 2
        finally:
            lake.drop_table("extra")
