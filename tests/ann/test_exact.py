"""The exact vector index: its contract, its build-once lifecycle, and the
arithmetic that makes every ranking exact."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from repro.ann import ExactIndex
from repro.ann.exact import _snap
from tests.oracles.scalar_metrics import snap, unit_vector


def build(n=80, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    index = ExactIndex(dim)
    vectors = rng.normal(size=(n, dim))
    for i, vec in enumerate(vectors):
        index.add(f"v{i}", vec)
    return index, vectors, rng


def pairs(hits):
    return [(h.key, h.distance) for h in hits]


class TestBasics:
    def test_empty_search(self):
        index = ExactIndex(4)
        assert index.search(np.zeros(4), k=3) == []

    def test_single_element(self):
        index = ExactIndex(4)
        index.add("only", np.ones(4))
        hits = index.search(np.zeros(4), k=3)
        assert [h.key for h in hits] == ["only"]

    def test_duplicate_key_raises(self):
        index = ExactIndex(4)
        index.add("a", np.ones(4))
        with pytest.raises(KeyError):
            index.add("a", np.zeros(4))

    def test_wrong_dim_raises(self):
        index = ExactIndex(4)
        with pytest.raises(ValueError):
            index.add("a", np.ones(5))
        with pytest.raises(ValueError):
            index.search(np.ones(5))

    def test_contains_len(self):
        index = ExactIndex(4)
        index.add("a", np.ones(4))
        assert "a" in index and len(index) == 1

    def test_inputs_are_not_mutated(self):
        index = ExactIndex(4)
        for vector in (np.array([3.0, 4.0, 0.0, 0.0]), np.zeros(4)):
            kept = vector.copy()
            index.add(f"k{len(index)}", vector)
            index.search(vector, k=2)
            index.search_batch([vector], k=2)
            assert np.array_equal(vector, kept)

    def test_integer_and_float32_vectors_rank_like_float64(self):
        rng = np.random.default_rng(6)
        vectors = rng.integers(-5, 6, size=(30, 6))
        index = ExactIndex(6)
        for i, vec in enumerate(vectors):
            index.add(f"v{i}", vec)
        for query in vectors[:5]:
            expected = pairs(index.search(query.astype(np.float64), k=6))
            assert pairs(index.search(query, k=6)) == expected
            assert pairs(index.search(query.astype(np.float32), k=6)) == expected

    def test_node_items_follow_insertion_order(self):
        index, _, _ = build(n=5)
        assert sorted(index.node_items(), key=lambda item: item[1]) == [
            (f"v{i}", i) for i in range(5)
        ]


class TestK:
    """``k`` is a count: negative raises, zero is empty, past ``n`` is all."""

    def test_negative_k_raises_on_every_search(self):
        index, vectors, _ = build(n=20)
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search(vectors[0], k=-1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search_batch(vectors[:2], k=-1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search_batch_ids(vectors[:2], k=-3)

    def test_negative_k_raises_on_an_empty_batch(self):
        with pytest.raises(ValueError):
            ExactIndex(4).search_batch_ids(np.zeros((0, 4)), k=-1)

    def test_zero_k(self):
        index, vectors, _ = build(n=20)
        assert index.search(vectors[0], k=0) == []
        assert [ids.size for ids in index.search_batch_ids(vectors[:3], k=0)] == [0, 0, 0]

    def test_k_equal_to_n(self):
        index, vectors, _ = build(n=20)
        (nodes,) = index.search_batch_ids(vectors[:1], k=20)
        assert sorted(nodes.tolist()) == list(range(20))

    def test_k_past_n_returns_everything_in_order(self):
        index, _, rng = build(n=20)
        hits = index.search(rng.normal(size=8), k=50)
        assert sorted(h.key for h in hits) == sorted(f"v{i}" for i in range(20))
        assert [h.distance for h in hits] == sorted(h.distance for h in hits)


class TestRanking:
    def test_exact_match_returned_first(self):
        index, vectors, _ = build(n=200, dim=16)
        for i in (0, 57, 123, 199):
            assert index.search(vectors[i], k=1)[0].key == f"v{i}"

    def test_distances_sorted(self):
        index, _, rng = build(n=80)
        distances = [h.distance for h in index.search(rng.normal(size=8), k=10)]
        assert distances == sorted(distances)

    def test_identical_vectors_tie_by_insertion_order(self):
        rng = np.random.default_rng(4)
        index = ExactIndex(6)
        shared = rng.normal(size=6)
        for i in range(40):
            index.add(f"v{i}", shared if i % 3 == 0 else rng.normal(size=6))
        hits = index.search(shared, k=14)
        assert [h.key for h in hits] == [f"v{i}" for i in range(0, 40, 3)]
        assert len({h.distance for h in hits}) == 1

    def test_ranks_by_direction_not_length(self):
        index = ExactIndex(2)
        index.add("long_and_off", np.array([100.0, 40.0]))
        index.add("short_and_on", np.array([0.01, 0.0]))
        index.add("opposite", np.array([-1.0, 0.0]))
        hits = index.search(np.array([5.0, 0.0]), k=3)
        assert [h.key for h in hits] == ["short_and_on", "long_and_off", "opposite"]
        assert hits[0].distance == 0.0 and hits[2].distance == 2.0

    def test_zero_vectors_are_at_distance_one(self):
        index, _, rng = build(n=10)
        index.add("zero", np.zeros(8))
        assert {h.distance for h in index.search(np.zeros(8), k=11)} == {1.0}
        (zero,) = [h for h in index.search(rng.normal(size=8), k=11) if h.key == "zero"]
        assert zero.distance == 1.0

    @pytest.mark.parametrize("dim", [2, 48, 192])
    def test_distances_are_exact_cosine_to_the_grid(self, dim):
        """Each distance is ``1 - cos`` computed in exact rational
        arithmetic over the normalised vectors, to within one grid step
        (the product's rounding is ~1e-16; the grid is 2**-40)."""
        index, _, rng = build(n=300, dim=dim)
        rows = index._matrix[: len(index)].tolist()
        for query in rng.normal(size=(3, dim)):
            unit = unit_vector(query).tolist()
            for hit in index.search(query, k=300):
                row = rows[int(hit.key[1:])]
                exact = 1 - sum(Fraction(x) * Fraction(y) for x, y in zip(row, unit))
                assert abs(Fraction(hit.distance) - exact) <= Fraction(1, 2**40)

    def test_array_snap_is_the_scalar_grid_form(self):
        values = np.concatenate(
            [
                np.random.default_rng(8).normal(scale=1e-6, size=2000),
                [0.5 * 2.0**-40, 1.5 * 2.0**-40, -(2.0**-60), 0.0, -0.0, 1.0, -1.0, 2.0],
            ]
        )
        snapped = _snap(values.copy())
        assert [v.hex() for v in snapped.tolist()] == [snap(v).hex() for v in values.tolist()]


class TestBatchAPI:
    def test_search_batch_matches_search(self):
        index, _, rng = build(n=60)
        queries = rng.normal(size=(5, 8))
        batched = index.search_batch(queries, k=4)
        ids = index.search_batch_ids(queries, k=4)
        for query, hits, nodes in zip(queries, batched, ids):
            assert pairs(hits) == pairs(index.search(query, k=4))
            assert [f"v{node}" for node in nodes.tolist()] == [h.key for h in hits]

    def test_search_batch_empty_index_and_batch(self):
        empty = ExactIndex(8)
        assert empty.search_batch(np.zeros((2, 8)), k=3) == [[], []]
        assert empty.search_batch(np.zeros((0, 8)), k=3) == []
        assert [ids.size for ids in empty.search_batch_ids(np.zeros((2, 8)), k=3)] == [0, 0]

    def test_search_batch_bad_shape(self):
        index, _, rng = build(n=10)
        with pytest.raises(ValueError):
            index.search_batch(rng.normal(size=(3, 4)), k=2)
        with pytest.raises(ValueError):
            index.search_batch_ids(rng.normal(size=(3, 4)), k=2)


class TestCompile:
    def test_search_while_growing(self):
        """Before compile the matrix grows by doubling; every search sees
        exactly the rows added so far."""
        rng = np.random.default_rng(9)
        index = ExactIndex(5)
        vectors = rng.normal(size=(70, 5))
        for i, vec in enumerate(vectors):
            index.add(f"v{i}", vec)
            (hits,) = index.search_batch([vec], k=200)
            assert len(hits) == i + 1 and hits[0].key == f"v{i}"

    def test_export_compiles_first(self):
        index, _, rng = build(n=40)
        export = index.export_compiled()
        assert export["matrix"].shape == (40, 8) and export["keys"][:2] == ["v0", "v1"]
        with pytest.raises(RuntimeError):
            index.add("late", rng.normal(size=8))

    def test_hydrated_index_is_the_exported_one(self):
        index, _, rng = build(n=40)
        export = index.export_compiled()
        hydrated = ExactIndex.hydrate_compiled(export["meta"], export["matrix"], export["keys"])
        queries = rng.normal(size=(6, 8))
        assert [pairs(h) for h in hydrated.search_batch(queries, k=7)] == [
            pairs(h) for h in index.search_batch(queries, k=7)
        ]
        with pytest.raises(RuntimeError, match="search-only"):
            hydrated.add("late", queries[0])

    def test_compile_preserves_results(self):
        index, _, rng = build()
        queries = rng.normal(size=(10, 8))
        before = index.search_batch(queries, k=5)
        assert index.compile() is index
        after = index.search_batch(queries, k=5)
        assert [pairs(hits) for hits in before] == [pairs(hits) for hits in after]

    def test_add_after_compile_raises(self):
        index, _, rng = build(n=30)
        index.compile()
        with pytest.raises(RuntimeError, match="search-only"):
            index.add("late", rng.normal(size=8))
        assert "late" not in index and len(index) == 30

    def test_compiled_matrix_is_compacted(self):
        index, _, _ = build(n=33)
        assert index._matrix.shape[0] >= 33  # doubling leaves headroom
        index.compile()
        assert index._matrix.shape == (33, 8)  # trimmed to live rows
        assert index._matrix.base is None  # a copy: the headroom is released


class TestConcurrentSearch:
    def test_searches_during_adds_see_whole_rows(self):
        """An unfrozen index may be searched while one writer adds: a search
        counts the keys before it reads the matrix, so every row it ranks
        is completely written."""
        rng = np.random.default_rng(10)
        vectors = rng.normal(size=(2000, 6))
        index = ExactIndex(6)
        done = threading.Event()
        seen = []

        def writer():
            for i, vec in enumerate(vectors):
                if i % 100 == 0:  # at least one search between every hundred adds
                    searches, deadline = len(seen), time.monotonic() + 10
                    while len(seen) == searches and time.monotonic() < deadline:
                        time.sleep(0)
                index.add(f"v{i}", vec)
            done.set()

        probe = rng.normal(size=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=writer)
            thread.start()
            while not done.is_set():
                seen.append(index.search(probe, k=4))
            thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and len(index) == 2000
        assert len({len(hits) for hits in seen}) > 1  # some searches ran mid-build
        # an unwritten row would rank at a garbage distance
        final = {h.key: h.distance for h in index.search(probe, k=2000)}
        for hit in (hit for hits in seen for hit in hits):
            assert abs(hit.distance - final[hit.key]) <= 2**-40

    def test_parallel_searches_match_serial(self):
        """A compiled index is read-only: concurrent searches need no lock."""
        index, _, rng = build(n=200, dim=12)
        index.compile()
        queries = rng.normal(size=(40, 12))
        serial = [pairs(index.search(q, k=5)) for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda q: pairs(index.search(q, k=5)), queries))
        assert parallel == serial
