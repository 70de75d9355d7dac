"""Tests for the sparse neighbor-graph planning subsystem.

The contract under test is *equivalence*: for any input, planning over the
sparse blocked path (forced via ``NeighborPlanner(dense_threshold=0)``) must
produce exactly the plans of the historical dense-matrix path — DBSCAN
labels, covering selections, set-cover solutions and end-to-end pipeline
results alike.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.batching.base import QuestionBatch
from repro.batching.diversity_batching import DiversityQuestionBatcher
from repro.clustering.dbscan import DBSCAN
from repro.clustering.distance import cross_distances, pairwise_distances
from repro.clustering.neighbors import (
    LSHConfig,
    NeighborGraph,
    NeighborPlanner,
    build_cross_neighbor_graph,
    build_lsh_neighbor_graph,
    build_neighbor_graph,
    default_planner,
    sample_percentile_radius,
)
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.selection.covering import CoveringSelector

SPARSE = dict(dense_threshold=0, block_size=13)


def random_features(seed, n=None, d=None, degenerate=True):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 120))
    d = d if d is not None else int(rng.integers(1, 9))
    features = rng.normal(size=(n, d))
    if degenerate:
        if seed % 4 == 0:
            features[: n // 3] = features[0]  # duplicate rows
        if seed % 7 == 0:
            features[:] = 0.0  # all-zero vectors
        elif seed % 5 == 0:
            features[n // 2 :] = 0.0  # mixed zero rows
    return features


def make_pair(index, label=MatchLabel.MATCH):
    values = {"name": f"item {index}", "price": str(index)}
    return EntityPair(
        pair_id=f"p{index}",
        left=Record(record_id=f"l{index}", values=values),
        right=Record(record_id=f"r{index}", values=values),
        label=label,
    )


class TestNeighborGraph:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_blocked_graph_matches_dense_adjacency(self, metric, inclusive):
        for seed in range(8):
            features = random_features(seed)
            distances = pairwise_distances(features, metric=metric)
            positive = distances[distances > 0]
            radius = float(np.median(positive)) if positive.size else 0.5
            graph = build_neighbor_graph(
                features, radius, metric=metric, inclusive=inclusive, block_size=7
            )
            dense = NeighborGraph.from_dense(
                distances, radius, metric=metric, inclusive=inclusive
            )
            assert np.array_equal(graph.indptr, dense.indptr)
            assert np.array_equal(graph.indices, dense.indices)

    def test_neighbors_sorted_and_self_excluded(self):
        features = random_features(3)
        graph = build_neighbor_graph(features, 1.0, block_size=5)
        for row in range(graph.num_rows):
            neighbours = graph.neighbors(row)
            assert row not in neighbours
            assert np.array_equal(neighbours, np.sort(neighbours))

    def test_empty_and_single_point(self):
        empty = build_neighbor_graph(np.zeros((0, 3)), 1.0)
        assert empty.num_rows == 0 and empty.num_edges == 0
        single = build_neighbor_graph(np.zeros((1, 3)), 1.0)
        assert single.num_rows == 1 and single.num_edges == 0

    def test_transpose_roundtrip(self):
        features = random_features(9)
        graph = build_neighbor_graph(features, 1.5, block_size=11)
        transposed = graph.transpose()
        assert transposed.num_rows == graph.num_cols
        back = transposed.transpose()
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_cross_graph_matches_dense_and_nearest(self, metric):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            left = random_features(seed, n=int(rng.integers(1, 60)))
            right = random_features(
                seed + 100, n=int(rng.integers(1, 40)), d=left.shape[1]
            )
            distances = cross_distances(left, right, metric=metric)
            radius = float(np.median(distances))
            graph, nearest = build_cross_neighbor_graph(
                left, right, radius, metric=metric, block_size=9, return_nearest=True
            )
            rows, cols = np.nonzero(distances < radius)
            assert np.array_equal(graph.indices, cols)
            assert np.array_equal(graph.degrees(), np.bincount(rows, minlength=len(left)))
            assert np.array_equal(nearest, np.argmin(distances, axis=1))

    def test_cross_graph_rejects_empty_right(self):
        with pytest.raises(ValueError):
            build_cross_neighbor_graph(np.zeros((2, 3)), np.zeros((0, 3)), 1.0)


class TestSamplePercentileRadius:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_exact_regime_matches_dense_percentile(self, metric):
        for seed in range(8):
            features = random_features(seed)
            n = features.shape[0]
            distances = pairwise_distances(features, metric=metric)
            off = distances[~np.eye(n, dtype=bool)]
            positive = off[off > 0.0]
            expected = (
                1.0 if positive.size == 0 else float(np.percentile(positive, 15.0))
            )
            assert sample_percentile_radius(features, 15.0, metric=metric) == expected

    def test_sampled_regime_deterministic_and_positive(self):
        features = np.random.default_rng(0).normal(size=(300, 4))
        first = sample_percentile_radius(features, 10.0, sample_size=2000, seed=3)
        second = sample_percentile_radius(features, 10.0, sample_size=2000, seed=3)
        other_seed = sample_percentile_radius(features, 10.0, sample_size=2000, seed=4)
        assert first == second > 0.0
        assert other_seed > 0.0

    def test_degenerate_inputs(self):
        assert sample_percentile_radius(np.zeros((0, 3)), 15.0) == 1.0
        assert sample_percentile_radius(np.zeros((1, 3)), 15.0) == 1.0
        assert sample_percentile_radius(np.zeros((40, 3)), 15.0) == 1.0
        # identical points in the sampled regime: every distance is zero
        identical = np.ones((200, 2))
        assert sample_percentile_radius(identical, 15.0, sample_size=100) == 1.0

    def test_validation(self):
        features = np.zeros((3, 2))
        with pytest.raises(ValueError):
            sample_percentile_radius(features, 0.0)
        with pytest.raises(ValueError):
            sample_percentile_radius(features, 15.0, sample_size=0)
        with pytest.raises(ValueError):
            sample_percentile_radius(np.zeros(3), 15.0)


class TestNeighborPlanner:
    def test_routing_thresholds(self):
        planner = NeighborPlanner(dense_threshold=10)
        assert planner.use_dense(10) and not planner.use_dense(11)
        assert planner.use_dense_cross(10, 10) and not planner.use_dense_cross(101, 1)
        forced = NeighborPlanner(dense_threshold=0)
        assert not forced.use_dense(1)
        assert not forced.use_dense_cross(1, 1)

    def test_resolve_radius_matches_dense_rule(self):
        features = random_features(2)
        n = features.shape[0]
        distances = pairwise_distances(features)
        off = distances[~np.eye(n, dtype=bool)]
        expected = float(np.percentile(off[off > 0.0], 15.0))
        dense = NeighborPlanner(dense_threshold=4096)
        sparse = NeighborPlanner(**SPARSE)
        assert dense.resolve_radius(features, 15.0) == expected
        # the sparse planner's exact regime reproduces the same value
        assert sparse.resolve_radius(features, 15.0) == expected

    def test_stats_counters(self):
        features = random_features(1, n=20)
        planner = NeighborPlanner(**SPARSE)
        planner.graph(features, 1.0)
        planner.resolve_radius(features, 15.0)
        planner.cross_graph(features, features, 1.0)
        stats = planner.stats().to_dict()
        assert stats["sparse_graphs"] == 1
        assert stats["dense_graphs"] == 0
        assert stats["cross_joins"] == 1
        assert stats["edges_built"] > 0
        dense = NeighborPlanner(dense_threshold=4096)
        dense.graph(features, 1.0)
        assert dense.stats().dense_graphs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborPlanner(dense_threshold=-1)
        with pytest.raises(ValueError):
            NeighborPlanner(block_size=0)
        with pytest.raises(ValueError):
            NeighborPlanner(sample_size=0)

    def test_default_planner_is_shared(self):
        assert default_planner() is default_planner()


class TestSparseDBSCANEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("min_samples", [1, 2, 3])
    def test_labels_match_dense_across_seeds(self, metric, min_samples):
        for seed in range(12):
            features = random_features(seed)
            dense = DBSCAN(min_samples=min_samples, metric=metric).fit(features)
            sparse = DBSCAN(
                min_samples=min_samples,
                metric=metric,
                planner=NeighborPlanner(**SPARSE),
            ).fit(features)
            assert np.array_equal(dense.labels, sparse.labels)
            assert dense.num_clusters == sparse.num_clusters
            assert np.array_equal(dense.core_point_mask, sparse.core_point_mask)

    def test_explicit_eps_and_degenerate_inputs(self):
        planner = NeighborPlanner(**SPARSE)
        empty = DBSCAN(planner=planner).fit(np.zeros((0, 2)))
        assert empty.num_clusters == 0
        single = DBSCAN(planner=planner).fit(np.zeros((1, 2)))
        assert single.labels.size == 1
        blob = np.zeros((10, 2))
        dense = DBSCAN(eps=0.5, min_samples=2).fit(blob)
        sparse = DBSCAN(eps=0.5, min_samples=2, planner=planner).fit(blob)
        assert np.array_equal(dense.labels, sparse.labels)

    def test_precomputed_distances_stay_dense(self):
        features = random_features(6, n=30)
        distances = pairwise_distances(features)
        planner = NeighborPlanner(**SPARSE)
        with_matrix = DBSCAN(min_samples=2, planner=planner).fit(
            features, distances=distances
        )
        reference = DBSCAN(min_samples=2).fit(features)
        assert np.array_equal(with_matrix.labels, reference.labels)
        # supplying the matrix must not build sparse graphs
        assert planner.stats().sparse_graphs == 0


class TestSparseCoveringEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_selections_match_dense_across_seeds(self, metric):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 80))
            m = int(rng.integers(1, 50))
            d = int(rng.integers(1, 7))
            question_features = random_features(seed, n=n, d=d)
            pool_features = random_features(seed + 500, n=m, d=d)
            questions = [make_pair(i) for i in range(n)]
            pool = [
                make_pair(1000 + i, MatchLabel(int(rng.integers(0, 2))))
                for i in range(m)
            ]
            batches = DiversityQuestionBatcher(batch_size=5, seed=seed).create_batches(
                questions, question_features
            )
            dense_selector = CoveringSelector(metric=metric)
            sparse_selector = CoveringSelector(
                metric=metric, planner=NeighborPlanner(**SPARSE)
            )
            dense = dense_selector.select(
                batches, question_features, pool, pool_features
            )
            sparse = sparse_selector.select(
                batches, question_features, pool, pool_features
            )
            assert dense.labeled_pool_indices == sparse.labeled_pool_indices
            for dense_batch, sparse_batch in zip(dense.per_batch, sparse.per_batch):
                assert dense_batch.pool_indices == sparse_batch.pool_indices
            assert dense_selector.last_diagnostics == sparse_selector.last_diagnostics

    @staticmethod
    def assert_dense_matches_sparse(batches, question_features, pool, pool_features):
        dense_selector = CoveringSelector()
        sparse_selector = CoveringSelector(planner=NeighborPlanner(**SPARSE))
        dense = dense_selector.select(batches, question_features, pool, pool_features)
        sparse = sparse_selector.select(batches, question_features, pool, pool_features)
        assert dense.labeled_pool_indices == sparse.labeled_pool_indices
        assert [batch.pool_indices for batch in dense.per_batch] == [
            batch.pool_indices for batch in sparse.per_batch
        ]
        assert dense_selector.last_diagnostics == sparse_selector.last_diagnostics
        return dense_selector.last_diagnostics

    @pytest.mark.parametrize("seed", range(4))
    def test_square_cross_matrix(self, seed):
        # n == m with every question sitting next to "its" pool demonstration:
        # the covering edges lie on the diagonal of the square cross matrix,
        # which a self-join graph builder would drop.
        rng = np.random.default_rng(seed)
        n = 40
        question_features = rng.normal(size=(n, 3))
        pool_features = question_features + rng.normal(scale=1e-3, size=(n, 3))
        questions = [make_pair(i) for i in range(n)]
        pool = [make_pair(1000 + i, MatchLabel(i % 2)) for i in range(n)]
        batches = DiversityQuestionBatcher(batch_size=5, seed=seed).create_batches(
            questions, question_features
        )
        diagnostics = self.assert_dense_matches_sparse(
            batches, question_features, pool, pool_features
        )
        assert diagnostics.uncovered_questions == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_flush_shaped_selection(self, seed):
        # A serving flush: three questions against a pool of 1,200.
        rng = np.random.default_rng(seed)
        question_features = rng.normal(size=(3, 4))
        pool_features = rng.normal(size=(1200, 4))
        questions = [make_pair(i) for i in range(3)]
        pool = [make_pair(1000 + i, MatchLabel(i % 2)) for i in range(1200)]
        batches = [
            QuestionBatch(batch_id=0, indices=(0, 1, 2), pairs=tuple(questions))
        ]
        assert default_planner().use_dense_cross(3, 1200)
        self.assert_dense_matches_sparse(batches, question_features, pool, pool_features)

    def test_single_question_and_pool(self):
        questions = [make_pair(0)]
        pool = [make_pair(1, MatchLabel.NON_MATCH)]
        features = np.zeros((1, 3))
        batches = DiversityQuestionBatcher(batch_size=4).create_batches(
            questions, features
        )
        selector = CoveringSelector(planner=NeighborPlanner(**SPARSE))
        result = selector.select(batches, features, pool, np.zeros((1, 3)))
        assert result.per_batch[0].pool_indices == (0,)

    def test_empty_pool_raises(self):
        selector = CoveringSelector(planner=NeighborPlanner(**SPARSE))
        with pytest.raises(ValueError):
            selector.select([], np.zeros((2, 2)), [], np.zeros((0, 2)))

    def test_resolve_threshold_sparse_matches_dense(self):
        features = random_features(11)
        dense = CoveringSelector().resolve_threshold(features)
        sparse = CoveringSelector(
            planner=NeighborPlanner(**SPARSE)
        ).resolve_threshold(features)
        assert dense == sparse


class TestEndToEndGoldenEquivalence:
    """Fixed-seed BatchER runs are byte-identical with sparse planning forced."""

    @pytest.mark.parametrize("extractor", ["lr", "semantic"])
    def test_batcher_run_identical_with_sparse_planning(self, beer_dataset, extractor):
        from repro.core.batcher import BatchER
        from repro.core.config import BatcherConfig
        from repro.features.engine import FeatureStore
        from repro.features.factory import create_feature_extractor
        from repro.pipeline.context import PipelineContext
        from repro.pipeline.pipeline import Pipeline

        config = BatcherConfig(feature_extractor=extractor, seed=0, max_questions=60)
        reference = BatchER(config).run(beer_dataset)

        context = PipelineContext.from_dataset(beer_dataset, config)
        context.feature_store = FeatureStore(
            create_feature_extractor(extractor, beer_dataset.attributes),
            dense_planning_threshold=0,  # force sparse planning everywhere
        )
        Pipeline.default().run(context)
        sparse = context.result

        assert sparse is not None
        assert sparse.predictions == reference.predictions
        assert sparse.metrics == reference.metrics
        assert sparse.cost == reference.cost
        assert sparse.num_batches == reference.num_batches
        assert sparse.num_unanswered == reference.num_unanswered
        assert sparse.summary() == reference.summary()
        planning = context.feature_store.stats().planning
        assert planning["sparse_graphs"] >= 1
        assert planning["dense_graphs"] == 0

    def test_resolver_uses_store_planner(self, beer_dataset):
        from repro.core.config import BatcherConfig
        from repro.pipeline.resolver import Resolver

        resolver = Resolver.from_dataset(
            beer_dataset, config=BatcherConfig(max_questions=None)
        )
        assert resolver.planner is not None
        resolver.resolve(list(beer_dataset.splits.test)[:10])
        stats = resolver.feature_store.stats()
        assert "planning" in stats.to_dict()
        # Small chunks stay in the dense regime by default — the planner
        # routes (and counts) dense planning, never building a sparse graph,
        # and its dense provider populates the engine's distance cache.
        assert stats.planning["sparse_graphs"] == 0
        assert stats.planning["dense_graphs"] >= 1
        assert stats.planning["dense_radii"] >= 1
        assert stats.distance_misses >= 1


def blob_features(seed, n, d=6, blob_size=20):
    """Clustered (blobby) features: realistic geometry for the LSH recall tests."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(max(1, n // blob_size), d))
    assignments = rng.integers(0, len(centers), size=n)
    return centers[assignments] + rng.normal(scale=0.25, size=(n, d))


def edge_keys(graph):
    counts = np.diff(graph.indptr)
    rows = np.repeat(np.arange(graph.num_rows, dtype=np.uint64), counts)
    return rows * np.uint64(graph.num_cols) + graph.indices.astype(np.uint64)


def assert_subgraph(approx, exact, features, radius, metric="euclidean"):
    """Every LSH edge is an exact edge, modulo exact-boundary rounding ties.

    The LSH verifier and the blocked join use two different exact formulas
    that can disagree by one ulp (documented on ``build_lsh_neighbor_graph``);
    an extra edge is only a bug when its distance is genuinely away from the
    radius boundary.
    """
    extra = np.setdiff1d(edge_keys(approx), edge_keys(exact))
    if extra.size == 0:
        return
    from repro.clustering.distance import elementwise_distances

    n = exact.num_cols
    rows = (extra // np.uint64(n)).astype(np.int64)
    cols = (extra % np.uint64(n)).astype(np.int64)
    distances = elementwise_distances(features[rows], features[cols], metric)
    assert np.allclose(distances, radius, rtol=1e-9, atol=1e-12), (
        f"{extra.size} non-boundary false edges; distances {distances[:5]} "
        f"vs radius {radius}"
    )


class TestLSHNeighborGraph:
    """The approximate graph may miss edges but must never invent them."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_subgraph_of_exact_across_seeds(self, metric, inclusive):
        for seed in range(8):
            features = random_features(seed)
            distances = pairwise_distances(features, metric=metric)
            positive = distances[distances > 0]
            radius = float(np.median(positive)) if positive.size else 0.5
            exact = build_neighbor_graph(
                features, radius, metric=metric, inclusive=inclusive
            )
            approx, _ = build_lsh_neighbor_graph(
                features, radius, metric=metric, inclusive=inclusive
            )
            assert approx.num_rows == exact.num_rows
            assert_subgraph(approx, exact, features, radius, metric)
            for row in range(approx.num_rows):
                neighbours = approx.neighbors(row)
                assert row not in neighbours
                assert np.array_equal(neighbours, np.sort(neighbours))

    @pytest.mark.parametrize("n", [512, 4096])
    def test_recall_floor_on_blobby_workload(self, n):
        features = blob_features(17, n)
        radius = sample_percentile_radius(features, 0.5)
        exact = build_neighbor_graph(features, radius)
        approx, num_candidates = build_lsh_neighbor_graph(features, radius)
        assert num_candidates >= approx.num_edges
        # Subgraph + edge counts make the ratio the (clamped) edge recall.
        assert_subgraph(approx, exact, features, radius)
        assert exact.num_edges > 0
        assert min(1.0, approx.num_edges / exact.num_edges) >= 0.95

    def test_deterministic_across_calls(self):
        features = blob_features(3, 700)
        radius = sample_percentile_radius(features, 1.0)
        first, candidates_first = build_lsh_neighbor_graph(features, radius)
        second, candidates_second = build_lsh_neighbor_graph(features, radius)
        assert candidates_first == candidates_second
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)

    def test_small_inputs_fall_back_to_exact(self):
        empty, candidates = build_lsh_neighbor_graph(np.zeros((0, 3)), 1.0)
        assert empty.num_rows == 0 and candidates == 0
        single, candidates = build_lsh_neighbor_graph(np.zeros((1, 3)), 1.0)
        assert single.num_rows == 1 and single.num_edges == 0 and candidates == 0
        pair, _ = build_lsh_neighbor_graph(np.zeros((2, 3)), 1.0)
        assert pair.num_edges == 2  # coincident points within any radius

    def test_degenerate_radius_and_duplicates(self):
        features = np.zeros((50, 4))
        exact = build_neighbor_graph(features, 0.0, inclusive=True)
        approx, _ = build_lsh_neighbor_graph(features, 0.0, inclusive=True)
        assert np.array_equal(approx.indptr, exact.indptr)
        assert np.array_equal(approx.indices, exact.indices)

    def test_candidate_cap_bounds_row_candidates(self):
        features = blob_features(5, 600, d=4)
        radius = sample_percentile_radius(features, 25.0)  # huge neighbourhoods
        config = LSHConfig(candidate_cap=7)
        approx, _ = build_lsh_neighbor_graph(features, radius, config=config)
        assert int(np.diff(approx.indptr).max()) <= 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            build_lsh_neighbor_graph(
                np.zeros((10, 2)), 1.0, config=LSHConfig(num_perm=64, bands=7)
            )
        with pytest.raises(ValueError):
            build_lsh_neighbor_graph(np.zeros(10), 1.0)


class TestLSHRouting:
    def test_use_lsh_thresholds(self):
        planner = NeighborPlanner(dense_threshold=10, approx_threshold=100)
        assert not planner.use_lsh(10)  # dense wins below the dense threshold
        assert not planner.use_lsh(100)  # at the threshold: still exact sparse
        assert planner.use_lsh(101)
        disabled = NeighborPlanner(dense_threshold=10, approx_threshold=None)
        assert not disabled.use_lsh(10**9)
        forced = NeighborPlanner(dense_threshold=0, approx_threshold=0)
        assert forced.use_lsh(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborPlanner(approx_threshold=-1)
        with pytest.raises(ValueError):
            NeighborPlanner(recall_oracle_max=-1)

    def test_lsh_stats_and_alias(self):
        features = blob_features(9, 300)
        planner = NeighborPlanner(dense_threshold=0, approx_threshold=0)
        radius = planner.resolve_radius(features, 1.0)
        planner.graph(features, radius)
        stats = planner.stats()
        assert stats.lsh_graphs == 1
        assert stats.sparse_graphs == 0
        assert stats.lsh_candidates >= stats.lsh_edges > 0
        as_dict = stats.to_dict()
        assert as_dict["lsh_routes"] == 1  # the serving-surface alias
        assert as_dict["lsh_recall_min"] is None  # oracle never ran

    def test_recall_oracle_records_minimum(self):
        features = blob_features(21, 400)
        planner = NeighborPlanner(
            dense_threshold=0, approx_threshold=0, recall_oracle_max=1024
        )
        radius = planner.resolve_radius(features, 1.0)
        planner.graph(features, radius)
        stats = planner.stats()
        assert stats.lsh_oracle_runs == 1
        assert stats.lsh_recall_min is not None
        assert 0.95 <= stats.lsh_recall_min <= 1.0

    def test_lsh_labels_match_exact_on_blobby_workload(self):
        # At full recall the approximate graph IS the exact graph, so DBSCAN
        # over it reproduces the exact labels.  The eps percentile stays in
        # the within-blob distance regime on purpose: the default (15.0)
        # resolves a whole-blob-scale radius whose giant LSH buckets are
        # exactly where truncation loses edges.  Everything is seeded, so the
        # full-recall premise asserted via the planner's oracle is stable.
        features = blob_features(13, 900)
        exact = DBSCAN(min_samples=2, eps_percentile=2.0).fit(features)
        planner = NeighborPlanner(
            dense_threshold=0, approx_threshold=0, recall_oracle_max=1024
        )
        approx = DBSCAN(min_samples=2, eps_percentile=2.0, planner=planner).fit(features)
        assert planner.stats().lsh_recall_min == 1.0
        assert np.array_equal(exact.labels, approx.labels)

    def test_cross_joins_stay_exact_under_forced_lsh(self):
        features = blob_features(7, 300)
        pool = blob_features(8, 40, d=features.shape[1])
        planner = NeighborPlanner(dense_threshold=0, approx_threshold=0)
        graph, nearest = planner.cross_graph(
            features, pool, 1.0, return_nearest=True
        )
        reference, reference_nearest = build_cross_neighbor_graph(
            features, pool, 1.0, return_nearest=True
        )
        assert np.array_equal(graph.indptr, reference.indptr)
        assert np.array_equal(graph.indices, reference.indices)
        assert np.array_equal(nearest, reference_nearest)
        assert planner.stats().lsh_graphs == 0

    def test_planner_spans_carry_regime(self):
        from repro.observability.tracing import Tracer

        tracer = Tracer()
        planner = NeighborPlanner(dense_threshold=4, approx_threshold=16)
        planner.tracer = tracer
        planner.graph(np.zeros((3, 2)), 1.0)  # dense
        planner.graph(np.ones((10, 2)), 1.0)  # exact sparse
        planner.graph(blob_features(2, 40, d=2), 1.0)  # lsh
        regimes = [
            span.attributes["regime"]
            for span in tracer.finished_spans()
            if span.name == "planner:graph"
        ]
        assert regimes == ["dense", "sparse", "lsh"]


class TestRadiusSeedStability:
    """Sampled radii are a pure function of (features, percentile, metric, seed)."""

    def test_call_order_independent(self):
        features_a = np.random.default_rng(0).normal(size=(300, 4))
        features_b = np.random.default_rng(1).normal(size=(280, 4))
        planner_one = NeighborPlanner(dense_threshold=0, sample_size=2000)
        planner_two = NeighborPlanner(dense_threshold=0, sample_size=2000)
        first = planner_one.resolve_radius(features_a, 10.0)
        # A different call history must not perturb later resolutions.
        planner_two.resolve_radius(features_b, 10.0)
        planner_two.resolve_radius(features_a, 35.0)
        assert planner_two.resolve_radius(features_a, 10.0) == first

    def test_content_and_seed_sensitivity(self):
        features = np.random.default_rng(2).normal(size=(300, 4))
        base = NeighborPlanner(dense_threshold=0, sample_size=2000)
        reseeded = NeighborPlanner(dense_threshold=0, sample_size=2000, seed=99)
        assert base.resolve_radius(features, 10.0) == NeighborPlanner(
            dense_threshold=0, sample_size=2000
        ).resolve_radius(features, 10.0)
        # A different planner seed draws a different sample (with overwhelming
        # probability on continuous data).
        assert reseeded.resolve_radius(features, 10.0) != base.resolve_radius(
            features, 10.0
        )

    def test_byte_stable_across_processes(self):
        # The sample seed is derived from the feature bytes via blake2b, not
        # from Python's per-process salted hash() — so a fresh interpreter
        # resolves the identical radius.
        script = (
            "import numpy as np\n"
            "from repro.clustering.neighbors import NeighborPlanner\n"
            "features = np.random.default_rng(7).normal(size=(300, 4))\n"
            "planner = NeighborPlanner(dense_threshold=0, sample_size=2000)\n"
            "print(repr(planner.resolve_radius(features, 10.0)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        features = np.random.default_rng(7).normal(size=(300, 4))
        planner = NeighborPlanner(dense_threshold=0, sample_size=2000)
        assert completed.stdout.strip() == repr(planner.resolve_radius(features, 10.0))


class TestEndToEndForcedLSH:
    """Fixed-seed BatchER runs stay byte-identical with LSH planning forced.

    At benchmark scale the approximate graph achieves full recall, so every
    plan (batches, selections) and therefore every prediction must match the
    reference run exactly — LSH planning changes the route, not the result.
    """

    @pytest.mark.parametrize("dataset_fixture", ["beer_dataset", "fz_dataset"])
    def test_batcher_run_identical_with_forced_lsh(self, request, dataset_fixture):
        from repro.core.batcher import BatchER
        from repro.core.config import BatcherConfig
        from repro.features.engine import FeatureStore
        from repro.features.factory import create_feature_extractor
        from repro.pipeline.context import PipelineContext
        from repro.pipeline.pipeline import Pipeline

        dataset = request.getfixturevalue(dataset_fixture)
        config = BatcherConfig(seed=0, max_questions=60)
        reference = BatchER(config).run(dataset)

        context = PipelineContext.from_dataset(dataset, config)
        context.feature_store = FeatureStore(
            create_feature_extractor(config.feature_extractor, dataset.attributes),
            dense_planning_threshold=0,  # bypass the dense regime...
            approx_planning_threshold=0,  # ...and force LSH for every self-join
        )
        Pipeline.default().run(context)
        forced = context.result

        assert forced is not None
        assert forced.predictions == reference.predictions
        assert forced.metrics == reference.metrics
        assert forced.cost == reference.cost
        assert forced.num_batches == reference.num_batches
        assert forced.summary() == reference.summary()
        planning = context.feature_store.stats().planning
        assert planning["lsh_routes"] >= 1
        assert planning["dense_graphs"] == 0
