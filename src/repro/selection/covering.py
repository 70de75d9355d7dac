"""Covering-based demonstration selection (paper Sections IV-D and V).

The strategy runs in two phases, both greedy set covers (Algorithm 1):

1. **Demonstration Set Generation** (Section V-A): over *all* questions of all
   batches, select a minimal subset ``Ds`` of the unlabeled pool such that
   every question has at least one demonstration within distance ``t``.
   Weights are 1 (each selected demonstration costs one manual label), so the
   greedy rule minimises the number of labeled demonstrations.

2. **Batch Covering** (Section V-B): for each batch, select a subset of ``Ds``
   covering every question of the batch while minimising the total *token*
   weight of the chosen demonstrations, which minimises the prompt (API) cost.

The distance threshold ``t`` defaults to the paper's rule: the 8th percentile
of all pairwise question distances.  Questions that no pool demonstration can
cover within ``t`` fall back to their single nearest demonstration so that the
prompt never leaves a question without any reference.

Scaling: the coverage relation "question q is within ``t`` of demonstration
d" is all the geometry either phase needs, and a
:class:`~repro.clustering.neighbors.NeighborPlanner` decides how to obtain
it.  Small problems threshold the dense ``(n, m)`` question-to-pool matrix
once; large ones build the question→pool radius graph in fixed-size row
blocks (peak memory bounded by the block size) and resolve ``t`` from a
seeded distance sample, so neither the ``(n, n)`` nor the ``(n, m)`` matrix
is ever materialised.  Either way the result is one CSR
:class:`~repro.clustering.neighbors.NeighborGraph`, and a single body runs
both phases over it with the array set cover
(:func:`~repro.selection.set_cover.greedy_cover_csr`), so the two regimes
produce identical selections on the same threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.distance import cross_distances
from repro.clustering.neighbors import (
    NeighborGraph,
    NeighborPlanner,
    default_planner,
    dense_percentile_radius,
)
from repro.data.schema import EntityPair
from repro.data.serialization import serialize_pair
from repro.selection.base import DemonstrationSelector, SelectionResult
from repro.selection.set_cover import csr_select_rows, greedy_cover_csr
from repro.text.tokenizer import ApproxTokenizer

#: The paper's default: take the 8th percentile of pairwise question distances as t.
DEFAULT_THRESHOLD_PERCENTILE = 8.0


@dataclass(frozen=True)
class CoveringDiagnostics:
    """Diagnostics of a covering run, useful for ablations and reports."""

    threshold: float
    demonstration_set_size: int
    uncovered_questions: int
    fallback_questions: int


class CoveringSelector(DemonstrationSelector):
    """Two-phase covering-based demonstration selection.

    Args:
        threshold_percentile: percentile of pairwise question distances used as
            the covering radius ``t`` (paper default: 8).
        threshold: explicit radius overriding the percentile rule.
        tokenizer: tokenizer used to weight demonstrations by token count in
            the Batch Covering phase.
        planner: dense/sparse routing policy for the coverage geometry;
            defaults to the process-wide
            :func:`~repro.clustering.neighbors.default_planner`.
    """

    name = "covering"

    def __init__(
        self,
        num_demonstrations: int = 8,
        metric: str = "euclidean",
        seed: int = 0,
        threshold_percentile: float = DEFAULT_THRESHOLD_PERCENTILE,
        threshold: float | None = None,
        tokenizer: ApproxTokenizer | None = None,
        planner: NeighborPlanner | None = None,
    ) -> None:
        super().__init__(num_demonstrations=num_demonstrations, metric=metric, seed=seed)
        if not 0.0 < threshold_percentile < 100.0:
            raise ValueError("threshold_percentile must be in (0, 100)")
        if threshold is not None and threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        self.threshold_percentile = threshold_percentile
        self.threshold = threshold
        self.tokenizer = tokenizer or ApproxTokenizer()
        self.planner = planner
        #: Diagnostics of the last :meth:`select` call (None before the first call).
        self.last_diagnostics: CoveringDiagnostics | None = None

    # -- threshold ----------------------------------------------------------

    def resolve_threshold(
        self,
        question_features: np.ndarray,
        question_distances: np.ndarray | None = None,
        planner: NeighborPlanner | None = None,
    ) -> float:
        """Compute the covering radius ``t`` from the question feature vectors.

        Args:
            question_distances: optional precomputed pairwise distance matrix
                over the question features in ``self.metric`` (the feature
                engine caches one per run for small question sets).  When
                omitted, the planner resolves the percentile radius — exactly
                for small inputs, from a seeded distance sample for large
                ones — without materialising the ``(n, n)`` matrix.
            planner: per-call override of the routing policy.
        """
        if self.threshold is not None:
            return self.threshold
        features = np.asarray(question_features, dtype=float)
        if features.shape[0] < 2:
            return 1.0
        if question_distances is not None:
            return dense_percentile_radius(question_distances, self.threshold_percentile)
        active = planner or self.planner or default_planner()
        return active.resolve_radius(features, self.threshold_percentile, self.metric)

    # -- selection ----------------------------------------------------------

    def select(
        self,
        batches: Sequence[QuestionBatch],
        question_features: np.ndarray,
        pool: Sequence[EntityPair],
        pool_features: np.ndarray,
        question_distances: np.ndarray | None = None,
        planner: NeighborPlanner | None = None,
    ) -> SelectionResult:
        if not pool:
            raise ValueError("the demonstration pool is empty")
        question_features = np.asarray(question_features, dtype=float)
        pool_features = np.asarray(pool_features, dtype=float)
        threshold = self.resolve_threshold(
            question_features, question_distances, planner=planner
        )
        active = planner or self.planner or default_planner()
        if active.use_dense_cross(question_features.shape[0], len(pool)):
            # Small n * m: threshold the dense question-to-pool matrix once.
            # Not NeighborGraph.from_dense, which drops the diagonal of square
            # matrices (right for self-joins only).
            distances = self._question_to_pool_distances(question_features, pool_features)
            rows, cols = np.nonzero(distances < threshold)
            indptr = np.zeros(distances.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=distances.shape[0]), out=indptr[1:])
            graph = NeighborGraph(
                indptr=indptr, indices=cols, num_cols=len(pool),
                radius=threshold, metric=self.metric, inclusive=False,
            )
            nearest = np.argmin(distances, axis=1)

            def distance_row(question: int, demos: np.ndarray) -> np.ndarray:
                return distances[question, demos]

        else:
            # One blocked pass over the question-to-pool geometry yields both
            # the strict-radius graph and each question's nearest pool demo.
            graph, nearest = active.cross_graph(
                question_features, pool_features, threshold,
                metric=self.metric, inclusive=False, return_nearest=True,
            )

            def distance_row(question: int, demos: np.ndarray) -> np.ndarray:
                # One (1, |demos|) row on demand — cheaper than keeping the
                # full matrix for the rare fallback questions.
                return cross_distances(
                    question_features[question : question + 1],
                    pool_features[demos],
                    metric=self.metric,
                )[0]

        return self._cover(batches, pool, graph, nearest, distance_row, threshold)

    def _cover(
        self,
        batches: Sequence[QuestionBatch],
        pool: Sequence[EntityPair],
        graph: NeighborGraph,
        nearest: np.ndarray,
        distance_row: Callable[[int, np.ndarray], np.ndarray],
        threshold: float,
    ) -> SelectionResult:
        """Both covering phases over the question→pool coverage graph.

        Args:
            graph: row ``q`` lists the pool demonstrations strictly within
                ``threshold`` of question ``q``.
            nearest: per question, the index of its nearest pool demonstration.
            distance_row: distances from one question to the given pool
                demonstrations (the phase-2 fallback rule).
        """
        # Phase 1: Demonstration Set Generation over all questions, unit weights.
        selected, covered = greedy_cover_csr(graph.indptr, graph.indices, graph.num_cols)
        demonstration_set = selected.tolist()
        # Fallback: questions not coverable within t get their nearest pool demo,
        # so every question still has at least one relevant reference.
        fallback_questions = np.flatnonzero(~covered).tolist()
        for question_index in fallback_questions:
            nearest_demo = int(nearest[question_index])
            if nearest_demo not in demonstration_set:
                demonstration_set.append(nearest_demo)
        demos = np.asarray(demonstration_set, dtype=np.int64)
        token_weights = np.array([
            max(1.0, float(self.tokenizer.count(serialize_pair(pool[demo]))))
            for demo in demonstration_set
        ])

        # Phase 2 candidates are positions in the demonstration set: mask the
        # graph once, so a question's row lists the positions covering it.
        position = np.full(graph.num_cols, -1, dtype=np.int64)
        position[demos] = np.arange(len(demos))
        in_set = position[graph.indices]
        kept = np.concatenate(([0], np.cumsum(in_set >= 0)))
        masked_indptr, masked_indices = kept[graph.indptr], in_set[in_set >= 0]

        # Phase 2: Batch Covering — per batch, cover its questions with the
        # minimum token weight subset of the demonstration set.
        per_batch: list[list[int]] = []
        for batch in batches:
            batch_questions = np.asarray(batch.indices, dtype=np.int64)
            local_indptr, local_indices = csr_select_rows(
                masked_indptr, masked_indices, batch_questions
            )
            picks, batch_covered = greedy_cover_csr(
                local_indptr, local_indices, len(demos), token_weights
            )
            chosen = demos[picks].tolist()
            # Uncovered questions within the batch fall back to their nearest
            # demonstration from the generated set (cheapest feasible repair;
            # argmin keeps the first minimum in demonstration-set order).
            for question_index in batch_questions[~batch_covered].tolist():
                nearest_demo = demonstration_set[
                    int(np.argmin(distance_row(question_index, demos)))
                ]
                if nearest_demo not in chosen:
                    chosen.append(nearest_demo)
            per_batch.append(chosen)

        self.last_diagnostics = CoveringDiagnostics(
            threshold=threshold,
            demonstration_set_size=len(demonstration_set),
            uncovered_questions=len(fallback_questions),
            fallback_questions=len(fallback_questions),
        )
        return self._build_result(batches, per_batch, pool)
