"""Demonstration selection base types.

A selector receives the question batches, the unlabeled demonstration pool and
feature vectors for both, and returns per-batch demonstration lists.  Selecting
a pool pair implies *manually labeling* it (paper Section II-C), so the result
also reports the distinct pool indices that were labeled — the labeling cost is
proportional to that count, and a demonstration labeled once can be reused by
many batches for free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.distance import cross_distances
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair


@dataclass(frozen=True)
class BatchDemonstrations:
    """The labeled demonstrations attached to one batch prompt."""

    batch_id: int
    pool_indices: tuple[int, ...]
    demonstrations: tuple[EntityPair, ...]

    def __len__(self) -> int:
        return len(self.demonstrations)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of demonstration selection over all batches.

    Attributes:
        per_batch: demonstrations per batch, aligned with the batch list.
        labeled_pool_indices: distinct pool indices whose gold label had to be
            acquired (the basis of the labeling cost).
    """

    per_batch: tuple[BatchDemonstrations, ...]
    labeled_pool_indices: frozenset[int] = field(default_factory=frozenset)

    @property
    def num_labeled(self) -> int:
        """Number of distinct demonstrations that were manually labeled."""
        return len(self.labeled_pool_indices)

    def demonstrations_for(self, batch_id: int) -> BatchDemonstrations:
        """Return the demonstrations selected for ``batch_id``.

        Raises:
            KeyError: if no demonstrations were selected for that batch.
        """
        for batch_demos in self.per_batch:
            if batch_demos.batch_id == batch_id:
                return batch_demos
        raise KeyError(f"no demonstrations selected for batch {batch_id}")


class DemonstrationSelector(ABC):
    """Base class for demonstration selection strategies.

    Args:
        num_demonstrations: the per-batch demonstration budget ``K`` (the paper
            uses 8 for the fixed / top-k strategies).
        metric: distance metric between feature vectors (paper: Euclidean).
        seed: RNG seed for randomised choices.
    """

    #: Strategy name used in configuration and reports.
    name: str = "selector"

    def __init__(
        self, num_demonstrations: int = 8, metric: str = "euclidean", seed: int = 0
    ) -> None:
        if num_demonstrations < 1:
            raise ValueError(f"num_demonstrations must be >= 1, got {num_demonstrations}")
        self.num_demonstrations = num_demonstrations
        self.metric = metric
        self.seed = seed

    @abstractmethod
    def select(
        self,
        batches: Sequence[QuestionBatch],
        question_features: np.ndarray,
        pool: Sequence[EntityPair],
        pool_features: np.ndarray,
        question_distances: np.ndarray | None = None,
        planner: NeighborPlanner | None = None,
    ) -> SelectionResult:
        """Select demonstrations for every batch.

        Args:
            batches: the question batches produced by a batcher.
            question_features: ``(num_questions, d)`` feature matrix indexed by
                the *original question indices* used in the batches.
            pool: the unlabeled demonstration pool (gold labels are present on
                the pairs but conceptually hidden until selected).
            pool_features: ``(len(pool), d)`` feature matrix of the pool.
            question_distances: optional precomputed pairwise distance matrix
                over ``question_features`` in this selector's ``metric``; the
                covering strategy's threshold rule reads it, the rest ignore
                it.
            planner: optional dense/sparse routing policy
                (:class:`~repro.clustering.neighbors.NeighborPlanner`);
                strategies that can plan over sparse neighbor graphs (the
                covering strategy) use it to avoid dense distance matrices on
                large inputs, the rest ignore it.
        """

    # -- shared helpers ----------------------------------------------------

    def _question_to_pool_distances(
        self, question_features: np.ndarray, pool_features: np.ndarray
    ) -> np.ndarray:
        """Distance matrix between every question and every pool demonstration."""
        return cross_distances(
            np.asarray(question_features, dtype=float),
            np.asarray(pool_features, dtype=float),
            metric=self.metric,
        )

    def _annotate(self, pool: Sequence[EntityPair], index: int) -> EntityPair:
        """Simulate manual annotation of pool pair ``index``.

        The synthetic pool already stores gold labels, so annotation simply
        keeps the labeled pair; the *cost* of doing so is accounted by the
        caller via :attr:`SelectionResult.labeled_pool_indices`.
        """
        pair = pool[index]
        if pair.is_labeled:
            return pair
        raise ValueError(
            f"pool pair {pair.pair_id!r} has no gold label to reveal; the "
            "demonstration pool must be built from the labeled train split"
        )

    def _build_result(
        self,
        batches: Sequence[QuestionBatch],
        per_batch_indices: Sequence[Sequence[int]],
        pool: Sequence[EntityPair],
    ) -> SelectionResult:
        """Assemble a :class:`SelectionResult` from per-batch pool indices."""
        if len(per_batch_indices) != len(batches):
            raise ValueError(
                f"expected demonstrations for {len(batches)} batches, got "
                f"{len(per_batch_indices)}"
            )
        labeled: set[int] = set()
        per_batch = []
        for batch, indices in zip(batches, per_batch_indices):
            unique_indices = tuple(dict.fromkeys(indices))
            labeled.update(unique_indices)
            per_batch.append(
                BatchDemonstrations(
                    batch_id=batch.batch_id,
                    pool_indices=unique_indices,
                    demonstrations=tuple(
                        self._annotate(pool, index) for index in unique_indices
                    ),
                )
            )
        return SelectionResult(
            per_batch=tuple(per_batch), labeled_pool_indices=frozenset(labeled)
        )
