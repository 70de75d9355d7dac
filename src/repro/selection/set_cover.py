"""Greedy (weighted) set cover — Algorithm 1 of the paper.

Both covering sub-problems are instances of weighted set cover:

* **Demonstration Set Generation** — items are all questions, candidate sets
  are pool demonstrations (each covering the questions within distance ``t``),
  weights are all 1; minimise the number of labeled demonstrations.
* **Batch Covering** — items are the questions of one batch, candidates are the
  demonstrations of the generated set, weights are token counts; minimise the
  prompt token cost.

The greedy rule picks, at each step, the candidate maximising
``(newly covered items) / weight``, which yields the classic ``H_k``
approximation guarantee cited by the paper.  Ties on ``(efficiency, gain)``
resolve deterministically to the lowest candidate index.

Two implementations of the same rule are provided:

* :func:`greedy_cover_csr` — the array implementation.  The coverage relation
  arrives as CSR index arrays (row pointers plus flat candidate indices, one
  row per item: the layout of a question→pool
  :class:`~repro.clustering.neighbors.NeighborGraph`).  Every candidate's gain
  is kept exact in an int array; when a pick newly covers items, one
  ``np.bincount`` over those items' rows subtracts the lost gains, so a round
  costs ``O(candidates + edges of the newly covered items)`` in numpy and no
  Python set is built.  :func:`greedy_set_cover` is a thin adapter that
  builds the arrays from per-candidate sets.
* :func:`greedy_set_cover_eager` — the straightforward every-round re-scan
  over Python sets, kept as the equivalence oracle for tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SetCoverSolution:
    """Outcome of a greedy set cover run.

    Attributes:
        selected: indices of the chosen candidate sets, in selection order.
        covered_items: items covered by the selection.
        uncovered_items: items that no candidate could cover at all.
        total_weight: sum of weights of the selected candidates.
    """

    selected: tuple[int, ...]
    covered_items: frozenset[int]
    uncovered_items: frozenset[int]
    total_weight: float


def coverage_value(selected_coverage: Sequence[frozenset[int] | set[int]]) -> int:
    """Value function ``f_Q(Ds)`` of Algorithm 1: number of covered questions."""
    covered: set[int] = set()
    for cover in selected_coverage:
        covered |= set(cover)
    return len(covered)


def _prepare(
    num_items: int,
    coverage: Sequence[frozenset[int] | set[int]],
    weights: Sequence[float] | None,
) -> tuple[Sequence[float], list[set[int]], set[int], set[int]]:
    """Shared validation and instance set-up of both implementations."""
    if weights is None:
        weights = [1.0] * len(coverage)
    if len(weights) != len(coverage):
        raise ValueError(
            f"coverage has {len(coverage)} candidates but weights has {len(weights)}"
        )
    if not all(math.isfinite(weight) and weight > 0.0 for weight in weights):
        raise ValueError("all candidate weights must be finite and positive")
    universe = set(range(num_items))
    coverable: set[int] = set()
    candidate_sets = [set(cover) & universe for cover in coverage]
    for candidate in candidate_sets:
        coverable |= candidate
    return weights, candidate_sets, coverable, universe - coverable


def csr_select_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR sub-matrix made of ``rows`` (in the given order)."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    sub_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub_indptr[1:])
    shift = np.repeat(starts - sub_indptr[:-1], lengths)
    return sub_indptr, indices[np.arange(int(sub_indptr[-1])) + shift]


def greedy_cover_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_candidates: int,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy weighted set cover over CSR index arrays.

    Args:
        indptr: ``(num_items + 1,)`` row pointers, one row per item.
        indices: for item ``i``, the distinct candidates covering it are
            ``indices[indptr[i]:indptr[i + 1]]``; all lie in
            ``0 .. num_candidates - 1``.
        num_candidates: number of candidate sets.
        weights: positive, finite weight per candidate (validated by the
            caller); defaults to unit weights.

    Returns:
        ``(selected, covered)``: the picked candidate indices in selection
        order, and a boolean mask over the items that the picks cover.  The
        picks are those of :func:`greedy_set_cover_eager` on the same
        instance: efficiency desc, then gain desc, then lowest index.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    num_items = len(indptr) - 1
    weights = (
        np.ones(num_candidates)
        if weights is None
        else np.asarray(weights, dtype=float)
    )
    # Exact gains: while every item is uncovered, a candidate's gain is its
    # set size.  The candidate -> items rows find a pick's items.
    gains = np.bincount(indices, minlength=num_candidates)
    candidate_indptr = np.zeros(num_candidates + 1, dtype=np.int64)
    np.cumsum(gains, out=candidate_indptr[1:])
    edge_items = np.repeat(np.arange(num_items, dtype=np.int64), np.diff(indptr))
    candidate_items = edge_items[np.argsort(indices, kind="stable")]

    covered = np.zeros(num_items, dtype=bool)
    selected: list[int] = []
    while True:
        live = np.flatnonzero(gains)
        if live.size == 0:
            break
        efficiency = gains[live] / weights[live]
        tied = live[efficiency == efficiency.max()]
        if tied.size > 1:
            tied = tied[gains[tied] == gains[tied].max()]
        pick = int(tied[0])
        items = candidate_items[candidate_indptr[pick] : candidate_indptr[pick + 1]]
        newly = items[~covered[items]]
        covered[newly] = True
        # Every candidate covering a newly covered item loses one gain; the
        # pick itself drops to zero.
        _, losers = csr_select_rows(indptr, indices, newly)
        gains -= np.bincount(losers, minlength=num_candidates)
        selected.append(pick)
    return np.asarray(selected, dtype=np.int64), covered


def greedy_set_cover(
    num_items: int,
    coverage: Sequence[frozenset[int] | set[int]],
    weights: Sequence[float] | None = None,
) -> SetCoverSolution:
    """Greedy weighted set cover over per-candidate sets.

    Builds the CSR arrays of :func:`greedy_cover_csr` and runs it.

    Args:
        num_items: number of items (questions) to cover; items are
            ``0 .. num_items - 1``.  Items outside that range are ignored.
        coverage: for every candidate (demonstration), the set of item indices
            it covers.
        weights: positive, finite weight per candidate; defaults to unit
            weights.

    Returns:
        The greedy solution — identical to :func:`greedy_set_cover_eager`,
        including the deterministic lowest-index tie-break.  Items that
        appear in no candidate's coverage are reported as ``uncovered_items``
        rather than raising, because in the ER pipeline an uncoverable
        question simply falls back to nearest-neighbour demonstrations.

    Raises:
        ValueError: if a weight is non-finite or non-positive, or the lengths
            disagree.
    """
    weights, candidate_sets, _, _ = _prepare(num_items, coverage, weights)
    sizes = [len(candidate) for candidate in candidate_sets]
    candidates = np.repeat(np.arange(len(candidate_sets), dtype=np.int64), sizes)
    items = np.fromiter(
        chain.from_iterable(candidate_sets), dtype=np.int64, count=sum(sizes)
    )
    order = np.argsort(items, kind="stable")
    indptr = np.zeros(num_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(items, minlength=num_items), out=indptr[1:])
    selected, covered = greedy_cover_csr(
        indptr, candidates[order], len(candidate_sets), weights
    )
    picks = tuple(int(index) for index in selected)
    total_weight = 0.0
    for index in picks:
        total_weight += float(weights[index])
    covered_items = np.flatnonzero(covered).tolist()
    return SetCoverSolution(
        selected=picks,
        covered_items=frozenset(covered_items),
        uncovered_items=frozenset(range(num_items)).difference(covered_items),
        total_weight=total_weight,
    )


def greedy_set_cover_eager(
    num_items: int,
    coverage: Sequence[frozenset[int] | set[int]],
    weights: Sequence[float] | None = None,
) -> SetCoverSolution:
    """Eager greedy weighted set cover (the re-scan-every-round oracle).

    Recomputes every remaining candidate's gain each round.  Kept as the
    reference implementation :func:`greedy_set_cover` is verified against;
    prefer the array version everywhere else — it returns identical solutions.
    """
    weights, candidate_sets, coverable, uncoverable = _prepare(
        num_items, coverage, weights
    )
    uncovered = set(coverable)
    selected: list[int] = []
    remaining_candidates = list(range(len(candidate_sets)))
    total_weight = 0.0

    while uncovered and remaining_candidates:
        best_candidate = -1
        best_efficiency = 0.0
        best_gain = 0
        # Candidates are scanned in ascending index order and only a strict
        # improvement replaces the incumbent, so ties on (efficiency, gain)
        # deterministically resolve to the lowest candidate index.
        for candidate in remaining_candidates:
            gain = len(candidate_sets[candidate] & uncovered)
            if gain == 0:
                continue
            efficiency = gain / weights[candidate]
            if efficiency > best_efficiency or (
                efficiency == best_efficiency and gain > best_gain
            ):
                best_candidate = candidate
                best_efficiency = efficiency
                best_gain = gain
        if best_candidate < 0:
            break
        selected.append(best_candidate)
        remaining_candidates.remove(best_candidate)
        uncovered -= candidate_sets[best_candidate]
        total_weight += float(weights[best_candidate])

    covered = coverable - uncovered
    return SetCoverSolution(
        selected=tuple(selected),
        covered_items=frozenset(covered),
        uncovered_items=frozenset(uncoverable | uncovered),
        total_weight=total_weight,
    )
