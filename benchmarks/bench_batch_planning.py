"""Benchmark: dense vs. exact-sparse vs. approximate-LSH batch planning.

*Batch planning* is everything between featurization and prompting: DBSCAN
clustering of the question feature vectors and covering-based demonstration
selection.  Three arms plan the same synthetic Gaussian-blob workload at
identical, pre-resolved radii:

- **dense** (n <= 20 000): the pre-refactor implementation — the full
  ``(n, n)`` pairwise matrix plus per-point Python loops.
- **exact sparse** (n <= 100 000): blocked CSR epsilon-graphs
  (:mod:`repro.clustering.neighbors`) with the array-based greedy set cover.
- **LSH** (every size, including ``--n 1000000``): the approximate
  MinHash-LSH epsilon-graph — candidates from a banded MinHash index over
  quantized grid cells, verified with exact distances.

The benchmark is an equivalence oracle as much as a stopwatch.  Where two
exact arms overlap they must produce *identical* labels and selections; the
LSH arm's graph is checked (at oracle sizes, where the exact graph is
affordable) to be a strict subgraph of the exact graph with edge recall of at
least ``RECALL_FLOOR``, and its covering selections must match the exact
arm's — covering radii and cross joins stay exact in every regime.  Peak
planning memory is measured with ``tracemalloc`` (numpy buffers included) and
the LSH arm is asserted to stay under ``--max-peak-gb`` at every size.

The run emits ``BENCH_planning.json`` in the repository root with the
headline numbers.  Unlike other ``BENCH_*`` artifacts the planning report is
*tracked*: the committed file records the machine-independent oracles
(recall, subgraph, plan equality) next to the indicative timings.

Standalone (the CI smoke invocation uses ``--small --min-speedup 0``)::

    PYTHONPATH=src python benchmarks/bench_batch_planning.py
    PYTHONPATH=src python benchmarks/bench_batch_planning.py --n 1000000
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.dbscan import DBSCAN, NOISE_LABEL
from repro.clustering.distance import pairwise_distances
from repro.clustering.neighbors import (
    NeighborPlanner,
    build_lsh_neighbor_graph,
    build_neighbor_graph,
    sample_percentile_radius,
)
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.selection.covering import CoveringSelector
from repro.selection.set_cover import greedy_set_cover_eager
from repro.text.tokenizer import ApproxTokenizer

#: Where the headline numbers land (repository root).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_planning.json"

#: Default question-set sizes.  Every size runs the LSH arm; the exact arms
#: join in below their limits so the plan-quality oracles stay exercised.
DEFAULT_SIZES = (2000, 8000, 20000, 100_000)

#: Sizes of the CI smoke run; 5000 exercises the LSH recall oracle.
SMALL_SIZES = (300, 600, 5000)

#: Largest n the dense (quadratic-matrix) baseline arm runs at.
DENSE_ARM_LIMIT = 20_000

#: Largest n the exact sparse arm (and the LSH covering-equality and
#: cluster-speedup comparisons against it) runs at.
EXACT_ARM_LIMIT = 100_000

#: Largest n at which the exact epsilon-graph is rebuilt (untimed) to score
#: the LSH graph: subgraph property + edge recall.
RECALL_ORACLE_LIMIT = 20_000

#: Minimum acceptable LSH edge recall vs. the exact graph at oracle sizes.
RECALL_FLOOR = 0.95

#: Feature dimensionality of the synthetic workload.
DIMENSION = 8

#: Points per Gaussian blob (controls neighbourhood density).
BLOB_SIZE = 40

#: Ceiling percentile used to resolve the shared eps / covering threshold t.
#: Low on purpose: realistic planning radii keep neighbourhoods small
#: relative to n.
RADIUS_PERCENTILE = 0.5

#: The percentile is scaled down with n so the expected neighbourhood degree
#: stays ~constant instead of growing linearly — a fixed percentile at
#: n = 1M would mean ~5000 neighbours per point.  The scaling also keeps eps
#: in the within-blob distance regime: the workload's within-blob pair
#: fraction is BLOB_SIZE / n, and a fixed percentile crosses above it as n
#: grows, snapping eps from ~1.5 to ~6 (whole-blob neighbourhoods, mean
#: degree ~95) between n = 8000 and n = 20000.
TARGET_DEGREE = 32


def radius_percentile_for(n: int) -> float:
    """Resolution percentile keeping expected degree ~TARGET_DEGREE at scale."""
    return min(RADIUS_PERCENTILE, 100.0 * TARGET_DEGREE / n)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _traced(fn):
    """Run ``fn`` and return (result, seconds, peak_traced_bytes)."""
    tracemalloc.start()
    try:
        result, seconds = _timed(fn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, seconds, peak


def make_features(n: int, m: int, seed: int = 11):
    """Blobby question/pool feature matrices (no pair objects)."""
    rng = np.random.default_rng(seed)
    num_blobs = max(1, n // BLOB_SIZE)
    centers = rng.normal(scale=4.0, size=(num_blobs, DIMENSION))
    assignments = rng.integers(0, num_blobs, size=n)
    question_features = centers[assignments] + rng.normal(scale=0.25, size=(n, DIMENSION))
    pool_assignments = rng.integers(0, num_blobs, size=m)
    pool_features = centers[pool_assignments] + rng.normal(scale=0.25, size=(m, DIMENSION))
    return question_features, pool_features


def make_pairs(n: int, m: int, seed: int = 11):
    """Synthetic question/pool EntityPairs for the covering arms.

    Only built at sizes where a covering arm runs — a million EntityPair
    objects would dominate the workload setup without being consumed.
    """
    rng = np.random.default_rng(seed + 1)

    def make_pair(tag: str, index: int, label: MatchLabel | None) -> EntityPair:
        values = {"name": f"{tag} item {index}", "price": str(index % 997)}
        return EntityPair(
            pair_id=f"{tag}-{index}",
            left=Record(record_id=f"{tag}-l{index}", values=values),
            right=Record(record_id=f"{tag}-r{index}", values=values),
            label=label,
        )

    questions = [make_pair("q", i, None) for i in range(n)]
    pool = [make_pair("d", i, MatchLabel(int(rng.integers(0, 2)))) for i in range(m)]
    return questions, pool


def make_batches(questions, batch_size: int = 8, seed: int = 5) -> list[QuestionBatch]:
    """Chunk a shuffled question order into batches (shared by all arms)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(questions))
    batches = []
    for batch_id, start in enumerate(range(0, len(order), batch_size)):
        indices = tuple(int(i) for i in order[start : start + batch_size])
        batches.append(
            QuestionBatch(
                batch_id=batch_id,
                indices=indices,
                pairs=tuple(questions[i] for i in indices),
            )
        )
    return batches


# -- the dense baseline: the pre-refactor planning implementation -------------


def baseline_dbscan(features: np.ndarray, eps: float, min_samples: int = 2):
    """Pre-refactor DBSCAN: dense matrix, per-point neighbour lists, list BFS."""
    n = features.shape[0]
    distances = pairwise_distances(features)
    neighbour_lists = [np.flatnonzero(distances[i] <= eps) for i in range(n)]
    core_mask = np.array(
        [len(neighbours) >= min_samples for neighbours in neighbour_lists]
    )
    labels = np.full(n, NOISE_LABEL, dtype=int)
    cluster_id = 0
    for point in range(n):
        if labels[point] != NOISE_LABEL or not core_mask[point]:
            continue
        labels[point] = cluster_id
        frontier = list(neighbour_lists[point])
        while frontier:
            neighbour = int(frontier.pop())
            if labels[neighbour] == NOISE_LABEL:
                labels[neighbour] = cluster_id
                if core_mask[neighbour]:
                    frontier.extend(
                        int(candidate)
                        for candidate in neighbour_lists[neighbour]
                        if labels[candidate] == NOISE_LABEL
                    )
        cluster_id += 1
    return labels


def baseline_covering(
    batches, question_features, pool, pool_features, threshold: float
):
    """Pre-refactor covering selection: dense (n, m) matrix, eager set cover."""
    from repro.clustering.distance import cross_distances
    from repro.data.serialization import serialize_pair

    tokenizer = ApproxTokenizer()
    distances = cross_distances(question_features, pool_features)
    num_questions, num_pool = distances.shape
    coverage = [
        frozenset(np.flatnonzero(distances[:, demo] < threshold).tolist())
        for demo in range(num_pool)
    ]
    generation = greedy_set_cover_eager(num_questions, coverage, weights=None)
    demonstration_set = list(generation.selected)
    for question_index in sorted(generation.uncovered_items):
        nearest = int(np.argmin(distances[question_index]))
        if nearest not in demonstration_set:
            demonstration_set.append(nearest)
    token_weights = {
        demo: max(1.0, float(tokenizer.count(serialize_pair(pool[demo]))))
        for demo in demonstration_set
    }
    per_batch = []
    for batch in batches:
        batch_questions = list(batch.indices)
        local_coverage = []
        for demo in demonstration_set:
            local_coverage.append(
                frozenset(
                    position
                    for position, question_index in enumerate(batch_questions)
                    if distances[question_index, demo] < threshold
                )
            )
        solution = greedy_set_cover_eager(
            len(batch_questions),
            local_coverage,
            weights=[token_weights[demo] for demo in demonstration_set],
        )
        chosen = [demonstration_set[position] for position in solution.selected]
        for position in sorted(solution.uncovered_items):
            question_index = batch_questions[position]
            nearest_demo = min(
                demonstration_set, key=lambda demo: distances[question_index, demo]
            )
            if nearest_demo not in chosen:
                chosen.append(nearest_demo)
        per_batch.append(tuple(dict.fromkeys(chosen)))
    return tuple(per_batch)


# -- the three arms ------------------------------------------------------------


def run_dense_arm(question_features, pool_features, pool, batches, eps, threshold):
    labels, cluster_seconds = _timed(lambda: baseline_dbscan(question_features, eps))
    selections, covering_seconds = _timed(
        lambda: baseline_covering(
            batches, question_features, pool, pool_features, threshold
        )
    )
    return {
        "labels": labels,
        "selections": selections,
        "cluster_seconds": cluster_seconds,
        "covering_seconds": covering_seconds,
    }


def run_sparse_arm(question_features, pool_features, pool, batches, eps, threshold):
    # approx_threshold=None pins this arm to the *exact* blocked join at every
    # size — without it, the planner's default would route n > 100k to LSH and
    # the arm would stop being an exact baseline.
    planner = NeighborPlanner(dense_threshold=0, approx_threshold=None)
    clusterer = DBSCAN(eps=eps, min_samples=2, planner=planner)
    fitted, cluster_seconds = _timed(lambda: clusterer.fit(question_features))
    selector = CoveringSelector(threshold=threshold, planner=planner)
    result, covering_seconds = _timed(
        lambda: selector.select(batches, question_features, pool, pool_features)
    )
    return {
        "labels": fitted.labels,
        "selections": tuple(batch.pool_indices for batch in result.per_batch),
        "cluster_seconds": cluster_seconds,
        "covering_seconds": covering_seconds,
    }


def run_lsh_arm(
    question_features, pool_features, pool, batches, eps, threshold, with_covering
):
    # approx_threshold=0 (with dense_threshold=0) forces every self-join
    # through the MinHash-LSH epsilon-graph; cross joins (covering) stay
    # exact by design, so selections remain comparable to the exact arm.
    planner = NeighborPlanner(dense_threshold=0, approx_threshold=0)
    clusterer = DBSCAN(eps=eps, min_samples=2, planner=planner)
    fitted, cluster_seconds = _timed(lambda: clusterer.fit(question_features))
    selections = None
    covering_seconds = None
    if with_covering:
        selector = CoveringSelector(threshold=threshold, planner=planner)
        result, covering_seconds = _timed(
            lambda: selector.select(batches, question_features, pool, pool_features)
        )
        selections = tuple(batch.pool_indices for batch in result.per_batch)
    stats = planner.stats()
    return {
        "labels": fitted.labels,
        "selections": selections,
        "cluster_seconds": cluster_seconds,
        "covering_seconds": covering_seconds,
        "lsh_candidates": stats.lsh_candidates,
        "lsh_edges": stats.lsh_edges,
    }


# -- the LSH graph-quality oracle ---------------------------------------------


def _edge_keys(graph) -> np.ndarray:
    """Directed edges of a CSR graph as sorted composite uint64 keys."""
    counts = np.diff(graph.indptr)
    rows = np.repeat(np.arange(graph.num_rows, dtype=np.uint64), counts)
    return rows * np.uint64(graph.num_cols) + graph.indices.astype(np.uint64)


def score_lsh_graph(features: np.ndarray, eps: float) -> dict[str, object]:
    """Rebuild both graphs untimed and score LSH against the exact oracle.

    The LSH builder verifies every candidate with exact distances, so a
    correct implementation yields a subgraph of the exact graph — recall
    (edge ratio, clamped at 1) is then the only quality degree of freedom.
    Edges whose distance ties ``eps`` exactly may round differently under
    the two exact formulas (see ``build_lsh_neighbor_graph``); such boundary
    ties count as agreements.
    """
    from repro.clustering.distance import elementwise_distances

    exact = build_neighbor_graph(features, eps, inclusive=True)
    approx, num_candidates = build_lsh_neighbor_graph(features, eps, inclusive=True)
    exact_keys = _edge_keys(exact)
    approx_keys = _edge_keys(approx)
    extra = np.setdiff1d(approx_keys, exact_keys)
    subgraph = True
    if extra.size:
        n = exact.num_cols
        rows = (extra // np.uint64(n)).astype(np.int64)
        cols = (extra % np.uint64(n)).astype(np.int64)
        distances = elementwise_distances(features[rows], features[cols])
        subgraph = bool(np.allclose(distances, eps, rtol=1e-9, atol=1e-12))
    recall = (
        min(1.0, float(len(approx_keys)) / float(len(exact_keys)))
        if len(exact_keys)
        else 1.0
    )
    return {
        "exact_edges": int(len(exact_keys)),
        "lsh_edges": int(len(approx_keys)),
        "lsh_candidates": int(num_candidates),
        "subgraph": subgraph,
        "recall": round(recall, 4),
    }


# -- the driver ----------------------------------------------------------------


def run_planning_bench(
    sizes,
    min_speedup: float,
    min_lsh_speedup: float,
    max_peak_gb: float,
    seed: int,
) -> dict[str, object]:
    results = []
    for n in sizes:
        m = max(50, min(2000, n // 10))
        covering_runs = n <= EXACT_ARM_LIMIT
        question_features, pool_features = make_features(n, m, seed)
        if covering_runs:
            questions, pool = make_pairs(n, m, seed)
            batches = make_batches(questions)
        else:
            pool, batches = None, None
        # All arms plan at identical radii, resolved once from a seeded
        # sample — radius resolution is part of the planner but not of this
        # stopwatch, which isolates the geometry consumers.  Above the dense
        # limit the percentile is scaled to hold expected degree ~constant.
        percentile = radius_percentile_for(n)
        eps = sample_percentile_radius(question_features, percentile)
        threshold = sample_percentile_radius(question_features, percentile * 0.8)

        entry: dict[str, object] = {
            "n": n,
            "m": m,
            "batches": len(batches) if batches is not None else 0,
            "radius_percentile": percentile,
            "eps": round(eps, 6),
        }

        dense = sparse = None
        if n <= DENSE_ARM_LIMIT:
            dense, dense_seconds, dense_peak = _traced(
                lambda: run_dense_arm(
                    question_features, pool_features, pool, batches, eps, threshold
                )
            )
            entry["dense_seconds"] = round(dense_seconds, 4)
            entry["dense_peak_bytes"] = dense_peak
            entry["dense_matrix_bytes"] = n * n * 8
        if n <= EXACT_ARM_LIMIT:
            sparse, sparse_seconds, sparse_peak = _traced(
                lambda: run_sparse_arm(
                    question_features, pool_features, pool, batches, eps, threshold
                )
            )
            entry["sparse_seconds"] = round(sparse_seconds, 4)
            entry["sparse_cluster_seconds"] = round(sparse["cluster_seconds"], 4)
            entry["sparse_peak_bytes"] = sparse_peak

        lsh, lsh_seconds, lsh_peak = _traced(
            lambda: run_lsh_arm(
                question_features,
                pool_features,
                pool,
                batches,
                eps,
                threshold,
                with_covering=covering_runs,
            )
        )
        entry["lsh_seconds"] = round(lsh_seconds, 4)
        entry["lsh_cluster_seconds"] = round(lsh["cluster_seconds"], 4)
        entry["lsh_peak_bytes"] = lsh_peak
        entry["lsh_candidates"] = lsh["lsh_candidates"]
        entry["lsh_edges"] = lsh["lsh_edges"]

        # -- plan-quality oracles (hard assertions, not just report fields) --
        if dense is not None and sparse is not None:
            if not np.array_equal(dense["labels"], sparse["labels"]):
                raise AssertionError(f"n={n}: sparse DBSCAN labels diverge from dense")
            if dense["selections"] != sparse["selections"]:
                raise AssertionError(
                    f"n={n}: sparse covering selections diverge from dense"
                )
            entry["dense_sparse_equal"] = True
            entry["speedup"] = (
                round(dense_seconds / sparse_seconds, 2) if sparse_seconds else None
            )
        if sparse is not None and lsh["selections"] is not None:
            # Covering radii and cross joins stay exact in every regime, so
            # the LSH arm's demonstration selections must match exactly.
            if lsh["selections"] != sparse["selections"]:
                raise AssertionError(
                    f"n={n}: LSH-arm covering selections diverge from exact sparse"
                )
            entry["lsh_selections_equal"] = True
        if sparse is not None:
            entry["lsh_cluster_speedup"] = (
                round(sparse["cluster_seconds"] / lsh["cluster_seconds"], 2)
                if lsh["cluster_seconds"]
                else None
            )
        if n <= RECALL_ORACLE_LIMIT:
            oracle = score_lsh_graph(question_features, eps)
            entry["lsh_oracle"] = oracle
            if not oracle["subgraph"]:
                raise AssertionError(
                    f"n={n}: LSH graph contains edges missing from the exact graph"
                )
            if oracle["recall"] < RECALL_FLOOR:
                raise AssertionError(
                    f"n={n}: LSH edge recall {oracle['recall']} below {RECALL_FLOOR}"
                )
        if max_peak_gb > 0 and lsh_peak > max_peak_gb * 1e9:
            raise AssertionError(
                f"n={n}: LSH arm peak {lsh_peak / 1e9:.2f} GB exceeds "
                f"the {max_peak_gb} GB budget"
            )

        results.append(entry)
        dense_text = (
            f"dense {entry['dense_seconds']:8.2f}s" if dense is not None else "dense      --"
        )
        sparse_text = (
            f"sparse {entry['sparse_seconds']:8.2f}s" if sparse is not None else "sparse      --"
        )
        print(
            f"n={n:>7} m={m:>5}  {dense_text}  {sparse_text}"
            f"  lsh {lsh_seconds:8.2f}s / {lsh_peak / 1e6:9.1f} MB"
            f"  recall {entry.get('lsh_oracle', {}).get('recall', '--')}",
            file=sys.stderr,
        )

    exact_entries = [e for e in results if "speedup" in e]
    lsh_entries = [e for e in results if "lsh_cluster_speedup" in e]
    largest = results[-1]
    headline: dict[str, object] = {
        "n": largest["n"],
        "lsh_seconds": largest["lsh_seconds"],
        "lsh_peak_bytes": largest["lsh_peak_bytes"],
    }
    if exact_entries:
        headline["speedup"] = exact_entries[-1]["speedup"]
        headline["speedup_n"] = exact_entries[-1]["n"]
    if lsh_entries:
        headline["lsh_cluster_speedup"] = lsh_entries[-1]["lsh_cluster_speedup"]
        headline["lsh_speedup_n"] = lsh_entries[-1]["n"]
    oracle_entries = [e for e in results if "lsh_oracle" in e]
    if oracle_entries:
        headline["lsh_recall_min"] = min(
            e["lsh_oracle"]["recall"] for e in oracle_entries
        )
    report = {
        "workload": {
            "dimension": DIMENSION,
            "blob_size": BLOB_SIZE,
            "radius_percentile": RADIUS_PERCENTILE,
            "target_degree": TARGET_DEGREE,
            "recall_floor": RECALL_FLOOR,
            "seed": seed,
        },
        "results": results,
        "headline": headline,
    }
    if min_speedup > 0:
        if not exact_entries:
            raise AssertionError("--min-speedup set but no dense-vs-sparse size ran")
        if exact_entries[-1]["speedup"] < min_speedup:
            raise AssertionError(
                f"headline speedup {exact_entries[-1]['speedup']}x below the "
                f"floor {min_speedup}x"
            )
    if min_lsh_speedup > 0:
        if not lsh_entries:
            raise AssertionError("--min-lsh-speedup set but no exact-sparse size ran")
        if lsh_entries[-1]["lsh_cluster_speedup"] < min_lsh_speedup:
            raise AssertionError(
                f"LSH cluster speedup {lsh_entries[-1]['lsh_cluster_speedup']}x "
                f"below the floor {min_lsh_speedup}x at n={lsh_entries[-1]['n']}"
            )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=lambda text: tuple(int(part) for part in text.split(",")),
        default=None,
        help="comma-separated question-set sizes (default: 2000,8000,20000,100000)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="append one extra size (e.g. --n 1000000) to the size list",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="tiny sizes for the CI smoke run (all oracles on, no timing floor)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the largest dense-vs-sparse speedup reaches this floor",
    )
    parser.add_argument(
        "--min-lsh-speedup",
        type=float,
        default=0.0,
        help="fail unless the largest LSH-vs-exact cluster speedup reaches this floor",
    )
    parser.add_argument(
        "--max-peak-gb",
        type=float,
        default=16.0,
        help="fail if the LSH arm's traced peak exceeds this budget (0 disables)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args()
    sizes = args.sizes or (SMALL_SIZES if args.small else DEFAULT_SIZES)
    if args.n is not None and args.n not in sizes:
        sizes = tuple(sorted((*sizes, args.n)))
    report = run_planning_bench(
        sizes, args.min_speedup, args.min_lsh_speedup, args.max_peak_gb, args.seed
    )
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["headline"], indent=2))


if __name__ == "__main__":
    main()
