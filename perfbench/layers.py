"""Benchmark-side tracing: wrap each layer's public calls from outside.

The program under test is not modified.  :class:`LayerTrace` replaces a
handful of public functions and methods of ``repro`` with thin wrappers that

* record spans (``batcher:run``, ``stage:*``, ``http:handle``,
  ``service:submit``, ``resolver:resolve``) in memory, written at the end as
  JSONL records in the shape :func:`repro.observability.export.read_trace_file`
  reads, so ``repro-trace`` renders them;
* count work (feature rows, edit-distance calls and DP cells, LLM calls and
  tokens) and accumulate busy time for calls that are too frequent to span;
* keep per-event samples (submit, queue wait, flush, HTTP handling) for
  percentiles.

Only layer *boundaries* become spans: calls made inside a pipeline stage are
timers, not child spans, so a stage's self time (``repro.observability.cli.
self_time``) is its whole duration and the six stages account for the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Pipeline stage name -> short name used in ``pipeline.<short>_s``.
STAGES = {
    "featurize": "featurize",
    "batch-questions": "batch",
    "select-demonstrations": "select",
    "render-prompts": "render",
    "inference": "inference",
    "parse-answers": "parse",
}

def _normalised_length(value) -> int:
    """Length of ``value`` as the edit-distance kernel normalises it."""
    return 0 if value is None else len(str(value).strip().lower())


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in ``[0, 1]``); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


class LayerTrace:
    """In-memory spans, counters and samples collected by layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stores: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes):
        """Record one span, parented to the calling thread's open span."""
        stack = self._stack()
        span_id = f"s{next(self._ids)}"
        if stack:
            trace_id, parent = stack[-1][0], stack[-1][1]
        else:
            trace_id, parent = f"t{span_id[1:]}", None
        stack.append((trace_id, span_id))
        started = time.perf_counter()
        status = "ok"
        try:
            yield attributes
        except BaseException:
            status = "error"
            raise
        finally:
            ended = time.perf_counter()
            stack.pop()
            record = {
                "trace": trace_id,
                "span": span_id,
                "parent": parent,
                "name": name,
                "start": started,
                "end": ended,
                "duration": ended - started,
                "status": status,
                "attributes": attributes,
            }
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    @contextmanager
    def scope(self, name: str):
        """Tag the calling thread with ``name`` (features / llm) for the call."""
        previous = getattr(self._local, "scope", None)
        self._local.scope = name
        try:
            yield
        finally:
            self._local.scope = previous

    @contextmanager
    def busy(self, name: str):
        """Add the call's wall time to ``name``; nested calls count once."""
        depth = getattr(self._local, name, 0)
        setattr(self._local, name, depth + 1)
        started = time.perf_counter()
        try:
            yield
        finally:
            setattr(self._local, name, depth)
            if depth == 0:
                self.add(name, time.perf_counter() - started)

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attribute: str, make_wrapper) -> None:
        original = owner.__dict__[attribute]
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, functools.wraps(original)(make_wrapper(original)))

    def install(self, service: bool = False) -> "LayerTrace":
        """Wrap the pipeline, feature, text, batching, selection and LLM layers.

        ``service=True`` also wraps the serving layers (HTTP routing, submit,
        the micro-batch queue and resolver flushes).
        """
        import repro.text.similarity as similarity
        from repro.batching.base import QuestionBatcher
        from repro.core.batcher import BatchER
        from repro.features.engine import FeatureStore
        from repro.llm.base import LLMClient
        from repro.pipeline.pipeline import Pipeline
        from repro.selection.base import DemonstrationSelector

        trace = self

        def run_stage(original):
            def wrapper(pipeline, stage, context):
                if stage.name == "inference":
                    trace.add("llm.questions", context.num_questions)
                with trace.span(f"stage:{stage.name}", questions=context.num_questions):
                    return original(pipeline, stage, context)
            return wrapper

        def batcher_run(original):
            def wrapper(framework, dataset, *args, **kwargs):
                with trace.span("batcher:run", dataset=dataset.name):
                    return original(framework, dataset, *args, **kwargs)
            return wrapper

        def extract_matrix(original):
            def wrapper(store, pairs):
                with trace._lock:
                    trace.stores[id(store)] = store
                trace.add("features.rows", len(pairs))
                with trace.scope("features"):
                    return original(store, pairs)
            return wrapper

        def edit_distance(original):
            def wrapper(left, right):
                started = time.perf_counter()
                distance = original(left, right)
                seconds = time.perf_counter() - started
                cells = _normalised_length(left) * _normalised_length(right)
                where = getattr(trace._local, "scope", None)
                with trace._lock:
                    counters = trace.counters
                    counters["text.edit_distance_calls"] += 1
                    counters["text.edit_distance_cells"] += cells
                    counters["text.edit_distance_s"] += seconds
                    if where is not None:
                        counters[f"text.edit_distance_calls.{where}"] += 1
                        counters[f"text.edit_distance_cells.{where}"] += cells
                        counters[f"text.edit_distance_s.{where}"] += seconds
                return distance
            return wrapper

        def timed(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    with trace.busy(name):
                        return original(*args, **kwargs)
                return wrapper
            return make

        def complete(original):
            def wrapper(client, prompt_text):
                with trace.scope("llm"):
                    return original(client, prompt_text)
            return wrapper

        def observe(response, seconds: float) -> None:
            with trace._lock:
                counters = trace.counters
                counters["llm.calls"] += 1
                counters["llm.prompt_tokens"] += response.prompt_tokens
                counters["llm.completion_tokens"] += response.completion_tokens
                counters["llm.call_s"] += seconds

        def client_init(original):
            def wrapper(client, *args, **kwargs):
                original(client, *args, **kwargs)
                client.add_completion_observer(observe)
            return wrapper

        self._patch(Pipeline, "run_stage", run_stage)
        self._patch(BatchER, "run", batcher_run)
        self._patch(FeatureStore, "extract_matrix", extract_matrix)
        self._patch(similarity, "levenshtein_distance", edit_distance)
        for cls in _with_subclasses(QuestionBatcher):
            if "create_batches" in cls.__dict__:
                self._patch(cls, "create_batches", timed("batching.create_batches_s"))
        for cls in _with_subclasses(DemonstrationSelector):
            if "select" in cls.__dict__:
                self._patch(cls, "select", timed("selection.select_s"))
        self._patch(LLMClient, "complete", complete)
        self._patch(LLMClient, "__init__", client_init)
        if service:
            self._install_service()
        return self

    def _install_service(self) -> None:
        from repro.pipeline.resolver import Resolver
        from repro.service.http import ServiceRouter
        from repro.service.microbatcher import RequestQueue
        from repro.service.service import ResolutionService

        trace = self

        def handle(original):
            def wrapper(router, method, path, *args, **kwargs):
                if method != "POST":
                    return original(router, method, path, *args, **kwargs)
                started = time.perf_counter()
                with trace.span("http:handle", path=path):
                    result = original(router, method, path, *args, **kwargs)
                trace.sample("http.handle_ms", (time.perf_counter() - started) * 1000)
                return result
            return wrapper

        def submit(original):
            def wrapper(service, *args, **kwargs):
                started = time.perf_counter()
                with trace.span("service:submit"):
                    future = original(service, *args, **kwargs)
                trace.sample("service.submit_ms", (time.perf_counter() - started) * 1000)
                return future
            return wrapper

        def get_batch(original):
            def wrapper(queue, *args, **kwargs):
                batch = original(queue, *args, **kwargs)
                now = queue.clock.monotonic()
                for request in batch:
                    trace.sample("service.queue_wait_ms", (now - request.enqueued_at) * 1000)
                return batch
            return wrapper

        def resolve(original):
            def wrapper(resolver, pairs):
                pairs = list(pairs)
                started = time.perf_counter()
                with trace.span("resolver:resolve", pairs=len(pairs)):
                    resolutions = original(resolver, pairs)
                trace.sample("service.flush_ms", (time.perf_counter() - started) * 1000)
                trace.sample("service.pairs_per_flush", len(pairs))
                return resolutions
            return wrapper

        self._patch(ServiceRouter, "handle", handle)
        self._patch(ResolutionService, "submit", submit)
        self._patch(RequestQueue, "get_batch", get_batch)
        self._patch(Resolver, "resolve", resolve)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- output -------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSONL (one span record per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            lines = [json.dumps(span, sort_keys=True) for span in self.spans]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def store_stats(self) -> dict[str, float]:
        """Feature-store hit rate and planner routing over every store seen."""
        hits = misses = dense = sparse = 0
        with self._lock:
            stores = list(self.stores.values())
        for store in stores:
            stats = store.stats()
            hits += stats.hits
            misses += stats.misses
            planning = stats.planning
            dense += int(planning.get("dense_graphs", 0))
            sparse += int(planning.get("sparse_graphs", 0)) + int(planning.get("lsh_graphs", 0))
        return {
            "features.store_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "clustering.dense_plans": dense,
            "clustering.sparse_plans": sparse,
        }

    def snapshot(self) -> dict[str, object]:
        """Counters (store stats folded in) and samples as plain JSON data."""
        with self._lock:
            counters = dict(self.counters)
            samples = {name: list(values) for name, values in self.samples.items()}
        counters.update(self.store_stats())
        return {"counters": counters, "samples": samples}


def _with_subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def stage_self_times(trace_file: Path) -> tuple[dict[str, float], float]:
    """Per-stage self time summed over the trace, and the root spans' wall time.

    Aggregation goes through :mod:`repro.observability`'s own reader and
    ``self_time``, so these numbers are the ones ``repro-trace`` shows.
    """
    from repro.observability.cli import build_forest, self_time
    from repro.observability.export import read_trace_file

    spans = read_trace_file(trace_file)
    roots, children = build_forest(spans)
    totals = {f"pipeline.{short}_s": 0.0 for short in STAGES.values()}
    for span in spans:
        kind, _, stage = str(span["name"]).partition(":")
        if kind == "stage" and stage in STAGES:
            totals[f"pipeline.{STAGES[stage]}_s"] += self_time(span, children)
    wall = sum(float(root["duration"]) for root in roots if root["name"] == "batcher:run")
    return totals, wall
