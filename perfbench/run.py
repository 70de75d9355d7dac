"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload run-wa --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it wraps each layer's public calls
(see :mod:`layers`), writes the spans to
``.perfbench_out/<workload>-seed<S>.trace.jsonl`` (render them with
``repro-trace``) and reports the per-layer metrics.

Every metric is printed by name with its unit; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when a correctness check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

from hostspeed import SpeedProbe, pin  # noqa: E402
from layers import STAGES, percentile, stage_self_times  # noqa: E402
from offline import WORKLOADS as OFFLINE  # noqa: E402

#: The seed whose prediction digests are recorded in ``expected.json``.
DEFAULT_SEED = 0
#: An offline run resolves each of this many sub-seeds of the workload seed once.
SUB_SEEDS = 3
#: Distance between consecutive sub-seeds (sub-seed 0 is the workload seed).
SUB_SEED_STRIDE = 1_000_003
#: Set-up-only processes per untraced offline run, besides the one per sub-seed.
EXTRA_OFFLINE_SETUPS = 2
#: Server start-ups per untraced ``serve-wa`` run (``setup_s`` is their median).
SERVE_SETUPS = 3
#: A send this much later than its due time counts as late.
LATE_S = 0.010
#: Offline runs are serial: one BLAS thread.  On a 2-vCPU VM a second one
#: saved 2% of a quiet run, but under a competing busy process the run slowed
#: by 9% with two threads and by 2% with one.
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: A run ends within this many seconds, even when the program hangs.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "success_share": "fraction",
    "f1": "%",
    "api_usd_per_1k_pairs": "USD",
    "labels_per_1k_pairs": "count",
    "llm_calls_per_1k_pairs": "count",
    "peak_rss_mb": "MB",
}

EDIT_METRICS = {
    f"text.edit_distance_{kind}{scope}": unit
    for kind, unit in (("calls", "count"), ("cells", "count"), ("s", "s"))
    for scope in ("", ".features", ".llm")
}

PER_LAYER_UNITS = {
    **{f"pipeline.{short}_s": "s" for short in STAGES.values()},
    "pipeline.stage_share": "fraction",
    "features.rows": "count",
    "features.store_hit_rate": "fraction",
    **EDIT_METRICS,
    "batching.create_batches_s": "s",
    "selection.select_s": "s",
    "clustering.dense_plans": "count",
    "clustering.sparse_plans": "count",
    "selection.labeled_pairs": "count",
    "prompting.unanswered": "count",
    "llm.calls": "count",
    "llm.prompt_tokens": "count",
    "llm.completion_tokens": "count",
    "llm.questions_per_call": "questions",
    "llm.call_s": "s",
    **{
        f"{name}.{tail}": "ms"
        for name in ("service.submit_ms", "service.queue_wait_ms", "service.flush_ms", "http.handle_ms")
        for tail in ("p50", "p95")
    },
    "service.pairs_per_flush": "pairs",
    "service.flushes": "count",
    "service.cache_hit_rate": "fraction",
    "service.inflight_joined": "count",
    "service.rejected": "count",
    "gen.sent": "count",
    "gen.failed": "count",
    "gen.late_ms_p95": "ms",
    "trace.overhead_share": "fraction",
}

#: Counters taken as they are from a trace snapshot.
TRACE_COUNTERS = (
    "features.rows", "features.store_hit_rate", *EDIT_METRICS,
    "batching.create_batches_s", "selection.select_s",
    "clustering.dense_plans", "clustering.sparse_plans",
    "llm.calls", "llm.prompt_tokens", "llm.completion_tokens", "llm.call_s",
)


class Checks:
    """Correctness checks of one run; every failure is kept for the report."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition


def details(**fields) -> None:
    """One diagnostic line on stderr (stdout carries the result)."""
    print("perfbench:", json.dumps(fields), file=sys.stderr)


def time_left() -> float:
    return BUDGET_S - (time.monotonic() - STARTED)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- offline workloads ------------------------------------------------------------


def run_worker(workload: str, seed: int, *extra: str) -> dict | None:
    """One offline iteration in a fresh process; ``None`` if it failed."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "offline.py"),
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **SERIAL_ENV},
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, time_left()),
    )
    if completed.returncode != 0:
        return None
    try:
        return json.loads(completed.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def check_iteration(workload: str, seed: int, report: dict | None, first: dict | None, checks: Checks) -> bool:
    if not checks.require(report is not None, "offline worker failed"):
        return False
    expected_questions = min(report["test_split"], report["max_questions"] or report["test_split"])
    ok = checks.require(
        report["num_predictions"] == report["num_questions"] == expected_questions,
        f"{report['num_predictions']} predictions for {expected_questions} questions",
    )
    ok &= checks.require(report["labels_valid"], "a prediction is not a 0/1 label")
    ok &= checks.require(
        report["exact"]["llm_calls"] == report["num_batches"],
        f"{report['exact']['llm_calls']} LLM calls for {report['num_batches']} batches",
    )
    if first is not None:
        ok &= checks.require(
            report["exact"] == first["exact"] and report["digest"] == first["digest"],
            "counters or predictions differ between iterations of one seed",
        )
    if seed == DEFAULT_SEED:
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())[workload]
        ok &= checks.require(
            report["digest"] == expected, f"predictions digest {report['digest']} != recorded {expected}"
        )
    return ok


def offline_quality(reports: list[dict]) -> dict[str, float]:
    """Quality and cost over the sub-seeds' iterations."""
    per_1k = 1000.0 / sum(report["num_questions"] for report in reports)
    return {
        "f1": statistics.fmean(report["f1"] for report in reports),
        "api_usd_per_1k_pairs": sum(report["api_cost"] for report in reports) * per_1k,
        "labels_per_1k_pairs": sum(report["exact"]["labeled_pairs"] for report in reports) * per_1k,
        "llm_calls_per_1k_pairs": sum(report["exact"]["llm_calls"] for report in reports) * per_1k,
    }


def sub_seed(seed: int, index: int) -> int:
    """Dataset and config seed of the ``index``-th sub-seed of workload seed ``seed``."""
    return seed + SUB_SEED_STRIDE * index


def run_offline(workload: str, seed: int, checks: Checks) -> tuple[dict, int, int]:
    """One ``BatchER.run`` per sub-seed, then set-up-only processes.

    The work is fixed, so every commit's medians cover the same datasets
    however fast it runs.  ``setup_s`` is the median over every process.
    """
    reports: list[dict] = []
    for index in range(SUB_SEEDS):
        iteration_seed = sub_seed(seed, index)
        report = run_worker(workload, iteration_seed)
        if not check_iteration(workload, iteration_seed, report, None, checks):
            return {}, index + 1, 1
        reports.append(report)
        details(
            **{key: report[key] for key in ("setup_s", "setup_cpu_s", "run_s", "run_cpu_s", "run_wall_s", "speed")},
            exact=report["exact"], digest=report["digest"][:16],
        )
    setups = [report["setup_s"] for report in reports]
    for index in range(EXTRA_OFFLINE_SETUPS):
        report = run_worker(workload, sub_seed(seed, index % SUB_SEEDS), "--setup-only")
        if not checks.require(report is not None, "offline set-up failed"):
            return {}, SUB_SEEDS, 1
        setups.append(report["setup_s"])
    details(setups_s=setups)
    run_ms = [report["run_s"] * 1000 for report in reports]
    metrics = {
        "setup_s": median(setups),
        "pairs_per_s": median([report["num_questions"] / report["run_s"] for report in reports]),
        "latency_p50_ms": median(run_ms),
        "latency_p95_ms": percentile(run_ms, 0.95),
        "success_share": 1.0,
        **offline_quality(reports),
        "peak_rss_mb": max(report["peak_rss_mb"] for report in reports),
    }
    return metrics, SUB_SEEDS, 0


def run_offline_traced(workload: str, seed: int, checks: Checks) -> tuple[dict, int, int]:
    trace_file = OUT / f"{workload}-seed{seed}.trace.jsonl"
    plain = run_worker(workload, seed)
    plain_ok = check_iteration(workload, seed, plain, None, checks)
    traced = run_worker(workload, seed, "--trace-out", str(trace_file))
    traced_ok = check_iteration(workload, seed, traced, plain if plain_ok else None, checks)
    attempted, failed = 2, 2 - plain_ok - traced_ok
    if not (plain_ok and traced_ok):
        return {}, attempted, failed
    counters = traced["trace"]["counters"]
    stages, wall = stage_self_times(trace_file)
    metrics = {
        **stages,
        "pipeline.stage_share": sum(stages.values()) / wall,
        **{name: counters.get(name, 0.0) for name in TRACE_COUNTERS},
        "selection.labeled_pairs": traced["exact"]["labeled_pairs"],
        "prompting.unanswered": traced["num_unanswered"],
        "llm.questions_per_call": counters["llm.questions"] / counters["llm.calls"],
        "trace.overhead_share": traced["run_s"] / plain["run_s"] - 1.0,
    }
    # The serving layers and the load generator are not on this path.
    metrics.update({name: 0.0 for name in PER_LAYER_UNITS if name.startswith(("service.", "http.", "gen."))})
    return metrics, attempted, failed


# -- serving workload ---------------------------------------------------------------


def serve_cpus() -> tuple[int, set[int]]:
    """The server's CPU, and the generator's (the others, when there are any)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], set(cpus[1:]) or {cpus[0]}


def start_server(probe: SpeedProbe, server_cpu: int, trace_prefix: Path | None = None):
    """A started server and its set-up time in reference seconds."""
    from serve import Server

    server = Server(OUT, trace_prefix=trace_prefix, cpu=server_cpu)
    return server, server.setup_cpu_s * probe.speed(server.spawned, server.ready)


def serve_session(requests, probe: SpeedProbe, server_cpu: int, trace_prefix: Path | None = None) -> dict:
    """One server process under the open-loop load; returns what was observed.

    ``serve_s`` is the server's CPU time over the load, in reference seconds.
    """
    from serve import send_open_loop

    server, setup_s = start_server(probe, server_cpu, trace_prefix)
    try:
        cpu_before, started = server.cpu_seconds(), time.perf_counter()
        outcomes = send_open_loop(server, requests)
        cpu_s, ended = server.cpu_seconds() - cpu_before, time.perf_counter()
        status, body = server.get("/stats")
        stats = json.loads(body) if status == 200 else None
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    speed = probe.speed(started, ended)
    details(serve_cpu_s=cpu_s, serve_wall_s=ended - started, speed=speed)
    return {
        "setup_s": setup_s, "outcomes": outcomes, "serve_s": cpu_s * speed, "stats": stats, "rss": rss,
    }


def check_serve(requests, outcomes, stats, checks: Checks) -> int:
    """Count failed requests; the session's ``/stats`` must be readable."""
    failed = sum(not outcome.ok for outcome in outcomes)
    checks.require(failed == 0, f"{failed} of {len(requests)} requests failed or were malformed")
    checks.require(stats is not None, "GET /stats failed")
    return failed


def reference_latencies_ms(outcomes, probe: SpeedProbe) -> list[float]:
    """Each request's latency with the server's CPU work at reference speed.

    The server used ``c`` CPU seconds while the request was out, at host
    speed ``v`` (:mod:`hostspeed`); at the reference speed that work takes
    ``c * v`` seconds, so ``c * (1 - v)`` comes off the latency.  Waits
    (the micro-batch deadline, lateness) stay as they were.  A failed
    request keeps the client's time limit.
    """
    latencies = []
    for outcome in outcomes:
        latency = outcome.latency_s
        if outcome.ok:
            speed = probe.speed(outcome.sent_at, outcome.done_at)
            latency -= outcome.server_cpu_s * (1.0 - speed)
        latencies.append(latency * 1000)
    return latencies


def run_serve(seed: int, seconds: float, checks: Checks) -> tuple[dict, int, int]:
    from repro import evaluate_predictions
    from repro.data.schema import MatchLabel
    from serve import RATE, build_requests

    requests = build_requests(seed, max(1, round(RATE * seconds)))
    server_cpu, generator_cpus = serve_cpus()
    pin(0, generator_cpus)  # this thread and the ones it starts
    probe = SpeedProbe(cpu=server_cpu).start()
    try:
        session = serve_session(requests, probe, server_cpu)
        setups = [session["setup_s"]]
        for _ in range(SERVE_SETUPS - 1):
            if time_left() < 60:
                break
            server, setup_s = start_server(probe, server_cpu)
            server.stop()
            setups.append(setup_s)
    finally:
        probe.stop()
    outcomes, stats = session["outcomes"], session["stats"]
    failed = check_serve(requests, outcomes, stats, checks)
    attempted = len(requests)
    details(
        setups_s=setups,
        sent=sum(outcome.sent for outcome in outcomes),
        failed=sum(not outcome.ok for outcome in outcomes),
        late_ms_p95=percentile([outcome.late_s * 1000 for outcome in outcomes], 0.95),
        late_share=sum(outcome.late_s > LATE_S for outcome in outcomes) / attempted,
        late_ms_max=max(outcome.late_s for outcome in outcomes) * 1000,
    )
    if stats is None or failed == attempted:
        return {}, attempted, failed
    # F1 over the distinct pairs answered (a cached pair answers the same).
    gold, predicted = {}, {}
    for request, outcome in zip(requests, outcomes):
        if outcome.ok:
            gold.update(zip(request.pair_ids, request.gold))
            predicted.update(zip(request.pair_ids, outcome.labels))
    pairs_sent = sum(len(request.pair_ids) for request in requests)
    pairs_answered = sum(len(request.pair_ids) for request, outcome in zip(requests, outcomes) if outcome.ok)
    per_1k = 1000.0 / pairs_sent
    latencies_ms = reference_latencies_ms(outcomes, probe)
    details(
        raw_latency_p50_ms=percentile([outcome.latency_s * 1000 for outcome in outcomes], 0.50),
        raw_latency_p95_ms=percentile([outcome.latency_s * 1000 for outcome in outcomes], 0.95),
    )
    metrics = {
        "setup_s": median(setups),
        # Pairs answered per reference second of server CPU spent serving them.
        "pairs_per_s": pairs_answered / session["serve_s"],
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p95_ms": percentile(latencies_ms, 0.95),
        "success_share": (attempted - failed) / attempted,
        "f1": evaluate_predictions(
            [MatchLabel(gold[pair_id]) for pair_id in gold],
            [MatchLabel(predicted[pair_id]) for pair_id in gold],
        ).f1,
        "api_usd_per_1k_pairs": stats["cost"]["api_cost"] * per_1k,
        "labels_per_1k_pairs": stats["cost"]["num_labeled_pairs"] * per_1k,
        "llm_calls_per_1k_pairs": stats["llm_calls"] * per_1k,
        "peak_rss_mb": session["rss"],
    }
    return metrics, attempted, failed


def run_serve_traced(seed: int, seconds: float, checks: Checks) -> tuple[dict, int, int]:
    """Half the load untraced, then the same requests against a traced server."""
    from serve import RATE, build_requests

    requests = build_requests(seed, max(1, round(RATE * seconds / 2)))
    server_cpu, generator_cpus = serve_cpus()
    pin(0, generator_cpus)
    prefix = OUT / f"serve-wa-seed{seed}"
    probe = SpeedProbe(cpu=server_cpu).start()
    try:
        plain_session = serve_session(requests, probe, server_cpu)
        traced_session = serve_session(requests, probe, server_cpu, trace_prefix=prefix)
    finally:
        probe.stop()
    plain, plain_stats = plain_session["outcomes"], plain_session["stats"]
    traced, stats = traced_session["outcomes"], traced_session["stats"]
    failed = check_serve(requests, plain, plain_stats, checks) + check_serve(requests, traced, stats, checks)
    attempted = 2 * len(requests)
    if stats is None or plain_stats is None or failed == attempted:
        return {}, attempted, failed
    layers = json.loads(prefix.with_name(prefix.name + ".layers.json").read_text())
    counters, samples = layers["counters"], layers["samples"]
    stages, _ = stage_self_times(prefix.with_name(prefix.name + ".trace.jsonl"))
    flushed = samples.get("service.flush_ms", [])
    metrics = {
        **stages,
        "pipeline.stage_share": sum(stages.values()) / (sum(flushed) / 1000) if flushed else 0.0,
        **{name: counters.get(name, 0.0) for name in TRACE_COUNTERS},
        "selection.labeled_pairs": stats["cost"]["num_labeled_pairs"],
        "prompting.unanswered": sum(outcome.unanswered for outcome in traced if outcome.ok),
        "llm.questions_per_call": counters.get("llm.questions", 0.0) / max(1.0, counters.get("llm.calls", 0.0)),
        **{
            f"{name}.{tail}": percentile(samples.get(name, []), share)
            for name in ("service.submit_ms", "service.queue_wait_ms", "service.flush_ms", "http.handle_ms")
            for tail, share in (("p50", 0.50), ("p95", 0.95))
        },
        "service.pairs_per_flush": statistics.fmean(samples.get("service.pairs_per_flush", [0])),
        "service.flushes": stats["flushes"],
        "service.cache_hit_rate": stats["cache_hit_rate"],
        "service.inflight_joined": stats["inflight_joined"],
        "service.rejected": stats["rejected_overload"] + stats["rejected_budget"] + stats["rejected_degraded"],
        "gen.sent": sum(outcome.sent for outcome in traced),
        "gen.failed": sum(not outcome.ok for outcome in traced),
        "gen.late_ms_p95": percentile([outcome.late_s * 1000 for outcome in traced], 0.95),
        "trace.overhead_share": (
            sum(outcome.latency_s for outcome in traced) / sum(outcome.latency_s for outcome in plain) - 1.0
        ),
    }
    return metrics, attempted, failed


# -- entry point ------------------------------------------------------------------------

WORKLOAD_NAMES = (*OFFLINE, "serve-wa")


def _terminate(signum, frame) -> None:
    # Unwinding runs the ``finally`` blocks that stop the servers started.
    raise SystemExit(f"perfbench: stopped by signal {signum}")


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="Benchmark of the BatchER reproduction.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="serve-wa: seconds of open-loop load; an offline run does a fixed amount of work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    checks = Checks()
    try:
        if args.workload in OFFLINE:
            if args.trace:
                metrics, attempted, failed = run_offline_traced(args.workload, args.seed, checks)
            else:
                metrics, attempted, failed = run_offline(args.workload, args.seed, checks)
        elif args.trace:
            metrics, attempted, failed = run_serve_traced(args.seed, args.seconds, checks)
        else:
            metrics, attempted, failed = run_serve(args.seed, args.seconds, checks)
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        # A process that would not start, answer or finish: report, do not hang.
        checks.require(False, f"{type(error).__name__}: {error}")
        metrics, attempted, failed = {}, 1, 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = not checks.failures and set(metrics) >= set(units)
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    for name, unit in units.items():
        value = metrics.get(name, math.nan)
        print(f"{name:32s} {value:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
