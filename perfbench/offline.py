"""One offline iteration in a fresh process: set up, run ``BatchER.run`` once.

Prints one JSON object on stdout: set-up and run times, peak RSS, the run's
quality and cost, its exact work counters and a digest of its predictions.
Times are reference seconds (:mod:`hostspeed`): the process runs on one CPU
next to a speed probe, and the main thread's CPU seconds are scaled by the
host speed the probe saw over the same interval; the raw wall and CPU
seconds are printed too.  With ``--trace-out`` the layer wrappers of :mod:`layers` are
installed first; the spans go to that file and the per-layer counters into
the printed object.  With ``--setup-only`` it stops after set-up and prints
only the set-up time.

    PYTHONPATH=src python perfbench/offline.py --workload run-wa --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

from hostspeed import SpeedProbe, pin_to_one_cpu  # noqa: E402

#: Offline workloads: dataset and the design-space point run on it.
WORKLOADS = {
    "run-wa": {"dataset": "wa", "config": {"max_questions": 2000}},
    "run-ag-semantic": {"dataset": "ag", "config": {"feature_extractor": "semantic"}},
}


def predictions_digest(predictions) -> str:
    """SHA-256 of the predicted labels, in question order."""
    return hashlib.sha256("".join(str(int(label)) for label in predictions).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    probe = SpeedProbe().start()
    trace = None
    if args.trace_out is not None:
        from layers import LayerTrace

        trace = LayerTrace().install()
    from repro import BatchER, BatcherConfig, load_dataset

    spec = WORKLOADS[args.workload]
    dataset = load_dataset(spec["dataset"], seed=args.seed)
    framework = BatchER(BatcherConfig(seed=args.seed, **spec["config"]))
    framework.build_context(dataset)  # set-up ends after a context build
    setup_cpu_s, setup_end = time.thread_time(), time.perf_counter()
    setup_s = setup_cpu_s * probe.speed(end=setup_end)
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0

    started_cpu, started = time.thread_time(), time.perf_counter()
    result = framework.run(dataset)
    run_cpu_s, ended = time.thread_time() - started_cpu, time.perf_counter()
    probe.stop()
    speed = probe.speed(started, ended)

    cost = result.cost
    report = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "run_s": run_cpu_s * speed,
        "run_cpu_s": run_cpu_s,
        "run_wall_s": ended - started,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_split": len(dataset.splits.test),
        "max_questions": framework.config.max_questions,
        "num_questions": result.num_questions,
        "num_batches": result.num_batches,
        "num_unanswered": result.num_unanswered,
        "num_predictions": len(result.predictions),
        "labels_valid": all(int(label) in (0, 1) for label in result.predictions),
        "f1": result.metrics.f1,
        "api_cost": cost.api_cost,
        "exact": {
            "llm_calls": cost.num_llm_calls,
            "prompt_tokens": cost.prompt_tokens,
            "completion_tokens": cost.completion_tokens,
            "labeled_pairs": cost.num_labeled_pairs,
        },
        "digest": predictions_digest(result.predictions),
    }
    if trace is not None:
        trace.uninstall()
        trace.write_spans(args.trace_out)
        report["trace"] = trace.snapshot()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
