"""Run ``repro-serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python perfbench/serve_traced.py OUT_PREFIX [repro-serve args...]

The wrappers of :mod:`layers` (service layers included) are installed before
the server is built.  SIGTERM stops the server the way Ctrl-C does; then the
spans are written to ``OUT_PREFIX.trace.jsonl`` and the counters and samples
to ``OUT_PREFIX.layers.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main() -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    prefix = Path(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    from layers import LayerTrace

    trace = LayerTrace().install(service=True)
    from repro.service.cli import main as serve

    try:
        status = serve(sys.argv[2:])
    finally:
        trace.uninstall()
        trace.write_spans(prefix.with_name(prefix.name + ".trace.jsonl"))
        prefix.with_name(prefix.name + ".layers.json").write_text(
            json.dumps(trace.snapshot()), encoding="utf-8"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
