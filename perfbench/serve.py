"""The ``serve-wa`` workload: ``repro-serve`` in its own process, driven open loop.

:func:`build_requests` turns the workload seed into a request list (pairs of
the ``wa`` test split with a Zipf skew), :class:`Server` spawns the server
and times it to its first 200 from ``/readyz``, and :func:`send_open_loop`
sends the requests on a fixed schedule over keep-alive connections, timing
each from the moment it was due.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

from hostspeed import pin  # noqa: E402

#: ``repro-serve --data-seed`` (its default): the pool and the test split requests draw on.
DATA_SEED = 7
#: Requests per second sent by the generator (open loop).
RATE = 8.0
#: Keep-alive connections the generator sends over.  Enough that a send
#: rarely finds them all busy: with 2, a send that did went out late and the
#: open loop turned closed (2.5-6% of sends at 8 req/s on a 2-vCPU VM).
CONNECTIONS = 4
#: Pairs per request range from 1 to this.
MAX_PAIRS = 8
#: Zipf exponent of the pair popularity over the test split.
ZIPF_S = 1.0
#: Client-side limit: a request not answered by then has failed.
REQUEST_TIMEOUT_S = 30.0
#: Limit on server start-up (spawn to the first 200 from ``/readyz``).
READY_TIMEOUT_S = 90.0


@dataclass
class Request:
    body: bytes
    pair_ids: list[str]
    gold: list[int]


@dataclass
class Outcome:
    """One sent request: lateness and latency from the due time, and the check.

    ``sent_at`` and ``done_at`` are ``perf_counter`` times; ``server_cpu_s``
    is the CPU time the server used between them.
    """

    late_s: float = 0.0
    latency_s: float = REQUEST_TIMEOUT_S
    sent_at: float = 0.0
    done_at: float = 0.0
    server_cpu_s: float = 0.0
    ok: bool = False
    labels: list[int] | None = None
    unanswered: int = 0
    sent: bool = False


def build_requests(seed: int, count: int) -> list[Request]:
    """``count`` requests of 1..MAX_PAIRS ``wa`` test pairs, Zipf-skewed.

    The pairs come from the server's own test split in one fixed popularity
    order (the same hot pairs for every seed, as in real traffic); the
    workload seed draws the request sizes and the pairs.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro import load_dataset

    pairs = list(load_dataset("wa", seed=DATA_SEED).splits.test)
    random.Random(DATA_SEED).shuffle(pairs)
    rng = random.Random(seed)
    weights = list(itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, len(pairs) + 1)))
    sizes = [index % MAX_PAIRS + 1 for index in range(count)]
    rng.shuffle(sizes)
    requests = []
    for size in sizes:
        chosen: dict[str, object] = {}
        while len(chosen) < size:
            pair = rng.choices(pairs, cum_weights=weights)[0]
            chosen.setdefault(pair.pair_id, pair)
        entries = [
            {"pair_id": pair.pair_id, "left": dict(pair.left.values), "right": dict(pair.right.values)}
            for pair in chosen.values()
        ]
        requests.append(
            Request(
                body=json.dumps({"pairs": entries}).encode("utf-8"),
                pair_ids=list(chosen),
                gold=[int(pair.label) for pair in chosen.values()],
            )
        )
    return requests


class Server:
    """One ``repro-serve --dataset wa`` process, optionally with layer wrappers.

    Its stdout goes to a file (the address is read from there) and its
    per-request stderr log to ``/dev/null``: a pipe nobody reads would fill
    and stall the server.  With ``cpu`` it runs on that CPU only.
    ``spawned`` and ``ready`` are the ``perf_counter`` times of the spawn and
    of the first 200 from ``/readyz``; ``setup_cpu_s`` is the CPU time the
    server had used by then.
    """

    def __init__(self, out_dir: Path, trace_prefix: Path | None = None, cpu: int | None = None) -> None:
        serve_args = ["--dataset", "wa", "--port", "0", "--data-seed", str(DATA_SEED)]
        if trace_prefix is None:
            command = [sys.executable, "-m", "repro.service.cli", *serve_args]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"), str(trace_prefix), *serve_args]
        out_dir.mkdir(parents=True, exist_ok=True)
        self._stdout_path = out_dir / f"serve-{os.getpid()}.stdout"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.spawned = time.perf_counter()
        with self._stdout_path.open("w") as stdout:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=stdout, stderr=subprocess.DEVNULL
            )
        try:
            if cpu is not None:
                # Before the interpreter is up, so every thread it starts inherits it.
                pin(self.process.pid, {cpu})
            self.host, self.port = self._address()
            self.ready = self._wait_ready()
            self.setup_cpu_s = self.cpu_seconds()
        except BaseException:
            self.stop()
            raise

    def _address(self) -> tuple[str, int]:
        deadline = self.spawned + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro-serve exited with {self.process.returncode}")
            for line in self._stdout_path.read_text().splitlines():
                if " listening on http://" in line:
                    host, _, port = line.rsplit("http://", 1)[1].strip().rpartition(":")
                    return host, int(port)
            time.sleep(0.02)
        raise TimeoutError("repro-serve printed no address")

    def _wait_ready(self) -> float:
        deadline = self.spawned + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/readyz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter()
            time.sleep(0.01)
        raise TimeoutError("repro-serve never became ready")

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        """CPU seconds the server has used so far, all its threads together.

        Read from the server's process CPU-time clock, the clock id Linux's
        ``clock_getcpuclockid`` gives for its pid: nanosecond resolution, where
        ``/proc/<pid>/stat`` counts 10 ms ticks.
        """
        return time.clock_gettime((~self.process.pid << 3) | 2)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate the server and wait for it to end.

        SIGTERM, not SIGINT: a shell without job control starts background
        jobs with SIGINT ignored, and the children inherit that.
        """
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stdout_path.unlink(missing_ok=True)


def _check(request: Request, status: int, body: bytes) -> list[dict] | None:
    """The resolutions of a correct response, or ``None``.

    Correct means a 200 with one resolution per sent pair, in order, each
    echoing its ``pair_id`` and carrying a 0/1 label and an ``answered`` flag.
    """
    if status != 200:
        return None
    try:
        resolutions = json.loads(body)["resolutions"]
        if [entry["pair_id"] for entry in resolutions] != request.pair_ids:
            return None
        if not all(entry["label"] in (0, 1) and isinstance(entry["answered"], bool) for entry in resolutions):
            return None
    except (ValueError, KeyError, TypeError):
        return None
    return resolutions


def send_open_loop(server: Server, requests: list[Request], rate: float = RATE) -> list[Outcome]:
    """Send ``requests`` at ``rate`` per second; return their outcomes.

    Request ``i`` is due ``i / rate`` seconds after the start.  Each
    connection takes the next request, waits until it is due and sends it; a
    request taken after its due time goes out late, and its latency still
    counts from the due time.
    """
    outcomes = [Outcome() for _ in requests]
    next_index = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.1
    # Past this, a stalled server has failed the rest of the schedule.
    give_up = start + len(requests) / rate + REQUEST_TIMEOUT_S

    def connection_loop() -> None:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = next(next_index, None)
                if index is None or time.perf_counter() > give_up:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome = outcomes[index]
                outcome.sent = True
                cpu_before, outcome.sent_at = server.cpu_seconds(), time.perf_counter()
                outcome.late_s = max(0.0, outcome.sent_at - due)
                try:
                    connection.request(
                        "POST", "/resolve", body=requests[index].body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    body = response.read()
                    outcome.done_at = time.perf_counter()
                    outcome.server_cpu_s = server.cpu_seconds() - cpu_before
                    resolutions = _check(requests[index], response.status, body)
                except (OSError, http.client.HTTPException):
                    connection.close()
                    continue
                if resolutions is not None:
                    outcome.ok, outcome.latency_s = True, outcome.done_at - due
                    outcome.labels = [entry["label"] for entry in resolutions]
                    outcome.unanswered = sum(not entry["answered"] for entry in resolutions)
        finally:
            connection.close()

    threads = [threading.Thread(target=connection_loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
