"""Host speed probe: how fast the CPU a process runs on is right now.

On a shared host the same serial Python work can take 1x or 2x the CPU time
from one second to the next, with no steal time reported to the guest (a
busy neighbour on the other hyperthread of the physical core, for example).
On an idle 2-vCPU Xeon VM a fixed pure-Python loop, timed every 0.3 s, took
either about 20 ms or about 40 ms of CPU time, holding each for seconds; the
slow share of a 20 s window ranged from 0.42 to 0.72, and one
``BatchER.run`` of one seed took 7.3 s of CPU time in one run and 10.9 s in
the next.

:class:`SpeedProbe` runs the fixed kernel :func:`reference_kernel` on a
thread every ``interval`` seconds and keeps its thread CPU time.  The probe
and the measured work share one CPU (:func:`pin`), so the probe sees the
slow-downs the work sees.  :meth:`SpeedProbe.speed` is the mean of
``(REFERENCE_S / duration) ** SPEED_EXPONENT`` over a window: 1.0 when the
host ran at the reference speed throughout, below 1.0 when it ran slower.
CPU seconds times that speed are *reference seconds*, the time the work
would have taken at the reference speed.  The kernel is stdlib-only and
calls nothing of the program, so a change to the program cannot change the
speed it reports.
"""

from __future__ import annotations

import os
import threading
import time

#: CPU seconds :func:`reference_kernel` takes at the reference speed (the
#: fast mode of a 2-vCPU Xeon VM, CPython 3.11).
REFERENCE_S = 0.00060
#: The program slows less than the kernel.  Over 60 ``BatchER.run`` calls per
#: workload (20 benchmark runs) on a 2-vCPU VM whose kernel speed ranged over
#: 0.42-0.91, CPU time grew as the 0.95th power of the kernel's on ``run-wa``
#: and as the 0.75th power on ``run-ag-semantic`` (numpy array work slows
#: less than interpreted Python).  A power between the two leaves either
#: workload about ``speed ** 0.1`` off: a 2x change in host speed moves a
#: timing by 7%, where with a power of 1.0 it moved ``run-ag-semantic`` by 19%.
SPEED_EXPONENT = 0.85
#: Seconds between probe kernels.  The probe then takes 3-6% of a CPU.
INTERVAL_S = 0.02

_WORDS = ("batch", "prompting", "entity", "resolution", "demonstration", "covering")


def reference_kernel() -> int:
    """A fixed pure-Python workload: small edit-distance tables and a dict."""
    counts: dict[str, int] = {}
    total = 0
    for left in _WORDS[:3] * 3:
        for right in _WORDS[3:]:
            previous = list(range(len(right) + 1))
            for i, a in enumerate(left, 1):
                current = [i]
                for j, b in enumerate(right, 1):
                    current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (a != b)))
                previous = current
            key = left[:3] + right[-3:]
            counts[key] = counts.get(key, 0) + previous[-1]
            total += previous[-1]
    return total + len(counts)


def pin(pid: int, cpus: set[int]) -> None:
    """Restrict ``pid`` (0: the calling thread) to ``cpus``, where the system allows it."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass  # unpinned, the probe may see another CPU than the work: noisier, still correct


def pin_to_one_cpu() -> None:
    """Restrict the calling thread, and the threads it starts, to its lowest CPU."""
    pin(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Times :func:`reference_kernel` on a daemon thread until stopped."""

    def __init__(self, interval: float = INTERVAL_S, cpu: int | None = None) -> None:
        self.interval = interval
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        if self.cpu is not None:
            pin(0, {self.cpu})
        while not self._stop.wait(self.interval):
            started = time.thread_time()
            reference_kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - started))

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean speed, relative to the reference, of the samples ending in ``[start, end]``.

        A window too short to hold a sample takes the nearest one.
        """
        window = [cpu for at, cpu in self.samples if start <= at <= end]
        if not window:
            if not self.samples:
                raise RuntimeError("no speed samples")
            window = [min(self.samples, key=lambda sample: abs(sample[0] - (start + end) / 2))[1]]
        return sum((REFERENCE_S / max(cpu, 1e-9)) ** SPEED_EXPONENT for cpu in window) / len(window)
