"""How fast the host runs while a job runs, so job times can be reported
at one reference speed.

The CPUs of a shared host run slower or faster by tens of percent for
seconds to minutes at a time, and each process can land on a slow or a
fast stretch: the same batch of routing calls, in the same process
image, took 12 to 16 s in consecutive processes.  The benchmark therefore
runs a fixed kernel, :func:`speed_kernel`, beside every timed job and
reports the job's wall time multiplied by ``KERNEL_REF_S / mean kernel
time`` beside the job: its time at the speed of the host the benchmark
was defined on.  The raw wall times stay in the run record.

Where the kernel runs decides what it sees:

* :class:`HostSpeed` runs it inside the job's own process, between the
  job's calls, and each call is scaled by the kernels on either side of
  it.  This is for a job that is one process (a ``route-batch`` pass):
  a second process does not see that process's slow stretch.
* :class:`SpeedSampler` runs it in a side process every
  :data:`SAMPLE_PERIOD_S` for the whole of a job that spreads over
  several processes (a paper regeneration and its campaign workers, the
  server and the load generator, interpreter spawns), on each CPU in
  turn.  It reports each kernel's CPU time, not its wall time, so
  waiting for a CPU the job's own processes hold does not count as a
  slow host.

    python3 perfbench/hostspeed.py 0.02    # the side process itself
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

#: Mean time of one :func:`speed_kernel` on the host the benchmark was
#: defined on (2-vCPU Xeon at 2.0 GHz, quiet).
KERNEL_REF_S = 0.0022
#: Seconds between the starts of two kernels in :class:`SpeedSampler`
#: (about a tenth of one CPU).
SAMPLE_PERIOD_S = 0.02


def speed_kernel() -> int:
    """A fixed slice of interpreter and numpy work, about 2 ms; it
    touches nothing of the program."""
    import numpy as np

    acc = 0
    for i in range(18000):
        acc = (acc + i * i) % 1000003
    return acc + int(np.sort(np.arange(10000)[::-1])[0])


def factor_of(kernel_seconds) -> float:
    """Reference kernel time over the mean of ``kernel_seconds``."""
    kernel_seconds = list(kernel_seconds)
    return KERNEL_REF_S * len(kernel_seconds) / sum(kernel_seconds)


class HostSpeed:
    """Kernels run in this process, between the job's own calls.

    The mean (not the median) of the kernel times is used, so a kernel
    preempted by another process counts the way a preempted call does.
    """

    def __init__(self):
        speed_kernel()  # the first run imports numpy
        self.samples: list[float] = []

    def tick(self) -> None:
        t0 = time.perf_counter()
        speed_kernel()
        self.samples.append(time.perf_counter() - t0)


class SpeedSampler:
    """A side process running :func:`speed_kernel` every
    :data:`SAMPLE_PERIOD_S` while the ``with`` block runs.

    Record each job's ``(start, end)`` from ``time.perf_counter`` (the
    system-wide monotonic clock, shared with the side process) and, after
    the block, ask :meth:`factor` for it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, CPU seconds)
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             str(SAMPLE_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        if ready.strip() != "ready":
            self.__exit__(None, None, None)
            raise RuntimeError(f"speed sampler did not start: {ready!r}")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if exc[0] is None:
            self.samples = [tuple(s) for s in json.loads(out)]

    def factor(self, start: float, end: float) -> float:
        """The factor for a job that ran from ``start`` to ``end``: over
        the kernels started inside it, or the one nearest to it when the
        job was shorter than a period."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return factor_of(inside)


def sample(period: float) -> None:
    """The side process: run kernels until a line (or end of file) arrives
    on standard input, then print ``[[start, CPU seconds], ...]``.

    Successive kernels are pinned to each CPU in turn: the CPUs of a
    shared host change speed independently (at one moment one ran the
    kernel 30% slower than the other), and a job spread over several
    processes runs on all of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speed_kernel()
    print("ready", flush=True)
    samples = []
    while True:
        os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        t0 = time.perf_counter()
        c0 = time.thread_time()
        speed_kernel()
        samples.append((t0, time.thread_time() - c0))
        wait = max(0.0, period - (time.perf_counter() - t0))
        if select.select([sys.stdin], [], [], wait)[0]:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    sample(float(sys.argv[1]))
