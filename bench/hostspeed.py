"""Host-speed calibration: reports times at a fixed reference speed.

Small shared hosts change speed by up to ~1.8x within seconds, for
minutes at a time, as neighbours come and go; CPU time slows with wall
time, so the slowdown is the processor's, not scheduling.  A 20 s run
then measures the mix of fast and slow periods more than the program.

The benchmark therefore times a fixed pure-Python kernel and scales
measured seconds by ``REFERENCE_S / kernel seconds``:

* around every timed call of a call-loop workload, in the benchmark
  process, by :func:`kernel_seconds` before and after the call;
* during a serving phase, whose requests span three processes, by a
  :class:`Sampler` process that times the kernel every
  ``Sampler.INTERVAL_S``; only samples taken while no request was in
  flight are used, so the program's own CPU load never sets the factor.

A normalised second is a second on a host where the kernel takes
``REFERENCE_S``.  Raw seconds are kept beside the normalised ones in the
run's history record.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: Kernel seconds that define the reference speed: the kernel's fastest
#: time on an uncontended 2-vCPU x86_64 host at 2.1 GHz, Python 3.11.
REFERENCE_S = 0.0027


def _kernel() -> float:
    start = time.perf_counter()
    value = 0
    table = {}
    for i in range(20_000):
        value = (value * 31 + i) & 0xFFFFFFFF
        table[i & 255] = value
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """One calibration sample: the median of three kernel runs, so an
    interrupt during one run does not set the sample."""
    return statistics.median(_kernel() for _ in range(3))


def factor(before: float, after: float) -> float:
    """Raw-to-normalised seconds factor for work between two samples."""
    return REFERENCE_S / ((before + after) / 2)


def _sample_until_stopped(interval: float) -> None:
    """Sampler process body: time the kernel every ``interval`` seconds
    until standard input says stop (or closes), then print the samples.

    Each sample is (start time, kernel seconds); they go to standard
    output as one JSON list.
    """
    samples: List[Tuple[float, float]] = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], interval)[0]:
        start = time.perf_counter()
        samples.append((start, _kernel()))
    sys.stdin.readline()
    print(json.dumps(samples), flush=True)


class Sampler:
    """Samples host speed from a separate process while work runs.

    Use as a context manager around the work; afterwards
    :meth:`drop_busy` discards the samples that overlapped the work and
    :meth:`factor` gives the normalising factor for any time window
    (``time.perf_counter`` is one monotonic clock for all processes).
    The process is a plain child interpreter running this file, talked
    to over its standard streams: the serving process has threads, so it
    must not fork, and a ``multiprocessing`` spawn would also start a
    resource-tracker process that outlives the run.
    """

    #: Seconds between kernel runs (each ~3 ms: ~5% of one CPU).
    INTERVAL_S = 0.05
    #: Seconds added on each side of a window when picking its samples.
    PAD_S = 0.5
    #: Seconds added on each side of a busy window when dropping samples.
    BUSY_MARGIN_S = 0.005
    #: Seconds to wait for the process to start, answer or exit.
    TIMEOUT_S = 30.0

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._process: Optional[subprocess.Popen] = None

    def _read_line(self) -> str:
        """One line of the process's output, or '' on timeout or exit."""
        stdout = self._process.stdout
        if not select.select([stdout], [], [], self.TIMEOUT_S)[0]:
            return ""
        return stdout.readline()

    def __enter__(self) -> "Sampler":
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self.INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._read_line().strip() == "ready"
        except BaseException:
            self._stop()
            raise
        if not ready:
            self._stop()
            raise RuntimeError("host-speed sampler did not start")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._process.stdin.write("stop\n")
            self._process.stdin.flush()
            line = self._read_line()
            if line:
                self.samples = [tuple(s) for s in json.loads(line)]
        finally:
            self._stop()

    def _stop(self) -> None:
        """Close the process's streams and wait until it has ended."""
        process = self._process
        for stream in (process.stdin, process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            process.wait(self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def drop_busy(self, busy: Sequence[Tuple[float, float]]) -> None:
        """Keep only samples whose kernel run overlapped none of the
        ``busy`` (start, end) windows.

        A sample taken beside the program's work measures the CPU share
        the work leaves it, which shrinks as the work grows; the factor
        would then hide part of a slowdown.  An idle sample does not.
        """
        margin = self.BUSY_MARGIN_S
        self.samples = [
            (at, seconds) for at, seconds in self.samples
            if not any(at < end + margin and at + seconds > start - margin
                       for start, end in busy)
        ]

    def factor(self, start: float, end: float) -> float:
        """Raw-to-normalised factor for work between ``start`` and ``end``:
        the median sample within ``PAD_S`` of the window, else the nearest
        sample."""
        window = [seconds for at, seconds in self.samples
                  if start - self.PAD_S <= at <= end + self.PAD_S]
        if not window:
            middle = (start + end) / 2
            window = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return REFERENCE_S / statistics.median(window)


if __name__ == "__main__":
    _sample_until_stopped(float(sys.argv[1]))
