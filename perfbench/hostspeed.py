"""A fixed reference slice of work, timed between requests.

The benchmark runs on shared hosts whose speed swings by up to two times,
over milliseconds to minutes, alike for every workload: a 25 s window of
any workload sat 6-14% (one standard deviation) off its long-run mean on a
shared 2-core Intel Xeon VM.  Wall-clock latency then
measures the host as much as the program.  The reference slice is a fixed
mix of what the workloads do (float arithmetic in Python, list and dict
work, float formatting, small and medium numpy arrays) that uses nothing
from qlimits, so a change to qlimits cannot move it.  Dividing the
latencies of a run by the mean duration of the slices timed between its
requests cancels most of the drift.  That ratio is the unit ``ref``: one
``ref`` is the mean time the host took for one slice during the run, 1.0 to
1.2 ms on a shared 2-core Intel Xeon VM.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Run a slice after this much request time has passed since the last one.
INTERVAL_S = 0.05

_MATRICES = [np.array([[math.cos(k), -1j * math.sin(k)], [-1j * math.sin(k), math.cos(k)]])
             for k in (0.1, 0.2, 0.3)]
_VECTOR = np.exp(1j * np.linspace(0.0, 3.0, 4096))


def reference_slice() -> float:
    """Do the fixed work once; the result keeps it from being skipped."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(600):
        x = 1.0 + i * 1e-3
        acc += math.sin(x) * math.exp(-x) + math.sqrt(x)
        table[i % 37] = table.get(i % 37, 0.0) + x
    text = ",".join(repr(v * 1.1) for v in table.values())
    acc += len(text)
    state = np.array([1.0 + 0j, 0.0 + 0j])
    for _ in range(80):
        for m in _MATRICES:
            state = m @ state
    acc += float(abs(state[0]))
    vec = _VECTOR
    for _ in range(8):
        vec = vec * _VECTOR[::-1]
        acc += float(np.vdot(vec, vec).real)
    return acc


class HostSpeed:
    """Times a reference slice between requests, spread over the run.

    A slice runs before a request once ``interval_s`` of request time has
    passed since the last one.  A single slice says little about the
    request next to it: the host's speed also changes within milliseconds,
    and dividing each request by its neighbouring slices left it as noisy
    as before.  The mean of all the slices of a run, spread over the same
    time as its requests, follows the slow drift; that mean is the run's
    ``ref``.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.since = 0.0
        reference_slice()  # the first call pays for cold caches
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_slice()
        self.samples.append(time.perf_counter() - start)
        self.since = 0.0

    def before_request(self) -> None:
        """Take a slice if enough request time has passed since the last."""
        if self.since >= self.interval_s:
            self.sample()

    def after_request(self, seconds: float) -> None:
        self.since += seconds

    def ref_s(self) -> float:
        """The mean duration of one slice over the run, in seconds."""
        return statistics.fmean(self.samples)
