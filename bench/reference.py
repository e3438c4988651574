"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of the CPU a run gets can change by a third
within seconds and stay changed for minutes, so the same program measured
a minute apart reads very differently. The benchmark times this kernel
before and after every block of samples and reports each sample at the
reference speed:

    reported = measured * NOMINAL_MS / mean(reference_ms before, after)

The kernel is the benchmark's own and never calls the program, so a change
to the program moves the reported numbers by exactly its own effect. Its
mix follows the program's: vector-matrix products over a working set of
the size of the paper-dims LSTM weights, outer products that allocate and
write matrices of that size (the backward pass's weight gradients),
many tiny array operations (the per-op interpreter overhead that dominates
at small dims), text-to-float parsing, and small Python objects. The raw times and the
reference times are in each run's report.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 10.0  # about what the kernel takes on one 2.0 GHz Xeon core
SAMPLES = 5  # kernel runs per calibration point; their median ignores a spike


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices = [rng.random((300, 300)) * 0.01 for _ in range(16)]
        self.x = rng.random(300)
        self.text = " ".join(f"{v:.5f}" for v in rng.random(3000))
        self.small = rng.random(16)

    def _kernel(self) -> None:
        x = self.x
        for _ in range(2):
            for m in self.matrices:
                x = np.tanh(x @ m)
                np.outer(x, x)
        v = self.small
        for _ in range(300):
            v = np.tanh(v * 0.5 + v)
            _ = {"value": v, "parts": [v]}
        values = [float(v) for v in self.text.split(" ")]
        table = {}
        for i, v in enumerate(values):
            table[i] = (i, v)

    def calibrate(self) -> float:
        """Median milliseconds of a few kernel runs: the machine's speed now."""
        times = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self._kernel()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)
