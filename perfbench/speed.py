"""Machine-speed reference for the benchmark's timings.

On a shared host the same fixed work runs up to twice as slowly from one
minute to the next (a neighbour on the sibling hardware thread, memory
traffic), which swamps a 25% regression bound. So every run also times a
fixed reference task, interleaved with its jobs, and the workloads listed
in workloads.AT_REFERENCE_SPEED report their timings at that speed:

    reported seconds = measured seconds / speed factor,
    speed factor = median reference time in this run / nominal time.

The reference uses no germdeform code, so a change to the program moves
the reported times but not the factor. It has two halves, timed
separately because the two kinds of work slow down differently: scalar
complex arithmetic in the interpreter (like the census, charts and local
route) and a numpy FFT round trip on a 256 x 256 complex array (like the
solver). The factor is the geometric mean of the two halves' ratios.
The nominal times are round figures near the halves' medians on the
2-CPU machine the benchmark was defined on, in a quiet minute; they only
fix the unit.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

NOMINAL_SCALAR_S = 0.00080
NOMINAL_FFT_S = 0.0035
SCALAR_STEPS = 2000
FFT_SIDE = 256


class Speedometer:
    """Reference samples of one run."""

    def __init__(self):
        k = np.arange(FFT_SIDE * FFT_SIDE).reshape(FFT_SIDE, FFT_SIDE)
        self._grid = np.exp(1j * k / 7.0)
        self.scalar: list[float] = []
        self.fft: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            z, acc = 0.3 + 0.2j, 0j
            for k in range(SCALAR_STEPS):
                z = z * z * 0.5 + 0.1j
                acc += cmath.exp(1j * k / 100.0) * z
            t1 = time.perf_counter()
            np.fft.ifft2(np.fft.fft2(self._grid) * 0.5)
            t2 = time.perf_counter()
            self.scalar.append(t1 - t0)
            self.fft.append(t2 - t1)

    def factor(self) -> float:
        """How much slower than nominal this run's machine was."""
        return math.sqrt(
            statistics.median(self.scalar) / NOMINAL_SCALAR_S
            * statistics.median(self.fft) / NOMINAL_FFT_S
        )
