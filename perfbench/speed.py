"""Times of program work, expressed at one reference host speed.

The vCPUs of a shared host change speed for seconds at a time: on the 2-vCPU
host the benchmark was defined on, a fixed loop ran 1.5-1.6x slower in
stretches of 5-20 s and at full speed in between, and CPU time tracked wall
time. A run that falls in a slow stretch is slow whatever the program does.

So the benchmark measures the host next to the work. ``Clock.mark()`` times a
fixed calibration kernel and notes when it ran. The kernel mixes the kinds of
work the program does, because they slow down by different amounts: Python
arithmetic, small numpy ops and JSON (1.5-1.6x in a slow stretch, as the
rollouts) and batched forward and backward passes (less, as the updates).
The work between two marks is then scaled by ``REF_KERNEL_S`` over the
kernel's time at those marks: the seconds it would have taken with the kernel
at its reference time. The kernel's own time never counts as work. A program
change moves the scaled times as it moves the raw ones, since the kernel runs
no program code.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The kernel's time at full speed on that host: the 5th percentile of 687
# timings over 30 s (Python 3.11, numpy 2.4.6). It sets only the scale.
REF_KERNEL_S = 0.0028
KERNEL_REPEATS = 3

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((8, 8)) * 0.3
_ROW = [0.125 * i for i in range(16)]
# A two-layer net on a 256-row batch: the shapes of the desk SAC updates.
_X = _RNG.standard_normal((256, 4))
_W1 = _RNG.standard_normal((4, 64)) * 0.3
_W2 = _RNG.standard_normal((64, 64)) * 0.1
_W3 = _RNG.standard_normal((64, 1)) * 0.1


def _kernel() -> float:
    """About half interpreted single-row work, half batched array math."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):                   # interpreted arithmetic, as env steps
        acc += (i * 0.5) % 3.0
    x = _A
    for _ in range(200):                    # small numpy ops, as single-row acting
        x = np.tanh(x @ _A)
    for _ in range(60):                     # JSON, as the dataset files
        acc += len(json.loads(json.dumps({"s": _ROW, "r": acc})))
    for _ in range(3):                      # forward and backward, as an update
        h1 = np.tanh(_X @ _W1)
        h2 = np.maximum(h1 @ _W2, 0.0)
        g = (h2 @ _W3 - 1.0) / len(_X)
        g2 = (g @ _W3.T) * (h2 > 0)
        g1 = (g2 @ _W2.T) * (1.0 - h1 * h1)
        acc += float((h2.T @ g).sum() + (h1.T @ g2).sum() + (_X.T @ g1).sum())
    if not (np.isfinite(x).all() and np.isfinite(acc)):
        raise RuntimeError("calibration kernel diverged")
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The kernel's time now: the median of a few back-to-back runs."""
    return statistics.median(_kernel() for _ in range(KERNEL_REPEATS))


class Clock:
    """Marks in time with the host's speed at each; scaled work between marks.

    With ``calibrate=False`` a mark costs nothing and scales nothing, so the
    figures are raw wall seconds (the traced run uses that).
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self._marks: list[tuple[float, float, float]] = []  # (kernel start, end, kernel s)

    def mark(self) -> int:
        """Time the kernel now; -> the mark's index."""
        t0 = time.perf_counter()
        k = kernel_s() if self.calibrate else REF_KERNEL_S
        self._marks.append((t0, time.perf_counter(), k))
        return len(self._marks) - 1

    def raw(self, i: int, j: int) -> float:
        """Wall seconds of work from mark i to mark j, kernels left out."""
        m = self._marks
        return sum(m[k + 1][0] - m[k][1] for k in range(i, j))

    def scaled(self, i: int, j: int) -> float:
        """The work from mark i to mark j at the reference speed.

        Each stretch between neighbouring marks is scaled by the mean of the
        kernel's times at its two ends.
        """
        m = self._marks
        return sum((m[k + 1][0] - m[k][1]) * 2.0 * REF_KERNEL_S / (m[k][2] + m[k + 1][2])
                   for k in range(i, j))

    def kernel_times(self) -> list[float]:
        return [k for _, _, k in self._marks]
