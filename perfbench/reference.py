"""Fixed reference kernel that the end-to-end rates are normalized by.

On a shared virtual machine the speed of the host drifts by 15-30 %
over tens of seconds, which swamps run-to-run comparisons of raw
throughput. The kernel does a fixed amount of work shaped like the
program's own (a gathered multiply-add like the resampler, a framed FFT
like the MFCC chain, a conv-shaped float32 GEMM) and is timed right
five times before and five times after every measured pass. A pass's
rate times the median of those ten times gives items per reference run
("items/ref"), which cancels most of the drift. The kernel is benchmark code with fixed inputs, so a change
to the program does not change it.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20191212)
        self.signal = rng.standard_normal(192000)
        self.taps = rng.standard_normal(64)
        self.index = rng.integers(0, len(self.signal), size=(4096, 64))
        self.frames = rng.standard_normal((400, 400))
        self.window = np.hamming(400)
        self.cols = rng.standard_normal((3000, 384)).astype(np.float32)
        self.weights = rng.standard_normal((384, 256)).astype(np.float32)

    def _run(self) -> float:
        gathered = (self.signal[self.index] * self.taps).sum(axis=1)
        spectrum = np.fft.rfft(self.frames * self.window, n=512, axis=1)
        product = self.cols @ self.weights
        return float(gathered[0] + spectrum[0, 0].real + product[0, 0])

    def times(self, repeats: int = 5) -> list:
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._run()
            out.append(time.perf_counter() - t0)
        return out

    def around(self, fn, *args):
        """Run ``fn``; return (result, wall seconds, reference times around it)."""
        before = self.times()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, wall, before + self.times()
