"""The box's current speed, read from a fixed reference kernel.

The benchmark is meant for small shared hosts, whose speed can change by
half over a few minutes, for every workload at once (pure-Python exact
arithmetic, numpy and even the imports slow down together).  No amount of
averaging inside a 40-second run removes a change that lasts minutes, so
every pass also times this kernel between its items, about twice a second,
and ``run.py`` scales the pass's timings by ``REFERENCE_S`` over the
median kernel time of that pass: the scaled figures read as timings on a
box on which the kernel takes ``REFERENCE_S``.  Set-up time is scaled the
same way by a few kernel timings taken right after the imports.

The kernel streams a few megabytes through numpy's FFT and ``sin``.  It
does not touch ``ballharmonics``, so no change to the library moves it.  A
tight pure-Python loop was tried first and follows the library's slowdowns
only half-way; this memory-bound kernel follows them one to one (measured
on a 2-core KVM guest: over twelve minutes the exact identity checks
varied by 1.36x between 40-second windows, their ratio to this kernel by
1.14x).  Timing it only between passes was tried too: the box changes
speed within a pass, so the samples must come from inside it.
"""

from __future__ import annotations

import time

import numpy as np

# a typical kernel time on a 2-core x86 KVM guest
REFERENCE_S = 0.03
# seconds between kernel timings within a pass (they cost about 6%); a
# 7-second pass still gets a dozen
EVERY_S = 0.5
_SIZE = 400_000


class SpeedProbe:
    """Kernel timings of one interpreter; ``maybe_sample`` times the kernel
    only when at least EVERY_S has passed since the last timing."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._x = np.random.default_rng(1).standard_normal(_SIZE)
        self._kernel()  # the first call also faults in pages and plans the FFT
        self._due = 0.0

    def _kernel(self) -> None:
        x = self._x
        np.fft.irfft(np.fft.rfft(x) * 0.5, n=x.size) + np.sin(x)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        done = time.perf_counter()
        self.samples.append(done - start)
        self._due = done + EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    @property
    def total_s(self) -> float:
        return sum(self.samples)
