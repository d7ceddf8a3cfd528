"""A clock that corrects measured times for the host's speed.

On a shared 2-core host the same code runs up to about 40% faster or
slower from one moment to the next, in bursts from a fraction of a second
to tens of seconds, while the process's CPU time tracks its wall time: the
host's speed changes, not the scheduling. ``Clock.tick`` is called often
from the workloads; every ``EVERY_S`` seconds it times a fixed reference
kernel that uses no code of the program (about a millisecond, so about 2%
of the run): half interpreted Python and half small numpy calls, the two
kinds of work the program does. Every measured time goes through
``Clock.run``, which takes a kernel sample just before and just after the
call and divides by the slowdown of the samples taken from the first to
the last: their mean with the highest and lowest tenth left out (so a
sample hit by an interrupt does not count), relative to ``REFERENCE_S``.
That gives seconds at the reference speed. Time spent in the kernel, or
in anything else run under ``Clock.excluded``, is left out of every
interval.
"""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

import numpy as np

# about the kernel's time on the 2-core sandbox the benchmark was written
# on (Python 3.11.7, numpy 2.4.6); a scale, not a threshold
REFERENCE_S = 1.0e-3
# clock seconds between two kernel samples taken by `tick`
EVERY_S = 0.05

T = TypeVar("T")

_MATRIX = np.linspace(0.0, 1.0, 576).reshape(24, 24)
_BLOCKS = np.linspace(0.0, 1.0, 576).reshape(64, 3, 3)


def _kernel() -> float:
    acc = 0.0
    for i in range(1, 1650):
        x = 1.0 / i
        acc += math.exp(-x) * x + acc % 3.0
    for _ in range(60):
        acc += float(np.einsum("vij,vij->v", _BLOCKS, _BLOCKS).sum()) + float((_MATRIX @ _MATRIX)[0, 0])
    return acc


class Clock:
    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: List[Tuple[float, float]] = []  # (clock time, kernel seconds)
        self._next = 0.0
        self.tick(force=True)

    def now(self) -> float:
        """Seconds on a clock that stops while the kernel or excluded code runs."""
        return perf_counter() - self.spent

    @contextmanager
    def excluded(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spent += perf_counter() - t0

    def tick(self, force: bool = False) -> None:
        now = self.now()
        if not force and now < self._next:
            return
        with self.excluded():
            t0 = perf_counter()
            _kernel()
            seconds = perf_counter() - t0
        self.samples.append((now, seconds))
        self._next = now + EVERY_S

    def run(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Call fn between two forced kernel samples.

        Returns fn's result, the clock seconds it took, and the slowdown
        of the kernel samples from the first to the last, to divide them by.
        """
        self.tick(force=True)
        t0 = self.samples[-1][0]
        result = fn()
        self.tick(force=True)
        t1 = self.samples[-1][0]
        return result, t1 - t0, self.slowdown(t0, t1)

    def slowdown_at(self, t: float) -> float:
        """Mean of the two kernel samples around clock time t, relative to the reference."""
        i = bisect.bisect(self.samples, (t,))
        near = self.samples[max(i - 1, 0):i + 1]
        return sum(s for _t, s in near) / len(near) / REFERENCE_S

    def slowdown(self, t0: float, t1: float) -> float:
        """Trimmed mean of the kernel samples in [t0, t1] relative to the reference."""
        inside = sorted(s for t, s in self.samples if t0 <= t <= t1)
        cut = len(inside) // 10
        kept = inside[cut:len(inside) - cut]
        return sum(kept) / len(kept) / REFERENCE_S
