"""Machine-speed sampling for timings taken on a shared, drifting host.

On a shared 2-vCPU x86-64 VM (Python 3.11.7), identical work took from
0.71 s to 1.30 s depending on when it ran.  The host flips between a fast and a
slow state (about 1.7x apart) in spells from under a second to minutes, and
CPU time drifts with wall time, so neither a median over passes nor CPU time
removes it.

``SpeedProbe`` therefore samples the machine's speed while the work runs: a
profiling timer interrupts the process every ``PERIOD_S`` of CPU time and
times a fixed pure-Python kernel: exact Fraction dot products, the inner
loop leibkit spends most of its time in.  A timing is reported at reference
speed: its measured seconds, less the time spent in the probe, times
``REFERENCE_S`` over the probe's trimmed mean kernel time during that
interval.

The kernel never calls leibkit, but it runs inside the measured process, so
it is kept apart from what leibkit leaves in the caches: the heap holds
``COPIES`` copies of its vectors, about 6 MB in all, three times a core's
2 MB L2 cache, and each sample uses another copy.  A sample therefore reads
its data from the shared L3 cache whatever the measured work did before it,
and still sees the host's memory contention, which a kernel running from L1
does not.  The timed run has the garbage collector off.

How much leibkit's own footprint still moves the scale, measured on that VM:
alternating at millisecond grain between a corpus item and a 16 MB array
sweep before each sample, the kernel took 1.2 % longer after the sweep
(median ratio of 500 pairs; quartiles 0.983-1.042).  Over blocks of 150
corpus items made 27 % slower by such a sweep before every derive_leibniz,
its time rose 1.3 % (median of 16 alternations), so about a twentieth of
such a slowdown is absorbed by the scale.  Holding an extra 80 MB of
GC-tracked objects did not raise it (ratio 0.993).
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

# Median kernel time on a shared 2-vCPU x86-64 VM (Python 3.11.7): 0.953 ms
# over 3168 samples taken between corpus items for 90 s (deciles 0.60-1.06
# ms).  A timing taken at that speed is reported unchanged.
REFERENCE_S = 0.00095
PERIOD_S = 0.025
TRIM = 0.1  # share of samples dropped at each end (preemption outliers)
MIN_SAMPLES = 5
TOP_UP_SAMPLES = 20

# 16 fixed pairs of exact vectors, and COPIES copies of them made of distinct
# objects.  Every copy gives the same products, so every sample does the same
# arithmetic; only where in memory it reads changes.
COPIES = 250
_rng = random.Random(20240717)
_PAIRS = [tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(12))
                for _ in range(2))
          for _ in range(16)]
_HEAP = [[tuple(tuple(Fraction(f.numerator, f.denominator) for f in v) for v in pair)
          for pair in _PAIRS]
         for _ in range(COPIES)]
_ORDER = [_rng.randrange(COPIES) for _ in range(4096)]
_next = 0

perf = time.perf_counter


def kernel():
    global _next
    copy = _HEAP[_ORDER[_next % len(_ORDER)]]
    _next += 1
    for x, y in copy:
        sum(a * b for a, b in zip(x, y))


class SpeedProbe:
    """Times ``kernel`` every PERIOD_S of CPU time while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the probe, to subtract
        self.on_tick = None  # called with each tick's duration

    def _tick(self, signum, frame):
        t0 = perf()
        self.samples.append(_timed_kernel())
        dt = perf() - t0
        self.spent += dt
        if self.on_tick is not None:
            self.on_tick(dt)

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.spent, perf()

    def interval(self, mark, top_up=False) -> tuple[float, float | None]:
        """(seconds since ``mark`` less probe time, scale to reference speed).

        The scale is None when fewer than MIN_SAMPLES fell in the interval,
        unless ``top_up`` asks to time the kernel right away until there are
        TOP_UP_SAMPLES.
        """
        n, spent, t0 = mark
        seconds = perf() - t0 - (self.spent - spent)
        window = self.samples[n:]
        if top_up:
            window = window + [_timed_kernel() for _ in range(TOP_UP_SAMPLES - len(window))]
        if len(window) < MIN_SAMPLES:
            return seconds, None
        window.sort()
        cut = int(len(window) * TRIM)
        kept = window[cut:len(window) - cut]
        return seconds, REFERENCE_S * len(kept) / sum(kept)


def _timed_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf()
    kernel()
    t1 = perf()
    if enabled:
        gc.enable()
    return t1 - t0
