"""A fixed reference computation that measures how fast the machine runs right now.

A shared host can change speed from one minute to the next, and every timing
in a run moves with it: on a 2-vCPU Intel Xeon cloud VM, the same operations
ran up to 1.5 times slower in one 50-second run than in the next.  The
reference kernel below does a fixed amount of the kinds of work multitrek does
(exact rational elimination, dict-keyed accumulation, a JSON round trip, a
numpy product moment) and shares no code with it, so a change to the program
cannot change the kernel's time.  It is timed many times, interleaved with the
operations of a run, and timings are reported at the reference speed, where
the kernel takes ``REFERENCE_S``.  The speed for a timing is the kernel's
median within ``WINDOW_S`` of it, since the host's speed also drifts within a
run.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import statistics
import time
from fractions import Fraction

import numpy

# The kernel time that reported timings are scaled to.  The kernel's median
# during runs on a 2-vCPU Intel Xeon cloud VM (Python 3.11.7, numpy 2.4.6, one
# BLAS thread) was 8-10 ms, so scaled timings stay near the wall times there.
REFERENCE_S = 9.0e-3
# The kernel is timed between operations once this long has passed since its
# last timing: about 6 % of a run's time, and 20 timings or more per window.
INTERVAL_S = 0.1
WINDOW_S = 2.0


class Calibrator:
    """Times the reference kernel whenever ``INTERVAL_S`` has passed since the last time."""

    def __init__(self) -> None:
        rng = random.Random(20011)
        self._matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)] for _ in range(7)]
        self._keys = [(rng.randrange(64), rng.randrange(64), rng.randrange(64)) for _ in range(8_000)]
        self._doc = {str(i): [i, i / 7, f"v{i}", {"k": i % 5}] for i in range(600)}
        self._sample = numpy.random.default_rng(20011).standard_normal((40_000, 4))
        self.times: list[float] = []
        self.stamps: list[float] = []
        self._last = 0.0
        self.expected = self._kernel()

    def _kernel(self):
        # Exact rational elimination, as in the determinant layers.
        m = [row[:] for row in self._matrix]
        det = Fraction(1)
        for c in range(len(m)):
            pivot = next(r for r in range(c, len(m)) if m[r][c] != 0)
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, len(m)):
                f = m[r][c] / m[c][c]
                for j in range(c, len(m)):
                    m[r][j] -= f * m[c][j]
        # Accumulation into a dict keyed by exponent tuples, as in the polynomial layer.
        terms: dict = {}
        for key in self._keys:
            terms[key] = terms.get(key, 0) + key[0] - key[2]
        # A JSON round trip, as in the CLI and serialisation layers.
        doc = json.loads(json.dumps(self._doc, sort_keys=True))
        # A centred fourth-order product moment, as in the estimation layer.
        x = self._sample
        centred = x - x.mean(axis=0)
        fourth = float((centred[:, 0] * centred[:, 1] * centred[:, 2] * centred[:, 3]).mean())
        return det, len(terms), sum(terms.values()), len(doc), round(fourth, 9)

    def measure(self, times: int = 1) -> None:
        """Time the kernel ``times`` times, now."""
        for _ in range(times):
            # The collector stays off, so that the kernel's time does not
            # depend on how many objects the run keeps alive.
            gc.disable()
            try:
                start = time.perf_counter()
                result = self._kernel()
                end = time.perf_counter()
            finally:
                gc.enable()
            if result != self.expected:
                raise RuntimeError("the reference kernel gave a different result")
            self.times.append(end - start)
            self.stamps.append((start + end) / 2)
            self._last = end

    def maybe(self) -> None:
        """Time the kernel once if ``INTERVAL_S`` has passed since the last time."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.measure()

    def median(self) -> float:
        """The kernel's median time over the whole run."""
        return statistics.median(self.times)

    def scale_at(self, start: float, elapsed: float) -> float:
        """Factor that takes a timing made from ``start`` for ``elapsed`` seconds to the reference speed.

        The kernel's median over the timings within ``WINDOW_S`` of the
        timing's midpoint; the whole run's median if there are none.
        """
        mid = start + elapsed / 2
        lo = bisect.bisect_left(self.stamps, mid - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, mid + WINDOW_S)
        near = self.times[lo:hi]
        return REFERENCE_S / (statistics.median(near) if near else self.median())
