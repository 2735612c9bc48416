"""The machine's speed, gauged with a fixed computation timed alongside the ops.

The host this benchmark runs on is shared: the speed of its processors
drifts by up to 30% over minutes while CPU time tracks wall time, so a
wall-clock op time read in one run cannot be compared with one read a few
minutes later.  :class:`Speedometer` times a fixed pass of numpy work that
resembles the library's inner loop (whiten one small SPD matrix by another,
``eigh``, apply the log kernel on a grid of ``s``, reassemble) between the
ops of a run.  The run's *speed factor* is ``REFERENCE_S`` divided by the
mean time of that pass (the top and bottom tenth left out), and ``run.py``
multiplies every time it reports by it: a time at the reference speed, at
which the pass takes ``REFERENCE_S``.  The mean, not the median: the pass
times spread evenly between fast and slow phases of the machine, so their
median jumps as the mix of phases shifts, while an op's time, like the
mean, takes each phase in proportion to its share.  The pass is benchmark
code and does not change with the library, so a change to the library
moves the scaled times and a change of the machine's speed does not.

The numpy functions are bound when this module is imported, before the
tracer patches them, so the pass never shows in the traced counts.
"""

import statistics
from time import perf_counter

import numpy as np

# Mean time of one pass on the reference machine (README, Environment);
# the scale of every reported time.
REFERENCE_S = 2.0e-3
# A pass is taken before the next op once this much time has gone by.
INTERVAL_S = 0.2
REFERENCE_SEED = 20160126
SIZES = (2, 3, 4, 5, 6)
PAIRS_PER_SIZE = 6
KERNEL_S = np.linspace(0.05, 0.95, 8)[:, None]

_eigh = np.linalg.eigh


def _spd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(0.1, 10.0, n)) @ q.T


class Speedometer:
    """Times of the fixed pass, taken at most every ``INTERVAL_S`` seconds."""

    def __init__(self):
        rng = np.random.default_rng(REFERENCE_SEED)
        self.pairs = [(_spd(rng, n), _spd(rng, n)) for n in SIZES for _ in range(PAIRS_PER_SIZE)]
        self.times = []
        self.last = float("-inf")

    def _pass(self):
        acc = 0.0
        for a, b in self.pairs:
            w, q = _eigh(a)
            r = (q / np.sqrt(w)) @ q.T
            c = r @ b @ r
            w, q = _eigh(0.5 * (c + c.T))
            k = ((w - 1.0) / ((1.0 - KERNEL_S) * w + KERNEL_S)).mean(axis=0)
            acc += float(((q * k) @ q.T).trace())
        return acc

    def sample(self, count=1):
        """Time ``count`` passes now."""
        for _ in range(count):
            t = perf_counter()
            self._pass()
            self.last = perf_counter()
            self.times.append(self.last - t)

    def tick(self):
        """Time one pass if ``INTERVAL_S`` has gone by since the last."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def mean(self):
        """Mean pass time, the fastest and the slowest tenth left out."""
        times = sorted(self.times)
        cut = len(times) // 10
        return statistics.fmean(times[cut:len(times) - cut])

    def factor(self):
        """``REFERENCE_S`` over the mean pass time: multiplies a measured time."""
        return REFERENCE_S / self.mean()
