"""A fixed reference kernel, timed between jobs, for host-speed correction.

The benchmark shares a small virtual machine with other tenants. The
machine's CPU speed switches between a fast and a slow state, about 40 %
apart, every few seconds to minutes, and the switch slows every kind of
work. The kernel is timed before the first set-up, after every set-up and
after every job. Each set-up or job time is rescaled by the kernel time
around it.

Ten runs per workload (seeds 50-59, 20 s each) on a 2-core Xeon guest gave
the following spreads of the run medians (quartile distance over median):

| workload | raw wall time | corrected wall time |
|---|---|---|
| train-dense | 10.8 % | 7.9 % |
| prune-gradflow | 18.1 % | 6.4 % |
| sample-eval | 21.8 % | 9.8 % |

The kernel does the same kinds of work as the package: small float64
matmuls with a SiLU, plus an interpreter-bound loop. It does not depend on
flowprune, so no change to the package can move it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

# Typical kernel time on the host the benchmark was tuned on. Corrected times
# read in seconds at that speed: raw seconds * NOMINAL_S / kernel seconds.
NOMINAL_S = 0.008


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20250117)
        self._weights = [0.1 * rng.standard_normal((128, 128)) for _ in range(3)]
        self._x = rng.standard_normal((512, 128))
        # Preallocated: numpy arrays this size are mmap-allocated until glibc
        # raises its mmap threshold, so a kernel that allocated would run
        # faster after any job that freed large arrays.
        self._z, self._e, self._h = (np.empty_like(self._x) for _ in range(3))

    def _kernel(self) -> None:
        z, e, h = self._z, self._e, self._h
        for _ in range(5):
            src = self._x
            for w in self._weights:
                np.matmul(src, w.T, out=z)
                np.negative(z, out=e)
                np.exp(e, out=e)
                e += 1.0
                np.divide(z, e, out=h)
                src = h
        acc = 0
        for k in range(25_000):
            acc += k * k

    def measure(self) -> float:
        """Median time of five kernel calls, in seconds."""
        times = []
        for _ in range(5):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return median(times)


def corrected(times: list[float], refs: list[float]) -> list[float]:
    """Each of ``times`` rescaled to the nominal host speed.

    ``refs[i]`` is the kernel time measured just before ``times[i]`` and
    ``refs[i + 1]`` the one just after; the host speed during the interval
    is taken as their mean.
    """
    return [t * NOMINAL_S / (0.5 * (refs[i] + refs[i + 1]))
            for i, t in enumerate(times)]
