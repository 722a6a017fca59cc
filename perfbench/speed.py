"""Machine-speed calibration for timings taken on a shared virtual machine.

The 2-vCPU machine the baseline was measured on switches between speed
modes every few seconds: the same operation list took 2.3 s or 3.5 s
within one minute, and a fixed kernel swung by the same factor (about
1.45x).  ``Speed.sample`` times that kernel: a small HiGHS transport LP,
numpy products and a pure-Python loop, about 8-11 ms and none of it
qmspace code.  The benchmark samples it before and after every timed
operation and divides each operation's wall time by the mean of its two
samples over ``REFERENCE_S``, so a timing reads as wall seconds at the
machine's reference speed.  Within one minute this cut the spread
(quartile distance over median) of the cd-check operation list from 28%
to 7%.  A slower program still reads slower; a slower machine does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

#: the kernel's time, in seconds, on the reference machine in its fast mode
REFERENCE_S = 0.0076
#: points per side of the kernel's transport LP (N * N variables)
N = 24


class Speed:
    def __init__(self):
        n = N
        rng = np.random.default_rng(0)
        self.cost = rng.random(n * n)
        eq = np.zeros((2 * n - 1, n * n))
        for i in range(n):
            eq[i, i * n:(i + 1) * n] = 1.0
        for j in range(n - 1):
            eq[n + j, j::n] = 1.0
        self.eq = csr_matrix(eq)
        self.rhs = np.full(2 * n - 1, 1.0 / n)
        self.mat = rng.random((120, 120))
        for _ in range(3):
            self.sample()  # warm caches and lazy imports

    def sample(self) -> float:
        """Seconds the fixed kernel takes now: the faster of two runs, so
        caches left cold by a child process do not read as a slow machine."""
        return min(self._kernel(), self._kernel())

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        linprog(self.cost, A_eq=self.eq, b_eq=self.rhs, method="highs")
        for _ in range(3):
            self.mat @ self.mat
        total, table = 0, {}
        for i in range(30000):
            total += i * i
        for i in range(3000):
            table[str(i)] = i
        return time.perf_counter() - t0

    def factor(self, *samples: float) -> float:
        """How much slower than the reference the machine ran while these
        samples were taken: their median over the reference time."""
        return statistics.median(samples) / REFERENCE_S
