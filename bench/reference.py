"""A fixed reference work unit that measures how fast the machine runs right now.

The benchmark's host is a shared VM whose speed drifts by up to 1.6x over
minutes with the load of its neighbours; the same job took 1.1 s in one
minute and 2.0 s a few minutes later, with CPU time equal to wall time.  A
median over the jobs of one run cannot remove a drift that lasts the whole
run.  So a reference block is timed before and after each set-up and job,
and each set-up and job time is rescaled by the ratio of the reference's
nominal time to the mean of the two blocks around it:

    t_at_reference_speed = t_wall * NOMINAL_S[threads] / mean(block_before, block_after)

The run reports the median of the rescaled times; ``bench/README.md`` gives
the spread with and without the rescaling.

The unit is the same kind of work as a solver step (a batched real FFT pair
on a (3, 2048) array, array arithmetic, reductions and a short Python loop),
but it is the benchmark's own code: no change to the solver moves it.  It
runs on as many threads as the job computes on, so that a job using the
``compare`` worker pool is scaled by a block that contends for both vCPUs
and the GIL as the job does.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# Seconds per unit of a block, typical of the 2-vCPU VM the benchmark was
# tuned on (nproc = 2, numpy 2.4.6); they fix the reference speed that
# rescaled times are reported at.
NOMINAL_S = {1: 6.5e-4, 2: 1.5e-3}
UNITS = 100  # units per block and thread

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((3, 2048))
_B = _rng.standard_normal(1024)
_K = 1j * np.fft.rfftfreq(2048, 1.0 / 2048)


def unit() -> float:
    acc = 0.0
    for _ in range(4):
        a = np.fft.irfft(np.fft.rfft(_A, axis=-1) * _K, n=2048, axis=-1)
        b = _A * _A * _A + 0.5 * a
        acc += float(np.sum(b * b)) + float(np.dot(_B, _B[::-1]))
        for j in range(50):
            acc += j * 1e-9
    return acc


def _units(n: int) -> None:
    for _ in range(n):
        unit()


class Reference:
    """Times reference blocks on ``threads`` threads."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.nominal = NOMINAL_S[threads]
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def block(self) -> float:
        """Seconds per unit over one block of ``UNITS`` units on every thread at once."""
        t0 = perf_counter()
        if self._pool is None:
            _units(UNITS)
        else:
            list(self._pool.map(_units, [UNITS] * self.threads))
        return (perf_counter() - t0) / UNITS

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
