"""Machine-speed calibration of every timing the benchmark reports.

The benchmark host is shared: a fixed book priced in 1 s blocks runs at
anywhere between 16k and 29k ops/s, and CPU time moves with wall time, so
the slowdown is contention for the core, not time stolen from the process.
A fixed calibration workload that does not touch the library, timed next
to the workload, measures the current speed, and each timing is scaled by
(reference time / calibration time), to a power set per calibration, to
what it would read at the reference speed. Contention slows different
code by different amounts, so each kind of work has its own calibration.
The raw values stay in the info line.

Three calibrations, each matched to the kind of work it scales:

* IN_PROCESS, a batch of pure-Python object builds and closed-form calls,
  for work inside the benchmark process. Over two sets of ten 20 s runs of
  each book workload, ops/s spread (interquartile range / median) 14-21%
  unscaled and 1-3% scaled. Library code slows less under contention than
  this tight loop: over 240 s of alternating samples, the time of a fixed
  book of 240 price_contract calls, and of 24 greeks_contract + vv_price
  ops, moved as the 0.80-0.84 and 0.84-0.89 power of the batch time
  (medians over windows of 6 to 120 samples). Scaling by the full ratio
  over-corrected: scaled book ops/s read 12% lower in uncontended runs
  than in runs at twice the batch time. This clock therefore scales by
  the ratio to the power 0.85.
* NUMPY, filling, summing and running-minimum of 2^20 doubles, for the
  Monte Carlo work of mc_check and the mc_oracle.* layers. That work is
  memory-bound numpy, which slows less under contention than interpreted
  code: over 120 s of alternating samples, 8-op window medians of the
  MC op time spread 10.9% raw, 13.6% over the IN_PROCESS batch and 4.8%
  over this one.
* PROCESS, starting an interpreter that imports numpy, for child
  processes (cli_cold ops, setup_s, the cli.* layers), whose start-up
  time does not follow the in-process batch. On five 15 s runs of
  ``fxx price`` the raw median moved 455-507 ms; its ratio to the
  calibration moved 2.96-3.03.
"""

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _Quote:
    spot: float
    strike: float
    vol: float
    years: float


def _undiscounted_call(q: _Quote) -> float:
    sd = q.vol * math.sqrt(q.years)
    d1 = (math.log(q.spot / q.strike) + 0.5 * sd * sd) / sd
    return (q.spot * 0.5 * math.erfc(-d1 / _SQRT2)
            - q.strike * 0.5 * math.erfc(-(d1 - sd) / _SQRT2))


_BATCH = [(100.0 + i % 7, 95.0 + i % 11, 0.1 + 0.01 * (i % 5), 0.5 + 0.1 * (i % 3))
          for i in range(200)]


def _python_batch() -> int:
    """Nanoseconds for 200 object builds and closed-form calls."""
    t0 = perf_counter_ns()
    for args in _BATCH:
        _undiscounted_call(_Quote(*args))
    return perf_counter_ns() - t0


_NUMPY_BUFFERS = []


def _numpy_batch() -> int:
    """Nanoseconds to fill 2^20 uniforms, cumsum them and take the running
    minimum: 8 MiB arrays, larger than L2, like a Monte Carlo chunk's."""
    import numpy as np

    if not _NUMPY_BUFFERS:
        _NUMPY_BUFFERS.extend([np.random.Generator(np.random.PCG64(1)),
                               np.empty(1 << 20), np.empty(1 << 20)])
    rng, a, b = _NUMPY_BUFFERS
    t0 = perf_counter_ns()
    rng.random(out=a)
    np.cumsum(a, out=b)
    np.minimum.accumulate(b, out=a)
    return perf_counter_ns() - t0


# Imports numpy and a few stdlib modules, never fxx.
_PROCESS_ARGV = [sys.executable, "-c", "import argparse, dataclasses, decimal, json, numpy"]


def _process_start() -> int:
    """Nanoseconds to start an interpreter that imports numpy."""
    t0 = perf_counter_ns()
    subprocess.run(_PROCESS_ARGV, capture_output=True, timeout=60, check=True)
    return perf_counter_ns() - t0


@dataclass(frozen=True)
class Clock:
    """A calibration sample and the time it takes at the reference speed."""

    sample: Callable[[], int]
    ref_ns: int
    elasticity: float = 1.0     # d ln(work time) / d ln(calibration time)

    def scale(self, sample_ns: float) -> float:
        """Scale for work timed while a calibration sample took ``sample_ns``."""
        return (self.ref_ns / sample_ns) ** self.elasticity

    def factor(self, before_ns: int, after_ns: int) -> float:
        """Scale for work timed between two calibration samples."""
        return self.scale((before_ns + after_ns) / 2.0)


# Reference times: the fast state of the 2-vCPU host the bounds were set on.
IN_PROCESS = Clock(_python_batch, 250_000, elasticity=0.85)
NUMPY = Clock(_numpy_batch, 11_500_000)
PROCESS = Clock(_process_start, 150_000_000)
