"""Host-speed scaling of the closed loops' end-to-end times.

On a shared host the speed of the same pure-Python work drifts: on the
2-vCPU host this benchmark was written on it moved by up to 1.8x within
minutes, with no steal time, so the CPUs themselves ran slower.  Ten
unscaled runs of identical content per workload had interquartile
spreads of 15-18% of their median; scaled, the same workloads stayed
near 5%.  So between the operations of a closed loop the benchmark times
a fixed calibration (an arithmetic loop and a list sort, independent of
the program), and reports a time ``t`` measured while the calibration
took ``c`` seconds as ``t * NOMINAL_S / c``: the time on a host where
the calibration takes ``NOMINAL_S``.  A change to the program moves
``t`` and not ``c``, so the scaled figure still moves with the program.
A change that leaves work running beside the loop (a busy pool worker,
say) slows ``c`` as well, and the scaling hides part of that slowdown.
The per-layer figures are not scaled.
"""

from __future__ import annotations

import statistics
import time

#: the calibration's time on that host when it was quiet
NOMINAL_S = 0.0045


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    started = time.perf_counter()
    total = 0
    for value in range(50_000):
        total += value * value
    data = [(value * 7919) % 10_007 for value in range(10_000)]
    data.sort()
    return time.perf_counter() - started


def scale(samples: int = 5) -> float:
    """The factor that turns a time measured now into nominal time."""
    return NOMINAL_S / statistics.median(calibrate()
                                         for _ in range(samples))
