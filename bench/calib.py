"""A host-speed probe: a fixed micro-kernel timed at regular wall intervals.

A shared virtual machine (measured on a 2-core 2.1 GHz Xeon VM) switches
between fast and slow states for seconds to minutes at a time, about 1.6
times apart, and a run's wall time follows them.  `Probe` times a small
fixed kernel from a SIGALRM handler every `PERIOD_S` wall seconds, so the
samples see the same states as the code around them.  The kernel
imitates the mix delaystab spends its time on (an interpreted RK4 loop
over small numpy arrays, and lag differences over a mesh) without
importing delaystab, so a change to the package leaves its time alone.

If a run's probes took p_1 .. p_n seconds, the run did as much work as
`speed = mean(REF_S / p_i)` times its wall time would at the speed where
one probe takes `REF_S`; `REF_S` is the probe's time in that VM's fast
state.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
REF_S = 3.0e-4
LAG = 8
STEPS = 12
MESH = 256


def kernel() -> float:
    """One pass of the reference computation; returns a checksum."""
    h = 1.0 / LAG
    vals = np.ones((STEPS + LAG + 1, 1))
    for k in range(LAG, STEPS + LAG):
        y, d = vals[k], 0.5 * np.tanh(vals[k - LAG])
        k1 = d - y
        k2 = d - (y + (0.5 * h) * k1)
        k3 = d - (y + (0.5 * h) * k2)
        k4 = d - (y + h * k3)
        vals[k + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    mesh = np.sin(np.linspace(0.0, 3.0, MESH))[:, None]
    peak = 0.0
    for k in range(1, MESH, 16):
        d = mesh[k:] - mesh[:-k]
        peak = max(peak, float(np.einsum("ij,ij->i", d, d).max()))
    return float(vals[-1, 0]) + peak


class Probe:
    """Times `kernel` every `PERIOD_S` wall seconds while active."""

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        # only the second pass is timed: the first brings the kernel back
        # into caches the run has just used, so the sample depends on the
        # host's state and not on the run's memory footprint
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        kernel()  # first-call costs stay out of the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Work per wall second relative to a probe time of `REF_S`."""
        return sum(REF_S / p for p in self.times) / len(self.times)
