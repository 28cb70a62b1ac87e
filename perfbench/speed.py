"""Machine-speed probe for normalising end-to-end timings.

On a machine shared with other tenants the same code runs at different
speeds from one minute to the next (up to 1.8x here, in phases of
seconds to minutes). Raw timings of two runs of identical code then
differ by more than a regression bound can allow. The probe times a
fixed kernel of CPython work, which involves neither dacr nor NumPy, in
the CPU time of the calling thread: before an op once PROBE_EVERY_S has
passed, and WINDOW times in a row after a gap of STALE_S. An op's time
is scaled by the kernel's reference time over the running median of the
probes around it. Reported times are then what they would be on a
machine where the kernel takes its reference time, and only a change in
the program moves them. The raw values are printed beside the
normalised ones.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

PROBE_EVERY_S = 0.02
STALE_S = 0.2  # after a longer gap the running median starts afresh
WINDOW = 15  # probes in the running median


def interpreter_kernel() -> int:
    """Integer arithmetic in the interpreter loop."""
    s = 0
    for i in range(3000):
        s += i * i
    return s


def allocating_kernel() -> int:
    """Half the loop above, then float repr and a join: allocation and
    memory traffic, which slow phases slow more (1.9x against 1.4x here)."""
    s = 0
    for i in range(1500):
        s += i * i
    return s + len(",".join([repr(i * 1.000001) for i in range(300)]))


# Kernel and its CPU time on the reference machine, in ns. Each workload
# names the kernel whose slowdowns track its own work best.
KERNELS = {
    "interpreter": (interpreter_kernel, 200_000),
    "allocating": (allocating_kernel, 250_000),
}


class SpeedProbe:
    """``factor`` is the kernel's reference time over the running median
    of recent probes."""

    def __init__(self, kernel: str) -> None:
        self._kernel, self._ref_ns = KERNELS[kernel]
        self._recent: deque[int] = deque(maxlen=WINDOW)
        self._last = float("-inf")
        self.factor = 1.0

    def sample(self) -> None:
        t0 = time.thread_time_ns()
        self._kernel()
        self._recent.append(time.thread_time_ns() - t0)
        self._last = time.perf_counter()
        self.factor = self._ref_ns / statistics.median(self._recent)

    def update(self) -> None:
        """Probe if due; refill the window if the last probe is stale."""
        age = time.perf_counter() - self._last
        if age >= STALE_S:
            self.warm()
        elif age >= PROBE_EVERY_S:
            self.sample()

    def warm(self) -> None:
        """Fill the running median with fresh probes."""
        for _ in range(WINDOW):
            self.sample()
