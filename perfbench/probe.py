"""A speed probe that rescales measured times to a nominal machine speed.

The benchmark shares its cores with other tenants, whose load changes the
speed of this process by a third over seconds to minutes.  The worker times a
fixed pure-Python kernel that never calls the package, and multiplies a unit's
time by the kernel's nominal time over its median time around that unit.  The
package cannot change the probe, so a faster package still reads faster, while
a slower machine no longer reads as a slower package.  Raw times are reported
beside the scaled ones.

Load slows work with a small working set and work with a larger one by
different amounts, so each workload uses the kernel whose working set is
closer to its own (spec.PROBE_KERNEL).  Short units are followed by kernel
runs: one, or a share SHARE of the unit's time when that is longer.  Units
that last longer than the speed stays put (the larger finite groups, 0.5 to
1.5 s) are sampled during the unit by a background thread that wakes every
PERIOD_S.  The thread is kept off short units: handing the interpreter lock
over and back costs them milliseconds under load.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.02
SHARE = 0.05
# fewest kernel times a scale rests on; short units borrow recent ones
WINDOW = 31

_A = {(i % 4, i % 3, i % 5, i % 2): i % 3 + 1 for i in range(12)}
_B = {(i % 3, i % 5, i % 4, i % 2): i % 2 + 1 for i in range(12)}


def product_kernel():
    """A sparse product of two 12-term dicts with tuple keys and residues mod
    3; it fits in the first-level cache, like the Milnor predicates' work."""
    out = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if m[0] < 6:
                out[m] = (out.get(m, 0) + c1 * c2) % 3
    return out


_KEYS = [(i % 9, i * 7 % 9, i * 5 % 9, i * 3 % 11, i // 99) for i in range(4000)]


def dict_kernel():
    """Count 4000 tuple keys in a dict and read them back; a working set of a
    few hundred KB, like the package's group tables and larger products."""
    counts = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for key in _KEYS:
        total += counts[key]
    return total


# kernel -> its time on an unloaded core of the machine the baseline was
# recorded on, so scaled times read close to raw ones there
KERNELS = {"product": (product_kernel, 140e-6), "dict": (dict_kernel, 0.75e-3)}


class Probe:
    """Kernel times, sampled on demand or by a background thread."""

    def __init__(self, kernel="dict", clock=time.perf_counter):
        self.kernel, self.nominal = KERNELS[kernel]
        self.clock = clock
        self.times = []
        self._stop = threading.Event()
        self._thread = None

    def sample(self, count: int = 1):
        """Time count kernel runs."""
        for _ in range(count):
            t = self.clock()
            self.kernel()
            self.times.append(self.clock() - t)

    def after(self, seconds: float):
        """Kernel runs after a unit of the given length, about SHARE of it."""
        self.sample(1 + int(SHARE * seconds / self.nominal))

    def mark(self) -> int:
        """A position to pass to scale() once the measured work is done."""
        return len(self.times)

    def scale(self, since: int) -> float:
        """The nominal kernel time over its median since the mark, or over the
        last WINDOW kernel times when fewer were taken since."""
        recent = self.times[min(since, len(self.times) - WINDOW):]
        if not recent:
            raise RuntimeError("no probe samples yet")
        return self.nominal / statistics.median(recent)

    def overall(self) -> float:
        return self.nominal / statistics.median(self.times)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def start(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            raise RuntimeError("speed probe thread did not stop")
